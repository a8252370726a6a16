// Package cgmsort implements the Group A workloads of the paper's
// Table 1 as CGM programs: sorting, permutation and matrix transpose.
// Each is a bsp.Program with λ = O(1) communication rounds; run
// through internal/core they become the corresponding parallel EM
// algorithms with I/O time Õ(G·n/(p·B·D)).
package cgmsort

import (
	"fmt"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/words"
)

// SortProgram sorts n flat records of width W lexicographically with
// a distributed sample sort (λ = 4 supersteps). Records are
// uniquified internally with a trailing input-index word, which makes
// the sort stable and guarantees the PSRS 2·⌈n/v⌉ output balance (and
// hence the declared γ) even for duplicate-heavy inputs.
type SortProgram struct {
	v    int
	w    int // caller-visible record width
	iw   int // internal width: w + 1 (index tiebreak)
	data []uint64
	n    int // number of records
}

// NewSort returns a program sorting data (flat records of w words
// each) on v virtual processors.
func NewSort(data []uint64, w, v int) (*SortProgram, error) {
	if w <= 0 || len(data)%w != 0 {
		return nil, fmt.Errorf("cgmsort: data length %d not a multiple of record width %d", len(data), w)
	}
	if v <= 0 {
		return nil, fmt.Errorf("cgmsort: v = %d, want > 0", v)
	}
	return &SortProgram{v: v, w: w, iw: w + 1, data: data, n: len(data) / w}, nil
}

func (p *SortProgram) NumVPs() int { return p.v }

// MaxContextWords budgets for the PSRS output guarantee (≤ 2·⌈n/v⌉
// records per VP, guaranteed by the index tiebreak) with headroom.
func (p *SortProgram) MaxContextWords() int {
	maxRecs := 3*cgm.MaxPart(p.n, p.v) + p.v
	s := &cgm.Sorter{W: p.iw}
	return 2 + s.SaveSize(maxRecs, p.v)
}

func (p *SortProgram) MaxCommWords() int {
	// Phase 2 routes all local records; VP 0 additionally receives
	// v·v samples in phase 1 and broadcasts v-1 splitters to v VPs.
	return 3*cgm.MaxPart(p.n, p.v)*p.iw + p.v*(p.v*p.iw+1) + p.v*((p.v-1)*p.iw+1) + 16
}

func (p *SortProgram) NewVP(id int) bsp.VP {
	lo, hi := cgm.Dist(p.n, p.v, id)
	local := make([]uint64, 0, (hi-lo)*p.iw)
	for i := lo; i < hi; i++ {
		local = append(local, p.data[i*p.w:(i+1)*p.w]...)
		local = append(local, uint64(i))
	}
	return &sortVP{sorter: cgm.Sorter{W: p.iw, Data: local}}
}

type sortVP struct {
	sorter cgm.Sorter
}

// Step forwards to the Sorter, and votes halt while it is idle, so the
// VP sleeps while VP 0 merges the samples.
func (vp *sortVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	done, err := vp.sorter.Step(env, in)
	return done || vp.sorter.Idle(), err
}

func (vp *sortVP) Save(enc *words.Encoder) { vp.sorter.Save(enc) }
func (vp *sortVP) Load(dec *words.Decoder) { vp.sorter.Load(dec) }

// Output concatenates the per-VP sorted slices into the global sorted
// sequence, stripping the internal index tiebreak.
func (p *SortProgram) Output(vps []bsp.VP) []uint64 {
	out := make([]uint64, 0, p.n*p.w)
	for _, vp := range vps {
		data := vp.(*sortVP).sorter.Data
		for i := 0; i+p.iw <= len(data); i += p.iw {
			out = append(out, data[i:i+p.w]...)
		}
	}
	return out
}

// PartSizes returns the number of records each VP holds after the
// sort — the PSRS balance observable.
func (p *SortProgram) PartSizes(vps []bsp.VP) []int {
	out := make([]int, len(vps))
	for i, vp := range vps {
		out[i] = len(vp.(*sortVP).sorter.Data) / p.iw
	}
	return out
}

// PermuteProgram routes n values to caller-specified target positions
// (λ = 1 communication round: one all-to-all of (position, value)
// pairs). It implements both Table 1's "Permutation" row and, with a
// computed target function, "Matrix transpose".
type PermuteProgram struct {
	v      int
	n      int
	vals   []uint64
	target func(i int) int
}

// NewPermute returns a program computing out[targets[i]] = vals[i].
// targets must be a permutation of [0, n).
func NewPermute(vals []uint64, targets []int, v int) (*PermuteProgram, error) {
	if len(targets) != len(vals) {
		return nil, fmt.Errorf("cgmsort: %d values but %d targets", len(vals), len(targets))
	}
	if err := checkPermutation(targets); err != nil {
		return nil, err
	}
	return &PermuteProgram{v: v, n: len(vals), vals: vals, target: func(i int) int { return targets[i] }}, nil
}

func checkPermutation(t []int) error {
	seen := make([]bool, len(t))
	for _, x := range t {
		if x < 0 || x >= len(t) || seen[x] {
			return fmt.Errorf("cgmsort: targets are not a permutation")
		}
		seen[x] = true
	}
	return nil
}

// NewTranspose returns a program transposing an r×c matrix given in
// row-major order into c×r row-major order.
func NewTranspose(matrix []uint64, r, c, v int) (*PermuteProgram, error) {
	if len(matrix) != r*c {
		return nil, fmt.Errorf("cgmsort: matrix has %d elements, want %d×%d=%d", len(matrix), r, c, r*c)
	}
	return &PermuteProgram{
		v: v, n: r * c, vals: matrix,
		target: func(i int) int { return (i%c)*r + i/c },
	}, nil
}

func (p *PermuteProgram) NumVPs() int { return p.v }

func (p *PermuteProgram) MaxContextWords() int {
	// Local input values, arrival buffer of one slot per owned
	// position, plus phase word.
	return 4 + 2*words.SizeUints(2*cgm.MaxPart(p.n, p.v))
}

func (p *PermuteProgram) MaxCommWords() int {
	// One round: every VP sends and receives ⌈n/v⌉ (position, value)
	// pairs, split across at most v messages.
	return 2*cgm.MaxPart(p.n, p.v)*2 + 2*p.v + 8
}

func (p *PermuteProgram) NewVP(id int) bsp.VP {
	lo, hi := cgm.Dist(p.n, p.v, id)
	local := make([]uint64, hi-lo)
	copy(local, p.vals[lo:hi])
	return &permuteVP{p: p, in: local}
}

type permuteVP struct {
	p     *PermuteProgram
	phase uint64
	in    []uint64
	out   []uint64
}

func (vp *permuteVP) Step(env *bsp.Env, msgs []bsp.Message) (bool, error) {
	switch vp.phase {
	case 0:
		lo, _ := cgm.Dist(vp.p.n, vp.p.v, env.ID())
		// Batch (position, value) pairs per destination VP: the
		// coarse-grained h-relation.
		parts := make([][]uint64, vp.p.v)
		for i, val := range vp.in {
			pos := vp.p.target(lo + i)
			d := cgm.Owner(vp.p.n, vp.p.v, pos)
			parts[d] = append(parts[d], uint64(pos), val)
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		env.Charge(int64(len(vp.in)))
		vp.in = nil
		vp.phase = 1
		return false, nil
	case 1:
		lo, hi := cgm.Dist(vp.p.n, vp.p.v, env.ID())
		vp.out = make([]uint64, hi-lo)
		for _, m := range msgs {
			for i := 0; i+1 < len(m.Payload); i += 2 {
				pos := int(m.Payload[i])
				if pos < lo || pos >= hi {
					return false, fmt.Errorf("cgmsort: position %d routed to VP %d owning [%d,%d)", pos, env.ID(), lo, hi)
				}
				vp.out[pos-lo] = m.Payload[i+1]
			}
		}
		env.Charge(int64(hi - lo))
		vp.phase = 2
		return true, nil
	default:
		return false, fmt.Errorf("cgmsort: permute VP stepped after completion")
	}
}

func (vp *permuteVP) Save(enc *words.Encoder) {
	enc.PutUint(vp.phase)
	enc.PutUints(vp.in)
	enc.PutUints(vp.out)
}

func (vp *permuteVP) Load(dec *words.Decoder) {
	vp.phase = dec.Uint()
	vp.in = dec.Uints()
	vp.out = dec.Uints()
}

// Output concatenates the per-VP permuted slices.
func (p *PermuteProgram) Output(vps []bsp.VP) []uint64 {
	out := make([]uint64, 0, p.n)
	for _, vp := range vps {
		out = append(out, vp.(*permuteVP).out...)
	}
	return out
}
