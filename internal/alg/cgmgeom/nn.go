package cgmgeom

import (
	"fmt"
	"math"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/words"
)

// NN2D computes all nearest neighbors in the plane (the Table 1
// "2D-nearest neighbors" row): for every point, the index of its
// closest other point (Euclidean distance; -1 when n < 2).
//
// CGM algorithm: balanced x-slabs (Slabber over the points), a local
// nearest-neighbor pass within each slab, then iterative refinement —
// a point whose current best distance exceeds its distance to an
// unexplored slab boundary sends a bounded query one slab outward;
// queried slabs reply with improvements. Rounds repeat (3 supersteps
// each: query, answer+global count, update) until a global round
// sends no queries; termination is detected with a count gather and
// broadcast through VP 0. Expected O(1) rounds on uniform inputs,
// at most v rounds in the worst case (measured λ is reported).
type NN2D struct {
	v   int
	n   int
	pts []Point
}

// NewNN2D returns the program for the given points on v VPs.
func NewNN2D(pts []Point, v int) (*NN2D, error) {
	if v <= 0 {
		return nil, fmt.Errorf("cgmgeom: v = %d, want > 0", v)
	}
	return &NN2D{v: v, n: len(pts), pts: pts}, nil
}

func (p *NN2D) NumVPs() int { return p.v }

const nnRecW = 3 // enc(x), enc(y), index

func (p *NN2D) maxRecs() int { return 3*cgm.MaxPart(p.n, p.v) + p.v }

func (p *NN2D) MaxContextWords() int {
	sl := Slabber{W: nnRecW}
	m := p.maxRecs()
	// Slabber (holding the slab records), per-point state (best
	// distance, best index, explored range), answers, phase/round.
	return 8 + sl.SaveSize(m, p.v) + 4*words.SizeUints(m) + words.SizeUints(2*cgm.MaxPart(p.n, p.v))
}

func (p *NN2D) MaxCommWords() int {
	m := p.maxRecs()
	sortComm := 3*cgm.MaxPart(p.n, p.v)*nnRecW + p.v*(p.v*nnRecW+1) + p.v*((p.v-1)*nnRecW+1)
	// A round's queries: every local point may query both sides.
	queries := 2*m*5 + p.v + 4
	replies := 2*m*4 + p.v + 4
	answers := 2*m + p.v
	c := sortComm
	for _, x := range []int{queries, replies, answers} {
		if x > c {
			c = x
		}
	}
	return c + 16
}

func (p *NN2D) NewVP(id int) bsp.VP {
	lo, hi := cgm.Dist(p.n, p.v, id)
	data := make([]uint64, 0, (hi-lo)*nnRecW)
	for i := lo; i < hi; i++ {
		data = append(data,
			cgm.EncodeFloat(p.pts[i].X),
			cgm.EncodeFloat(p.pts[i].Y),
			uint64(i),
		)
	}
	return &nnVP{p: p, slab: Slabber{W: nnRecW, Data: data}}
}

// Message tags for the refinement rounds.
const (
	nnTagQuery = iota // to a slab: (tag, then 5-word queries)
	nnTagCount        // to VP 0: (tag, #queries sent)
	nnTagReply        // to the asker: (tag, then 3-word replies)
	nnTagTotal        // from VP 0: (tag, global #queries)
)

const (
	nnPhaseSlab    = 0
	nnPhaseQuery   = 1
	nnPhaseAnswer  = 2
	nnPhaseUpdate  = 3
	nnPhaseCollect = 4
	nnPhaseDone    = 5
)

type nnVP struct {
	p     *NN2D
	phase uint64
	slab  Slabber

	// Per local (slab-sorted) point state.
	bestD2  []uint64 // float bits, +Inf when unknown
	bestIdx []uint64 // ^0 when unknown
	sl, sr  []uint64 // explored slab range per point (inclusive)

	answers []uint64 // owned (pointIdx, nnIdx) pairs
}

// localPts decodes the slab records.
func (vp *nnVP) localPts() (xs, ys []float64, idx []uint64) {
	n := len(vp.slab.Data) / nnRecW
	xs = make([]float64, n)
	ys = make([]float64, n)
	idx = make([]uint64, n)
	for i := 0; i < n; i++ {
		xs[i] = cgm.DecodeFloat(vp.slab.Data[i*nnRecW])
		ys[i] = cgm.DecodeFloat(vp.slab.Data[i*nnRecW+1])
		idx[i] = vp.slab.Data[i*nnRecW+2]
	}
	return xs, ys, idx
}

// scanBest finds the best candidate for (qx, qy) among the local
// x-sorted points, strictly improving on d2, excluding point index
// self. It returns the improved (d2, idx) or ok=false.
func scanBest(xs, ys []float64, idx []uint64, qx, qy, d2 float64, self uint64) (float64, uint64, bool) {
	n := len(xs)
	// Binary search for qx.
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < qx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	best := d2
	bi := ^uint64(0)
	consider := func(i int) {
		if idx[i] == self {
			return
		}
		dx, dy := xs[i]-qx, ys[i]-qy
		dd := dx*dx + dy*dy
		if dd < best {
			best, bi = dd, idx[i]
		}
	}
	for i := lo; i < n; i++ {
		dx := xs[i] - qx
		if dx*dx >= best {
			break
		}
		consider(i)
	}
	for i := lo - 1; i >= 0; i-- {
		dx := xs[i] - qx
		if dx*dx >= best {
			break
		}
		consider(i)
	}
	if bi == ^uint64(0) {
		return d2, bi, false
	}
	return best, bi, true
}

func (vp *nnVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	switch vp.phase {
	case nnPhaseSlab:
		done, err := vp.slab.Step(env, in)
		if err != nil {
			return false, err
		}
		if !done {
			return vp.slab.Idle(), nil
		}
		// Local pass within the slab.
		xs, ys, idx := vp.localPts()
		n := len(xs)
		vp.bestD2 = make([]uint64, n)
		vp.bestIdx = make([]uint64, n)
		vp.sl = make([]uint64, n)
		vp.sr = make([]uint64, n)
		for i := 0; i < n; i++ {
			d2, bi, _ := scanBest(xs, ys, idx, xs[i], ys[i], math.Inf(1), idx[i])
			vp.bestD2[i] = math.Float64bits(d2)
			vp.bestIdx[i] = bi
			vp.sl[i] = uint64(env.ID())
			vp.sr[i] = uint64(env.ID())
		}
		env.Charge(int64(n) * 16)
		vp.phase = nnPhaseQuery
		return false, nil
	case nnPhaseQuery:
		xs, ys, _ := vp.localPts()
		v := env.NumVPs()
		parts := make([][]uint64, v)
		var sent uint64
		for i := range xs {
			d2 := math.Float64frombits(vp.bestD2[i])
			if s := int(vp.sl[i]); s > 0 {
				edge := BoundFloat(vp.slab.Bounds[s])
				dx := xs[i] - edge
				if dx*dx < d2 {
					parts[s-1] = append(parts[s-1],
						math.Float64bits(xs[i]), math.Float64bits(ys[i]),
						vp.bestD2[i], uint64(i), vp.slab.Data[i*nnRecW+2])
					vp.sl[i] = uint64(s - 1)
					sent++
				}
			}
			d2 = math.Float64frombits(vp.bestD2[i])
			if s := int(vp.sr[i]); s < v-1 {
				edge := BoundFloat(vp.slab.Bounds[s+1])
				dx := edge - xs[i]
				if dx*dx < d2 {
					parts[s+1] = append(parts[s+1],
						math.Float64bits(xs[i]), math.Float64bits(ys[i]),
						vp.bestD2[i], uint64(i), vp.slab.Data[i*nnRecW+2])
					vp.sr[i] = uint64(s + 1)
					sent++
				}
			}
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, append([]uint64{nnTagQuery}, part...))
			}
		}
		env.Send(0, []uint64{nnTagCount, sent})
		env.Charge(int64(len(xs)) * 4)
		vp.phase = nnPhaseAnswer
		return false, nil
	case nnPhaseAnswer:
		xs, ys, idx := vp.localPts()
		var total uint64
		for _, m := range in {
			switch m.Payload[0] {
			case nnTagQuery:
				var reply []uint64
				q := m.Payload[1:]
				for i := 0; i+5 <= len(q); i += 5 {
					qx := math.Float64frombits(q[i])
					qy := math.Float64frombits(q[i+1])
					qd2 := math.Float64frombits(q[i+2])
					ref := q[i+3]
					self := q[i+4]
					if d2, bi, ok := scanBest(xs, ys, idx, qx, qy, qd2, self); ok {
						reply = append(reply, ref, math.Float64bits(d2), bi)
					}
				}
				if len(reply) > 0 {
					env.Send(m.Src, append([]uint64{nnTagReply}, reply...))
				}
				env.Charge(int64(len(q) / 5 * 8))
			case nnTagCount:
				total += m.Payload[1]
			default:
				return false, fmt.Errorf("cgmgeom: unexpected tag %d in answer phase", m.Payload[0])
			}
		}
		if env.ID() == 0 {
			for d := 0; d < env.NumVPs(); d++ {
				env.Send(d, []uint64{nnTagTotal, total})
			}
		}
		vp.phase = nnPhaseUpdate
		return false, nil
	case nnPhaseUpdate:
		var total uint64
		sawTotal := false
		for _, m := range in {
			switch m.Payload[0] {
			case nnTagReply:
				r := m.Payload[1:]
				for i := 0; i+3 <= len(r); i += 3 {
					ref := r[i]
					d2 := math.Float64frombits(r[i+1])
					if d2 < math.Float64frombits(vp.bestD2[ref]) {
						vp.bestD2[ref] = r[i+1]
						vp.bestIdx[ref] = r[i+2]
					}
				}
			case nnTagTotal:
				total = m.Payload[1]
				sawTotal = true
			default:
				return false, fmt.Errorf("cgmgeom: unexpected tag %d in update phase", m.Payload[0])
			}
		}
		if !sawTotal {
			return false, fmt.Errorf("cgmgeom: missing round total")
		}
		if total > 0 {
			vp.phase = nnPhaseQuery
			return false, nil
		}
		// Converged: route answers to the owners of the original
		// indices.
		parts := make([][]uint64, env.NumVPs())
		n := len(vp.slab.Data) / nnRecW
		for i := 0; i < n; i++ {
			pi := vp.slab.Data[i*nnRecW+2]
			d := cgm.Owner(vp.p.n, vp.p.v, int(pi))
			parts[d] = append(parts[d], pi, vp.bestIdx[i])
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		vp.phase = nnPhaseCollect
		return false, nil
	case nnPhaseCollect:
		for _, m := range in {
			vp.answers = append(vp.answers, m.Payload...)
		}
		vp.phase = nnPhaseDone
		return true, nil
	default:
		return false, fmt.Errorf("cgmgeom: NN VP stepped after completion")
	}
}

func (vp *nnVP) Save(enc *words.Encoder) {
	enc.PutUint(vp.phase)
	vp.slab.Save(enc)
	enc.PutUints(vp.bestD2)
	enc.PutUints(vp.bestIdx)
	enc.PutUints(vp.sl)
	enc.PutUints(vp.sr)
	enc.PutUints(vp.answers)
}

func (vp *nnVP) Load(dec *words.Decoder) {
	vp.phase = dec.Uint()
	vp.slab.W = nnRecW
	vp.slab.Load(dec)
	vp.bestD2 = dec.Uints()
	vp.bestIdx = dec.Uints()
	vp.sl = dec.Uints()
	vp.sr = dec.Uints()
	vp.answers = dec.Uints()
}

// Output returns, per point index, the index of its nearest neighbor
// (-1 when undefined).
func (p *NN2D) Output(vps []bsp.VP) []int {
	out := make([]int, p.n)
	for i := range out {
		out[i] = -1
	}
	for _, vp := range vps {
		ans := vp.(*nnVP).answers
		for i := 0; i+2 <= len(ans); i += 2 {
			if ans[i+1] != ^uint64(0) {
				out[ans[i]] = int(ans[i+1])
			}
		}
	}
	return out
}
