package cgmgeom

import (
	"fmt"
	"sort"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/words"
)

// Dominance2D computes 2D weighted dominance counts: for every point
// p, the sum of the (integer) weights of the points q with q.X < p.X
// and q.Y < p.Y. Coordinates are assumed distinct in each axis.
//
// CGM algorithm (λ = O(1) rounds, the Table 1 "2D-weighted dominance
// counting" row):
//
//  1. Sort by x into x-slabs; each slab computes the within-slab
//     counts with a local y-sweep over a Fenwick tree.
//  2. Sort by y into y-slabs, records tagged with their x-slab. Each
//     y-slab sweeps locally in y order, accumulating per-x-slab weight
//     sums: this yields the contribution of lower y within the same
//     y-slab and strictly lower x-slab, plus the slab's per-x-slab
//     totals.
//  3. One all-to-all of the v per-x-slab total vectors (v² words)
//     lets every y-slab add the contribution of all lower y-slabs.
//  4. Route (index, count) pairs back to the owners of the original
//     indices.
//
// Exactness at slab boundaries relies on x-slabs partitioning by
// strict x order (distinct x) and y-slabs by strict y order (distinct
// y).
type Dominance2D struct {
	v   int
	n   int
	pts []Point
	wts []uint64
}

// NewDominance2D returns the program for points with weights on v
// VPs.
func NewDominance2D(pts []Point, weights []uint64, v int) (*Dominance2D, error) {
	if v <= 0 {
		return nil, fmt.Errorf("cgmgeom: v = %d, want > 0", v)
	}
	if len(weights) != len(pts) {
		return nil, fmt.Errorf("cgmgeom: %d points but %d weights", len(pts), len(weights))
	}
	return &Dominance2D{v: v, n: len(pts), pts: pts, wts: weights}, nil
}

func (p *Dominance2D) NumVPs() int { return p.v }

// Record layouts:
//
//	x-phase: enc(x), enc(y), weight, index            (W = 4)
//	y-phase: enc(y), xslab, weight, index, withinCnt  (W = 5)
const (
	domXW = 4
	domYW = 5
)

func (p *Dominance2D) maxRecs() int { return 3*cgm.MaxPart(p.n, p.v) + p.v }

func (p *Dominance2D) MaxContextWords() int {
	s := cgm.Sorter{W: domYW}
	return 4 + s.SaveSize(p.maxRecs(), p.v) + words.SizeUints(2*p.maxRecs()) + words.SizeUints(p.v) + words.SizeUints(domYW*p.maxRecs())
}

func (p *Dominance2D) MaxCommWords() int {
	s := cgm.Sorter{W: domYW}
	sortComm := s.CommWords(cgm.MaxPart(p.n, p.v), p.v)
	totalsComm := p.v*(p.v+1) + p.v
	routeComm := 2*p.maxRecs()*2 + p.v
	m := sortComm
	if totalsComm > m {
		m = totalsComm
	}
	if routeComm > m {
		m = routeComm
	}
	return m + 16
}

func (p *Dominance2D) NewVP(id int) bsp.VP {
	lo, hi := cgm.Dist(p.n, p.v, id)
	data := make([]uint64, 0, (hi-lo)*domXW)
	for i := lo; i < hi; i++ {
		data = append(data,
			cgm.EncodeFloat(p.pts[i].X),
			cgm.EncodeFloat(p.pts[i].Y),
			p.wts[i],
			uint64(i),
		)
	}
	return &domVP{p: p, sorter: cgm.Sorter{W: domXW, Data: data}}
}

const (
	domPhaseSortX  = 0
	domPhaseSortY  = 1
	domPhaseTotals = 2
	domPhaseRoute  = 3
	domPhaseDone   = 4
)

type domVP struct {
	p      *Dominance2D
	phase  uint64
	sorter cgm.Sorter
	yData  []uint64 // y-phase records awaiting totals: (y, xslab, w, idx, cnt)
	out    []uint64 // (idx, count) pairs for owned indices
}

// fenwick is a small Fenwick (binary indexed) tree over positions
// 1..n for prefix weight sums.
type fenwick []uint64

func newFenwick(n int) fenwick { return make(fenwick, n+1) }

func (f fenwick) add(i int, w uint64) {
	for i++; i < len(f); i += i & (-i) {
		f[i] += w
	}
}

// sum returns the total weight at positions < i (0-based exclusive).
func (f fenwick) sum(i int) uint64 {
	var s uint64
	for ; i > 0; i -= i & (-i) {
		s += f[i]
	}
	return s
}

func (vp *domVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	switch vp.phase {
	case domPhaseSortX:
		done, err := vp.sorter.Step(env, in)
		if err != nil {
			return false, err
		}
		if !done {
			return vp.sorter.Idle(), nil
		}
		// Within-slab counts: records are x-sorted; sweep in y order,
		// Fenwick over local x rank.
		data := vp.sorter.Data
		n := len(data) / domXW
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return data[order[a]*domXW+1] < data[order[b]*domXW+1] })
		f := newFenwick(n)
		within := make([]uint64, n)
		for _, i := range order {
			within[i] = f.sum(i) // strictly smaller x rank, already-seen => smaller y
			f.add(i, data[i*domXW+2])
		}
		env.Charge(int64(n) * 16)
		// Re-key for the y sort, tagging with this x-slab id.
		vp.sorter = cgm.Sorter{W: domYW, Data: make([]uint64, 0, n*domYW)}
		for i := 0; i < n; i++ {
			vp.sorter.Data = append(vp.sorter.Data,
				data[i*domXW+1],  // enc(y)
				uint64(env.ID()), // x-slab
				data[i*domXW+2],  // weight
				data[i*domXW+3],  // original index
				within[i],        // within-slab count so far
			)
		}
		vp.phase = domPhaseSortY
		return false, nil
	case domPhaseSortY:
		done, err := vp.sorter.Step(env, in)
		if err != nil {
			return false, err
		}
		if !done {
			return vp.sorter.Idle(), nil
		}
		// Sweep local records in y order, accumulating per-x-slab
		// weights: adds the same-y-slab, lower-x-slab contribution.
		data := vp.sorter.Data
		n := len(data) / domYW
		acc := make([]uint64, vp.p.v) // per-x-slab running totals
		for i := 0; i < n; i++ {
			xs := int(data[i*domYW+1])
			var below uint64
			for s := 0; s < xs; s++ {
				below += acc[s]
			}
			data[i*domYW+4] += below
			acc[xs] += data[i*domYW+2]
		}
		env.Charge(int64(n) * int64(vp.p.v))
		vp.yData = data
		vp.sorter.Data = nil
		// Broadcast this y-slab's per-x-slab totals to all VPs.
		payload := append([]uint64{uint64(env.ID())}, acc...)
		for d := 0; d < env.NumVPs(); d++ {
			env.Send(d, payload)
		}
		vp.phase = domPhaseTotals
		return false, nil
	case domPhaseTotals:
		// Sum the totals of all lower y-slabs, cumulative in x-slab.
		v := vp.p.v
		lower := make([]uint64, v) // per-x-slab totals of y-slabs < mine
		for _, m := range in {
			if int(m.Payload[0]) >= env.ID() {
				continue
			}
			for s := 0; s < v; s++ {
				lower[s] += m.Payload[1+s]
			}
		}
		// Prefix in x-slab: cum[t] = Σ_{s<t} lower[s].
		cum := make([]uint64, v+1)
		for s := 0; s < v; s++ {
			cum[s+1] = cum[s] + lower[s]
		}
		// Finalize counts and route them home, batched per owner.
		parts := make([][]uint64, v)
		n := len(vp.yData) / domYW
		for i := 0; i < n; i++ {
			xs := int(vp.yData[i*domYW+1])
			idx := vp.yData[i*domYW+3]
			cnt := vp.yData[i*domYW+4] + cum[xs]
			d := cgm.Owner(vp.p.n, v, int(idx))
			parts[d] = append(parts[d], idx, cnt)
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		env.Charge(int64(n) + int64(v)*int64(v))
		vp.yData = nil
		vp.phase = domPhaseRoute
		return false, nil
	case domPhaseRoute:
		for _, m := range in {
			vp.out = append(vp.out, m.Payload...)
		}
		vp.phase = domPhaseDone
		return true, nil
	default:
		return false, fmt.Errorf("cgmgeom: dominance VP stepped after completion")
	}
}

func (vp *domVP) Save(enc *words.Encoder) {
	enc.PutUint(vp.phase)
	vp.sorter.Save(enc)
	enc.PutUints(vp.yData)
	enc.PutUints(vp.out)
}

func (vp *domVP) Load(dec *words.Decoder) {
	vp.phase = dec.Uint()
	if vp.phase == domPhaseSortX {
		vp.sorter.W = domXW
	} else {
		vp.sorter.W = domYW
	}
	vp.sorter.Load(dec)
	vp.yData = dec.Uints()
	vp.out = dec.Uints()
}

// Output returns the dominance count per original point index.
func (p *Dominance2D) Output(vps []bsp.VP) []uint64 {
	out := make([]uint64, p.n)
	for _, vp := range vps {
		pairs := vp.(*domVP).out
		for i := 0; i+2 <= len(pairs); i += 2 {
			out[pairs[i]] = pairs[i+1]
		}
	}
	return out
}
