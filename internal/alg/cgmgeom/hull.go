package cgmgeom

import (
	"fmt"
	"math/bits"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/words"
)

// Hull2D computes the convex hull of n distinct points, standing in
// for the Table 1 "3D convex hull / 2D Voronoi diagram / Delaunay
// triangulation" family (see DESIGN.md §5: we use ⌈log₂ v⌉
// deterministic merge rounds instead of the cited randomized
// O(1)-round algorithm; the measured λ is reported alongside).
//
// Algorithm: global sort by (x, y); each VP reduces its slab to hull
// candidates (local upper+lower chains); candidates are then merged
// pairwise along a binomial tree — x-ranges are disjoint and ordered,
// so a merge is a concatenation followed by a monotone-chain rescan.
// VP 0 ends with the global hull.
type Hull2D struct {
	v   int
	n   int
	pts []Point
}

// NewHull2D returns the program for the given points on v VPs.
func NewHull2D(pts []Point, v int) (*Hull2D, error) {
	if v <= 0 {
		return nil, fmt.Errorf("cgmgeom: v = %d, want > 0", v)
	}
	return &Hull2D{v: v, n: len(pts), pts: pts}, nil
}

func (p *Hull2D) NumVPs() int { return p.v }

const hullRecW = 3 // enc(x), enc(y), index

// mergeRounds returns ⌈log₂ v⌉.
func (p *Hull2D) mergeRounds() int {
	return bits.Len(uint(p.v - 1))
}

func (p *Hull2D) MaxContextWords() int {
	// Hull candidates can reach the full point set in the worst case
	// (points in convex position all survive every merge).
	s := cgm.Sorter{W: hullRecW}
	return 4 + s.SaveSize(3*cgm.MaxPart(p.n, p.v)+p.v, p.v) + words.SizeUints(hullRecW*p.n) + words.SizeUints(2*p.n)
}

func (p *Hull2D) MaxCommWords() int {
	sortComm := 3*cgm.MaxPart(p.n, p.v)*hullRecW + p.v*(p.v*hullRecW+1) + p.v*((p.v-1)*hullRecW+1)
	mergeComm := hullRecW*p.n + 1
	if mergeComm > sortComm {
		return mergeComm + 16
	}
	return sortComm + 16
}

func (p *Hull2D) NewVP(id int) bsp.VP {
	lo, hi := cgm.Dist(p.n, p.v, id)
	data := make([]uint64, 0, (hi-lo)*hullRecW)
	for i := lo; i < hi; i++ {
		data = append(data,
			cgm.EncodeFloat(p.pts[i].X),
			cgm.EncodeFloat(p.pts[i].Y),
			uint64(i),
		)
	}
	return &hullVP{p: p, sorter: cgm.Sorter{W: hullRecW, Data: data}}
}

type hullVP struct {
	p      *Hull2D
	phase  uint64 // 0 = sorting, 1.. = merge round
	sorter cgm.Sorter
	cand   []uint64 // hull candidates, x-sorted records
	result []uint64 // hull indices in CCW order (VP 0 only)
}

// cross returns the z-component of (b-a) × (c-a).
func cross(ax, ay, bx, by, cx, cy float64) float64 {
	return (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
}

// chain computes one hull chain over x-sorted records: lower (keep
// counter-clockwise turns) if lower, else upper. It returns record
// indices into data. Collinear middle points are dropped.
func chain(data []uint64, lower bool) []int {
	n := len(data) / hullRecW
	var h []int
	at := func(i int) (float64, float64) {
		return cgm.DecodeFloat(data[i*hullRecW]), cgm.DecodeFloat(data[i*hullRecW+1])
	}
	for i := 0; i < n; i++ {
		cx, cy := at(i)
		for len(h) >= 2 {
			ax, ay := at(h[len(h)-2])
			bx, by := at(h[len(h)-1])
			c := cross(ax, ay, bx, by, cx, cy)
			if (lower && c > 0) || (!lower && c < 0) {
				break
			}
			h = h[:len(h)-1]
		}
		h = append(h, i)
	}
	return h
}

// hullCandidates reduces x-sorted records to the union of their upper
// and lower chains, preserving x order.
func hullCandidates(data []uint64) []uint64 {
	n := len(data) / hullRecW
	if n <= 2 {
		return data
	}
	keep := make([]bool, n)
	for _, i := range chain(data, true) {
		keep[i] = true
	}
	for _, i := range chain(data, false) {
		keep[i] = true
	}
	out := make([]uint64, 0, len(data))
	for i := 0; i < n; i++ {
		if keep[i] {
			out = append(out, data[i*hullRecW:(i+1)*hullRecW]...)
		}
	}
	return out
}

func (vp *hullVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	if vp.phase == 0 {
		done, err := vp.sorter.Step(env, in)
		if err != nil {
			return false, err
		}
		if !done {
			return vp.sorter.Idle(), nil
		}
		vp.cand = hullCandidates(vp.sorter.Data)
		chargeHull(env, len(vp.sorter.Data)/hullRecW)
		vp.sorter.Data = nil
		vp.phase = 1
		vp.maybeSend(env, 1)
		return false, nil
	}
	round := int(vp.phase) // the inbox holds this round's candidates
	// Merge candidates received from this round's partner (if any):
	// slabs are x-ordered and our slab precedes the partner's, so
	// concatenation keeps x order.
	for _, m := range in {
		vp.cand = append(vp.cand, m.Payload...)
	}
	if len(in) > 0 {
		vp.cand = hullCandidates(vp.cand)
		chargeHull(env, len(vp.cand)/hullRecW)
	}
	if round >= vp.p.mergeRounds() {
		if env.ID() == 0 {
			vp.result = finalizeHull(vp.cand)
		}
		vp.cand = nil
		return true, nil
	}
	vp.maybeSend(env, round+1)
	vp.phase++
	return false, nil
}

// maybeSend ships this VP's candidates to its binomial-tree parent in
// the given merge round.
func (vp *hullVP) maybeSend(env *bsp.Env, round int) {
	stride := 1 << round
	half := stride >> 1
	if env.ID()%stride == half {
		if len(vp.cand) > 0 {
			env.Send(env.ID()-half, vp.cand)
		}
		vp.cand = nil
	}
}

func chargeHull(env *bsp.Env, n int) {
	if n > 0 {
		env.Charge(int64(n) * 4)
	}
}

// finalizeHull turns x-sorted hull candidates into the hull vertex
// sequence in counter-clockwise order, starting at the leftmost point.
func finalizeHull(data []uint64) []uint64 {
	n := len(data) / hullRecW
	if n == 0 {
		return nil
	}
	if n <= 2 {
		out := make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, data[i*hullRecW+2])
		}
		return out
	}
	lower := chain(data, true)
	upper := chain(data, false)
	out := make([]uint64, 0, len(lower)+len(upper)-2)
	for _, i := range lower {
		out = append(out, data[i*hullRecW+2])
	}
	for j := len(upper) - 2; j >= 1; j-- {
		out = append(out, data[upper[j]*hullRecW+2])
	}
	return out
}

func (vp *hullVP) Save(enc *words.Encoder) {
	enc.PutUint(vp.phase)
	vp.sorter.Save(enc)
	enc.PutUints(vp.cand)
	enc.PutUints(vp.result)
}

func (vp *hullVP) Load(dec *words.Decoder) {
	vp.phase = dec.Uint()
	vp.sorter.W = hullRecW
	vp.sorter.Load(dec)
	vp.cand = dec.Uints()
	vp.result = dec.Uints()
}

// Output returns the hull vertex indices in counter-clockwise order,
// starting at the leftmost point.
func (p *Hull2D) Output(vps []bsp.VP) []int {
	raw := vps[0].(*hullVP).result
	out := make([]int, len(raw))
	for i, u := range raw {
		out[i] = int(u)
	}
	return out
}

// Lambda returns the supersteps this program takes: sort plus one
// superstep per merge round (with a minimum of one finalization
// superstep).
func (p *Hull2D) Lambda() int { return cgm.SorterSupersteps + maxIntGeom(1, p.mergeRounds()) }

func maxIntGeom(a, b int) int {
	if a > b {
		return a
	}
	return b
}
