package cgmgeom

import (
	"fmt"
	"math"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/words"
)

// Separability decides linear separability of two planar point sets
// (the Table 1 "Uni- and multi-directional separability" row): A and
// B are separable by a line iff their convex hulls are disjoint, and
// the set of separating directions is determined by the hulls. The
// program computes both hulls with the binomial-tree merge used by
// Hull2D (points tagged by set, λ = O(log v)) and VP 0 decides
// disjointness with a sequential convex-polygon intersection test on
// the two (typically tiny) hulls.
type Separability struct {
	v int
	a []Point
	b []Point
}

// NewSeparability returns the program for the two point sets.
func NewSeparability(a, b []Point, v int) (*Separability, error) {
	if v <= 0 {
		return nil, fmt.Errorf("cgmgeom: v = %d, want > 0", v)
	}
	if len(a) == 0 || len(b) == 0 {
		return nil, fmt.Errorf("cgmgeom: both point sets must be non-empty")
	}
	return &Separability{v: v, a: a, b: b}, nil
}

func (p *Separability) NumVPs() int { return p.v }

const sepRecW = 4 // enc(x), enc(y), set tag, index

func (p *Separability) n() int { return len(p.a) + len(p.b) }

func (p *Separability) MaxContextWords() int {
	s := cgm.Sorter{W: sepRecW}
	return 8 + s.SaveSize(3*cgm.MaxPart(p.n(), p.v)+p.v, p.v) + words.SizeUints(sepRecW*p.n())
}

func (p *Separability) MaxCommWords() int {
	sortComm := 3*cgm.MaxPart(p.n(), p.v)*sepRecW + p.v*(p.v*sepRecW+1) + p.v*((p.v-1)*sepRecW+1)
	mergeComm := sepRecW*p.n() + 16
	if mergeComm > sortComm {
		return mergeComm
	}
	return sortComm + 16
}

func (p *Separability) NewVP(id int) bsp.VP {
	lo, hi := cgm.Dist(p.n(), p.v, id)
	data := make([]uint64, 0, (hi-lo)*sepRecW)
	for i := lo; i < hi; i++ {
		var pt Point
		var tag uint64
		if i < len(p.a) {
			pt = p.a[i]
		} else {
			pt, tag = p.b[i-len(p.a)], 1
		}
		data = append(data, cgm.EncodeFloat(pt.X), cgm.EncodeFloat(pt.Y), tag, uint64(i))
	}
	return &sepVP{p: p, sorter: cgm.Sorter{W: sepRecW, Data: data}}
}

type sepVP struct {
	p         *Separability
	phase     uint64 // 0 sorting, then merge rounds as in Hull2D
	sorter    cgm.Sorter
	cand      []uint64 // x-sorted hull candidates of both sets
	separable uint64   // 1 = separable, valid at VP 0 when done
}

// sepCandidates keeps each set's hull candidates, preserving x order.
func sepCandidates(data []uint64) []uint64 {
	// Split by tag, reduce each to hull candidates, merge back by x.
	var a, b []uint64
	n := len(data) / sepRecW
	for i := 0; i < n; i++ {
		rec := data[i*sepRecW : (i+1)*sepRecW]
		if rec[2] == 0 {
			a = append(a, rec...)
		} else {
			b = append(b, rec...)
		}
	}
	a = hullCandidatesW(a, sepRecW)
	b = hullCandidatesW(b, sepRecW)
	// Merge by the encoded x key to restore global x order.
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i == len(a):
			out = append(out, b[j:j+sepRecW]...)
			j += sepRecW
		case j == len(b):
			out = append(out, a[i:i+sepRecW]...)
			i += sepRecW
		case a[i] <= b[j]:
			out = append(out, a[i:i+sepRecW]...)
			i += sepRecW
		default:
			out = append(out, b[j:j+sepRecW]...)
			j += sepRecW
		}
	}
	return out
}

// hullCandidatesW generalizes hullCandidates to records of width w
// whose first two words are the encoded coordinates.
func hullCandidatesW(data []uint64, w int) []uint64 {
	n := len(data) / w
	if n <= 2 {
		return data
	}
	at := func(i int) (float64, float64) {
		return cgm.DecodeFloat(data[i*w]), cgm.DecodeFloat(data[i*w+1])
	}
	build := func(lower bool) []int {
		var h []int
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
	keep := make([]bool, n)
	for _, i := range build(true) {
		keep[i] = true
	}
	for _, i := range build(false) {
		keep[i] = true
	}
	out := make([]uint64, 0, len(data))
	for i := 0; i < n; i++ {
		if keep[i] {
			out = append(out, data[i*w:(i+1)*w]...)
		}
	}
	return out
}

func (vp *sepVP) mergeRounds() int {
	r := 0
	for v := 1; v < vp.p.v; v <<= 1 {
		r++
	}
	return r
}

func (vp *sepVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	if vp.phase == 0 {
		done, err := vp.sorter.Step(env, in)
		if err != nil {
			return false, err
		}
		if !done {
			return vp.sorter.Idle(), nil
		}
		vp.cand = sepCandidates(vp.sorter.Data)
		env.Charge(int64(len(vp.sorter.Data) / sepRecW * 4))
		vp.sorter.Data = nil
		vp.phase = 1
		vp.maybeSend(env, 1)
		return false, nil
	}
	round := int(vp.phase)
	for _, m := range in {
		vp.cand = append(vp.cand, m.Payload...)
	}
	if len(in) > 0 {
		// Received candidates come from higher-x slabs; re-establish x
		// order by a merge-style pass, then reduce.
		cgm.SortRecords(vp.cand, sepRecW)
		vp.cand = sepCandidates(vp.cand)
		env.Charge(int64(len(vp.cand) / sepRecW * 8))
	}
	if round >= vp.mergeRounds() {
		if env.ID() == 0 {
			vp.separable = 0
			if hullsDisjoint(vp.cand) {
				vp.separable = 1
			}
			env.Charge(int64(len(vp.cand)))
		}
		vp.cand = nil
		return true, nil
	}
	stride := 1 << (round + 1)
	half := stride >> 1
	if env.ID()%stride == half {
		if len(vp.cand) > 0 {
			env.Send(env.ID()-half, vp.cand)
		}
		vp.cand = nil
	}
	vp.phase++
	return false, nil
}

// maybeSend ships candidates to the binomial-tree parent for round r.
func (vp *sepVP) maybeSend(env *bsp.Env, round int) {
	stride := 1 << round
	half := stride >> 1
	if env.ID()%stride == half {
		if len(vp.cand) > 0 {
			env.Send(env.ID()-half, vp.cand)
		}
		vp.cand = nil
	}
}

// hullsDisjoint tests whether the convex hulls of the two tagged
// candidate sets are disjoint, via separating-axis testing over the
// edge normals of both hulls (exact for convex polygons; degenerate
// hulls — points and segments — included).
func hullsDisjoint(cand []uint64) bool {
	var a, b []Point
	n := len(cand) / sepRecW
	for i := 0; i < n; i++ {
		pt := Point{cgm.DecodeFloat(cand[i*sepRecW]), cgm.DecodeFloat(cand[i*sepRecW+1])}
		if cand[i*sepRecW+2] == 0 {
			a = append(a, pt)
		} else {
			b = append(b, pt)
		}
	}
	ha, hb := hullOf(a), hullOf(b)
	axes := append(polyAxes(ha), polyAxes(hb)...)
	if len(ha) == 1 && len(hb) == 1 {
		axes = append(axes, Point{1, 0}, Point{0, 1})
	}
	for _, ax := range axes {
		minA, maxA := project(ha, ax)
		minB, maxB := project(hb, ax)
		if maxA < minB || maxB < minA {
			return true
		}
	}
	return false
}

// polyAxes returns the separating-axis candidates a convex polygon
// contributes: its edge normals, plus — for a degenerate segment —
// its direction (needed for collinear configurations).
func polyAxes(h []Point) []Point {
	switch {
	case len(h) >= 3:
		return edgeNormals(h)
	case len(h) == 2:
		dx, dy := h[1].X-h[0].X, h[1].Y-h[0].Y
		return []Point{{-dy, dx}, {dx, dy}}
	default:
		return nil
	}
}

func hullOf(pts []Point) []Point {
	if len(pts) <= 2 {
		return pts
	}
	flat := make([]uint64, 0, 3*len(pts))
	for i, p := range pts {
		flat = append(flat, cgm.EncodeFloat(p.X), cgm.EncodeFloat(p.Y), uint64(i))
	}
	cgm.SortRecords(flat, 3)
	lower := chain(flat, true)
	upper := chain(flat, false)
	var out []Point
	for _, i := range lower {
		out = append(out, Point{cgm.DecodeFloat(flat[i*3]), cgm.DecodeFloat(flat[i*3+1])})
	}
	for j := len(upper) - 2; j >= 1; j-- {
		i := upper[j]
		out = append(out, Point{cgm.DecodeFloat(flat[i*3]), cgm.DecodeFloat(flat[i*3+1])})
	}
	return out
}

func edgeNormals(h []Point) []Point {
	if len(h) < 3 {
		return nil
	}
	out := make([]Point, 0, len(h))
	for i := range h {
		j := (i + 1) % len(h)
		out = append(out, Point{-(h[j].Y - h[i].Y), h[j].X - h[i].X})
	}
	return out
}

func project(h []Point, ax Point) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, p := range h {
		d := p.X*ax.X + p.Y*ax.Y
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	return lo, hi
}

func (vp *sepVP) Save(enc *words.Encoder) {
	enc.PutUint(vp.phase)
	enc.PutUint(vp.separable)
	vp.sorter.Save(enc)
	enc.PutUints(vp.cand)
}

func (vp *sepVP) Load(dec *words.Decoder) {
	vp.phase = dec.Uint()
	vp.separable = dec.Uint()
	vp.sorter.W = sepRecW
	vp.sorter.Load(dec)
	vp.cand = dec.Uints()
}

// Output reports whether the two sets are linearly separable.
func (p *Separability) Output(vps []bsp.VP) bool {
	return vps[0].(*sepVP).separable == 1
}
