package cgmgeom

import (
	"fmt"
	"math"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/words"
)

// NextElement solves batched next-element search by vertical ray
// shooting (the Table 1 "Next element search on line segments" row,
// the core of trapezoidal decomposition and batched planar point
// location): given n horizontal segments and q query points, find for
// every query the segment directly above it — the segment of minimal
// y > qy whose x-extent covers qx — and, dually, the segment directly
// below it. Together the two answers locate each query point's
// trapezoid in the decomposition induced by the segments.
//
// CGM algorithm (λ = O(1) rounds): balanced x-slabs from the sorted
// segment-endpoint and query keys (Slabber), segments replicated into
// overlapped slabs, queries routed to their slab, a local scan per
// slab, and answers routed back to the query owners.
type NextElement struct {
	v       int
	segs    []HSegment
	queries []Point
}

// HSegment is a horizontal segment [X1, X2] at height Y.
type HSegment struct {
	X1, X2, Y float64
}

// NewNextElement returns the program for segments and queries on v
// VPs.
func NewNextElement(segs []HSegment, queries []Point, v int) (*NextElement, error) {
	if v <= 0 {
		return nil, fmt.Errorf("cgmgeom: v = %d, want > 0", v)
	}
	for i, s := range segs {
		if s.X1 > s.X2 {
			return nil, fmt.Errorf("cgmgeom: segment %d inverted", i)
		}
	}
	return &NextElement{v: v, segs: segs, queries: queries}, nil
}

func (p *NextElement) NumVPs() int { return p.v }

func (p *NextElement) MaxContextWords() int {
	maxKeys := 2*cgm.MaxPart(len(p.segs), p.v) + cgm.MaxPart(len(p.queries), p.v)
	sl := Slabber{}
	n, q := len(p.segs), len(p.queries)
	return 6 + sl.SaveSize(3*maxKeys+p.v, p.v) +
		words.SizeUints(4*cgm.MaxPart(n, p.v)) + // own segments
		words.SizeUints(3*cgm.MaxPart(q, p.v)) + // own queries
		words.SizeUints(4*n+3*q) + // worst-case slab load
		words.SizeUints(2*cgm.MaxPart(q, p.v)) // answers
}

func (p *NextElement) MaxCommWords() int {
	n, q := len(p.segs), len(p.queries)
	maxKeys := 2*cgm.MaxPart(n, p.v) + cgm.MaxPart(q, p.v)
	sortComm := 3*maxKeys + p.v*(p.v+1) + p.v*p.v
	replicate := (4*cgm.MaxPart(n, p.v)+3*cgm.MaxPart(q, p.v))*p.v + p.v
	recv := 4*n + 3*q + p.v
	answers := 3*q + p.v
	m := sortComm
	for _, c := range []int{replicate, recv, answers} {
		if c > m {
			m = c
		}
	}
	return m + 16
}

func (p *NextElement) NewVP(id int) bsp.VP {
	slo, shi := cgm.Dist(len(p.segs), p.v, id)
	qlo, qhi := cgm.Dist(len(p.queries), p.v, id)
	keys := make([]uint64, 0, 2*(shi-slo)+(qhi-qlo))
	segs := make([]uint64, 0, 4*(shi-slo))
	qs := make([]uint64, 0, 3*(qhi-qlo))
	for i := slo; i < shi; i++ {
		s := p.segs[i]
		keys = append(keys, cgm.EncodeFloat(s.X1), cgm.EncodeFloat(s.X2))
		segs = append(segs, math.Float64bits(s.X1), math.Float64bits(s.X2), math.Float64bits(s.Y), uint64(i))
	}
	for i := qlo; i < qhi; i++ {
		pt := p.queries[i]
		keys = append(keys, cgm.EncodeFloat(pt.X))
		qs = append(qs, math.Float64bits(pt.X), math.Float64bits(pt.Y), uint64(i))
	}
	return &nextVP{p: p, slab: Slabber{Data: keys}, segs: segs, queries: qs}
}

const (
	nextPhaseSlab    = 0
	nextPhaseScan    = 1
	nextPhaseCollect = 2
)

type nextVP struct {
	p       *NextElement
	phase   uint64
	slab    Slabber
	segs    []uint64 // own, then slab segments: (x1, x2, y, idx)
	queries []uint64 // own, then slab queries: (x, y, idx)
	answers []uint64 // owned (queryIdx, segIdx) pairs
}

// segTag distinguishes segment from query payloads in the
// distribution superstep.
const (
	tagSegs    = 0
	tagQueries = 1
)

func (vp *nextVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	switch vp.phase {
	case nextPhaseSlab:
		done, err := vp.slab.Step(env, in)
		if err != nil {
			return false, err
		}
		if !done {
			return vp.slab.Idle(), nil
		}
		v := env.NumVPs()
		segParts := make([][]uint64, v)
		for i := 0; i+4 <= len(vp.segs); i += 4 {
			x1 := math.Float64frombits(vp.segs[i])
			x2 := math.Float64frombits(vp.segs[i+1])
			lo, hi := SlabRange(vp.slab.Bounds, cgm.EncodeFloat(x1), cgm.EncodeFloat(x2))
			for s := lo; s <= hi; s++ {
				segParts[s] = append(segParts[s], vp.segs[i:i+4]...)
			}
		}
		qParts := make([][]uint64, v)
		for i := 0; i+3 <= len(vp.queries); i += 3 {
			x := math.Float64frombits(vp.queries[i])
			s := SlabOf(vp.slab.Bounds, cgm.EncodeFloat(x))
			qParts[s] = append(qParts[s], vp.queries[i:i+3]...)
		}
		for d := 0; d < v; d++ {
			if len(segParts[d]) > 0 {
				env.Send(d, append([]uint64{tagSegs}, segParts[d]...))
			}
			if len(qParts[d]) > 0 {
				env.Send(d, append([]uint64{tagQueries}, qParts[d]...))
			}
		}
		env.Charge(int64(len(vp.segs) + len(vp.queries)))
		vp.segs, vp.queries = nil, nil
		vp.phase = nextPhaseScan
		return false, nil
	case nextPhaseScan:
		var segs, queries []uint64
		for _, m := range in {
			switch m.Payload[0] {
			case tagSegs:
				segs = append(segs, m.Payload[1:]...)
			case tagQueries:
				queries = append(queries, m.Payload[1:]...)
			default:
				return false, fmt.Errorf("cgmgeom: unknown payload tag %d", m.Payload[0])
			}
		}
		parts := make([][]uint64, env.NumVPs())
		for i := 0; i+3 <= len(queries); i += 3 {
			qx := math.Float64frombits(queries[i])
			qy := math.Float64frombits(queries[i+1])
			qidx := queries[i+2]
			aboveIdx := ^uint64(0)
			aboveY := math.Inf(1)
			belowIdx := ^uint64(0)
			belowY := math.Inf(-1)
			for j := 0; j+4 <= len(segs); j += 4 {
				x1 := math.Float64frombits(segs[j])
				x2 := math.Float64frombits(segs[j+1])
				y := math.Float64frombits(segs[j+2])
				idx := segs[j+3]
				if x1 <= qx && qx <= x2 {
					if y > qy && (y < aboveY || (y == aboveY && idx < aboveIdx)) {
						aboveY, aboveIdx = y, idx
					}
					if y < qy && (y > belowY || (y == belowY && idx < belowIdx)) {
						belowY, belowIdx = y, idx
					}
				}
			}
			d := cgm.Owner(len(vp.p.queries), vp.p.v, int(qidx))
			parts[d] = append(parts[d], qidx, aboveIdx, belowIdx)
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		env.Charge(int64(len(queries)/3) * int64(len(segs)/4+1))
		vp.phase = nextPhaseCollect
		return false, nil
	case nextPhaseCollect:
		for _, m := range in {
			vp.answers = append(vp.answers, m.Payload...)
		}
		vp.phase = 3
		return true, nil // answers are (qidx, above, below) triples
	default:
		return false, fmt.Errorf("cgmgeom: next-element VP stepped after completion")
	}
}

func (vp *nextVP) Save(enc *words.Encoder) {
	enc.PutUint(vp.phase)
	vp.slab.Save(enc)
	enc.PutUints(vp.segs)
	enc.PutUints(vp.queries)
	enc.PutUints(vp.answers)
}

func (vp *nextVP) Load(dec *words.Decoder) {
	vp.phase = dec.Uint()
	vp.slab.Load(dec)
	vp.segs = dec.Uints()
	vp.queries = dec.Uints()
	vp.answers = dec.Uints()
}

// Output returns, per query index, the index of the segment directly
// above it, or -1 if none.
func (p *NextElement) Output(vps []bsp.VP) []int {
	above, _ := p.Trapezoids(vps)
	return above
}

// Trapezoids returns, per query index, the segments directly above
// and directly below the point (-1 where none): the query point's
// trapezoid in the decomposition induced by the segments.
func (p *NextElement) Trapezoids(vps []bsp.VP) (above, below []int) {
	above = make([]int, len(p.queries))
	below = make([]int, len(p.queries))
	for i := range above {
		above[i], below[i] = -1, -1
	}
	dec := func(u uint64) int {
		if u == ^uint64(0) {
			return -1
		}
		return int(u)
	}
	for _, vp := range vps {
		ans := vp.(*nextVP).answers
		for i := 0; i+3 <= len(ans); i += 3 {
			above[ans[i]] = dec(ans[i+1])
			below[ans[i]] = dec(ans[i+2])
		}
	}
	return above, below
}
