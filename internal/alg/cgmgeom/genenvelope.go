package cgmgeom

import (
	"fmt"
	"math"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/words"
)

// GenEnvelope computes the lower envelope of n line segments that MAY
// intersect (the Table 1 "Generalized lower envelope of line
// segments" row, whose output complexity is the Davenport–Schinzel
// bound O(n·α(n))): for each covered x, the segment of minimum y.
//
// CGM algorithm (λ = O(1) rounds): the Envelope slab protocol —
// balanced x-slabs from the sorted endpoint keys, segments replicated
// into overlapped slabs, ordered gather of pieces at VP 0 — with a
// divide-and-conquer local phase: each slab recursively merges
// envelopes of segment halves, splitting pieces at pairwise line
// crossings.
type GenEnvelope struct {
	v    int
	n    int
	segs []Segment
}

// NewGenEnvelope returns the program for the given segments on v VPs.
// Segments must satisfy X1 < X2 (no vertical segments) but may cross.
func NewGenEnvelope(segs []Segment, v int) (*GenEnvelope, error) {
	if v <= 0 {
		return nil, fmt.Errorf("cgmgeom: v = %d, want > 0", v)
	}
	for i, s := range segs {
		if !(s.X1 < s.X2) {
			return nil, fmt.Errorf("cgmgeom: segment %d has X1 >= X2", i)
		}
	}
	return &GenEnvelope{v: v, n: len(segs), segs: segs}, nil
}

func (p *GenEnvelope) NumVPs() int { return p.v }

func (p *GenEnvelope) MaxContextWords() int {
	maxKeys := 2 * cgm.MaxPart(p.n, p.v)
	sl := Slabber{}
	// Piece counts are O(n·α(n)); budget a generous linear multiple.
	return 4 + sl.SaveSize(3*maxKeys+p.v, p.v) + words.SizeUints(5*cgm.MaxPart(p.n, p.v)) + words.SizeUints(16*p.n+64)
}

func (p *GenEnvelope) MaxCommWords() int {
	maxKeys := 2 * cgm.MaxPart(p.n, p.v)
	sortComm := 3*maxKeys + p.v*(p.v+1) + p.v*p.v
	replicate := 5 * cgm.MaxPart(p.n, p.v) * p.v
	recv := 5*p.n + p.v
	pieces := 16*p.n + 64
	m := sortComm
	for _, c := range []int{replicate, recv, pieces} {
		if c > m {
			m = c
		}
	}
	return m + p.v + 16
}

func (p *GenEnvelope) NewVP(id int) bsp.VP {
	lo, hi := cgm.Dist(p.n, p.v, id)
	keys := make([]uint64, 0, 2*(hi-lo))
	mine := make([]uint64, 0, 5*(hi-lo))
	for i := lo; i < hi; i++ {
		s := p.segs[i]
		keys = append(keys, cgm.EncodeFloat(s.X1), cgm.EncodeFloat(s.X2))
		mine = append(mine,
			math.Float64bits(s.X1), math.Float64bits(s.Y1),
			math.Float64bits(s.X2), math.Float64bits(s.Y2),
			uint64(i))
	}
	return &genEnvVP{p: p, slab: Slabber{Data: keys}, mine: mine}
}

type genEnvVP struct {
	p      *GenEnvelope
	phase  uint64
	slab   Slabber
	mine   []uint64
	pieces []uint64 // final glued pieces at VP 0: (x1 bits, x2 bits, idx)
}

// envPiece is one piece of a lower envelope during the local merge:
// on [x1, x2) segment seg (or -1 for a gap) is lowest.
type envPiece struct {
	x1, x2 float64
	seg    int
}

// segLine evaluates segment s (by original coordinates) at x.
func segLine(s Segment, x float64) float64 {
	return s.Y1 + (s.Y2-s.Y1)*(x-s.X1)/(s.X2-s.X1)
}

// mergeEnvelopes computes the pointwise minimum of two envelopes that
// cover the same interval, splitting at line crossings. segs supplies
// coordinates by original index.
func mergeEnvelopes(a, b []envPiece, segAt func(int) Segment) []envPiece {
	var out []envPiece
	emit := func(p envPiece) {
		if p.x1 >= p.x2 {
			return
		}
		if n := len(out); n > 0 && out[n-1].seg == p.seg && out[n-1].x2 == p.x1 {
			out[n-1].x2 = p.x2
			return
		}
		out = append(out, p)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		l := math.Max(a[i].x1, b[j].x1)
		r := math.Min(a[i].x2, b[j].x2)
		sa, sb := a[i].seg, b[j].seg
		switch {
		case l >= r:
		case sa < 0 && sb < 0:
			emit(envPiece{l, r, -1})
		case sa < 0:
			emit(envPiece{l, r, sb})
		case sb < 0:
			emit(envPiece{l, r, sa})
		default:
			ya1, yb1 := segLine(segAt(sa), l), segLine(segAt(sb), l)
			ya2, yb2 := segLine(segAt(sa), r), segLine(segAt(sb), r)
			lowAtL := sa
			if yb1 < ya1 || (yb1 == ya1 && sb < sa) {
				lowAtL = sb
			}
			lowAtR := sa
			if yb2 < ya2 || (yb2 == ya2 && sb < sa) {
				lowAtR = sb
			}
			switch {
			case lowAtL == lowAtR:
				emit(envPiece{l, r, lowAtL})
			case ya1 == yb1:
				emit(envPiece{l, r, lowAtR})
			case ya2 == yb2:
				emit(envPiece{l, r, lowAtL})
			default:
				// A proper crossing inside (l, r): intersect the lines.
				A, B := segAt(sa), segAt(sb)
				ma := (A.Y2 - A.Y1) / (A.X2 - A.X1)
				mb := (B.Y2 - B.Y1) / (B.X2 - B.X1)
				ca := A.Y1 - ma*A.X1
				cb := B.Y1 - mb*B.X1
				x := (cb - ca) / (ma - mb)
				if !(x > l && x < r) {
					// Numerical degeneracy: fall back to the midpoint.
					x = l + (r-l)/2
				}
				emit(envPiece{l, x, lowAtL})
				emit(envPiece{x, r, lowAtR})
			}
		}
		if a[i].x2 <= b[j].x2 {
			i++
		} else {
			j++
		}
	}
	return out
}

// envelopeOf computes the lower envelope of the given segment indices
// over [lo, hi] by divide and conquer.
func envelopeOf(idxs []int, lo, hi float64, segAt func(int) Segment) []envPiece {
	if len(idxs) == 0 {
		return []envPiece{{lo, hi, -1}}
	}
	if len(idxs) == 1 {
		s := segAt(idxs[0])
		x1, x2 := math.Max(s.X1, lo), math.Min(s.X2, hi)
		var out []envPiece
		if lo < x1 {
			out = append(out, envPiece{lo, x1, -1})
		}
		if x1 < x2 {
			out = append(out, envPiece{x1, x2, idxs[0]})
		}
		if math.Max(x1, x2) < hi {
			out = append(out, envPiece{math.Max(x1, x2), hi, -1})
		}
		if len(out) == 0 {
			out = append(out, envPiece{lo, hi, -1})
		}
		return out
	}
	mid := len(idxs) / 2
	return mergeEnvelopes(
		envelopeOf(idxs[:mid], lo, hi, segAt),
		envelopeOf(idxs[mid:], lo, hi, segAt),
		segAt,
	)
}

func (vp *genEnvVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	switch vp.phase {
	case envPhaseSlab:
		done, err := vp.slab.Step(env, in)
		if err != nil {
			return false, err
		}
		if !done {
			return vp.slab.Idle(), nil
		}
		parts := make([][]uint64, env.NumVPs())
		for i := 0; i+5 <= len(vp.mine); i += 5 {
			x1 := math.Float64frombits(vp.mine[i])
			x2 := math.Float64frombits(vp.mine[i+2])
			lo, hi := SlabRange(vp.slab.Bounds, cgm.EncodeFloat(x1), cgm.EncodeFloat(x2))
			for s := lo; s <= hi; s++ {
				parts[s] = append(parts[s], vp.mine[i:i+5]...)
			}
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		env.Charge(int64(len(vp.mine)))
		vp.mine = nil
		vp.phase = envPhaseSweep
		return false, nil

	case envPhaseSweep:
		pieces := vp.localEnvelope(env, in)
		if len(pieces) > 0 {
			env.Send(0, pieces)
		}
		vp.phase = envPhaseGlue
		return false, nil

	case envPhaseGlue:
		if env.ID() == 0 {
			var all []uint64
			for _, m := range in {
				all = append(all, m.Payload...)
			}
			for i := 0; i+3 <= len(all); i += 3 {
				n := len(vp.pieces)
				if n >= 3 && vp.pieces[n-1] == all[i+2] && vp.pieces[n-2] == all[i] {
					vp.pieces[n-2] = all[i+1]
					continue
				}
				vp.pieces = append(vp.pieces, all[i:i+3]...)
			}
			env.Charge(int64(len(all)))
		}
		vp.phase = 3
		return true, nil

	default:
		return false, fmt.Errorf("cgmgeom: generalized-envelope VP stepped after completion")
	}
}

// localEnvelope computes the envelope pieces within this VP's strip.
func (vp *genEnvVP) localEnvelope(env *bsp.Env, in []bsp.Message) []uint64 {
	id := env.ID()
	slabLo := math.Inf(-1)
	if id > 0 {
		slabLo = BoundFloat(vp.slab.Bounds[id])
	}
	slabHi := math.Inf(1)
	if id < env.NumVPs()-1 {
		slabHi = BoundFloat(vp.slab.Bounds[id+1])
	}
	segMap := map[int]Segment{}
	var idxs []int
	for _, m := range in {
		for i := 0; i+5 <= len(m.Payload); i += 5 {
			s := Segment{
				X1: math.Float64frombits(m.Payload[i]),
				Y1: math.Float64frombits(m.Payload[i+1]),
				X2: math.Float64frombits(m.Payload[i+2]),
				Y2: math.Float64frombits(m.Payload[i+3]),
			}
			idx := int(m.Payload[i+4])
			if _, dup := segMap[idx]; !dup {
				segMap[idx] = s
				idxs = append(idxs, idx)
			}
		}
	}
	if len(idxs) == 0 {
		return nil
	}
	// Clamp the infinite strip edges using the extreme coordinates.
	if math.IsInf(slabLo, -1) || math.IsInf(slabHi, 1) {
		lo2, hi2 := math.Inf(1), math.Inf(-1)
		for _, i := range idxs {
			lo2 = math.Min(lo2, segMap[i].X1)
			hi2 = math.Max(hi2, segMap[i].X2)
		}
		if math.IsInf(slabLo, -1) {
			slabLo = lo2
		}
		if math.IsInf(slabHi, 1) {
			slabHi = hi2
		}
	}
	if !(slabLo < slabHi) {
		return nil
	}
	segAt := func(i int) Segment { return segMap[i] }
	pieces := envelopeOf(idxs, slabLo, slabHi, segAt)
	envCost := int64(len(idxs)) * int64(len(pieces)+1)
	env.Charge(envCost)
	var out []uint64
	for _, p := range pieces {
		if p.seg < 0 || p.x1 >= p.x2 {
			continue
		}
		n := len(out)
		if n >= 3 && out[n-1] == uint64(p.seg) && math.Float64frombits(out[n-2]) == p.x1 {
			out[n-2] = math.Float64bits(p.x2)
			continue
		}
		out = append(out, math.Float64bits(p.x1), math.Float64bits(p.x2), uint64(p.seg))
	}
	return out
}

func (vp *genEnvVP) Save(enc *words.Encoder) {
	enc.PutUint(vp.phase)
	vp.slab.Save(enc)
	enc.PutUints(vp.mine)
	enc.PutUints(vp.pieces)
}

func (vp *genEnvVP) Load(dec *words.Decoder) {
	vp.phase = dec.Uint()
	vp.slab.Load(dec)
	vp.mine = dec.Uints()
	vp.pieces = dec.Uints()
}

// Output returns the envelope pieces in x order.
func (p *GenEnvelope) Output(vps []bsp.VP) []EnvelopePiece {
	raw := vps[0].(*genEnvVP).pieces
	out := make([]EnvelopePiece, 0, len(raw)/3)
	for i := 0; i+3 <= len(raw); i += 3 {
		out = append(out, EnvelopePiece{
			X1:  math.Float64frombits(raw[i]),
			X2:  math.Float64frombits(raw[i+1]),
			Seg: int(raw[i+2]),
		})
	}
	return out
}
