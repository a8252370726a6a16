package cgmgeom

import (
	"fmt"
	"math"
	"sort"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/words"
)

// EnvelopePiece is one maximal x-interval [X1, X2) on which segment
// Seg forms the lower envelope.
type EnvelopePiece struct {
	X1, X2 float64
	Seg    int
}

// Envelope computes the lower envelope of n non-intersecting line
// segments (the Table 1 "Lower envelope of non-intersecting line
// segments" row): for each x covered by at least one segment, the
// segment of minimum y at x. The output is the ordered piece list.
//
// CGM algorithm (λ = O(1) rounds): balanced x-slabs from the sorted
// 2n endpoint keys (Slabber), segments replicated into overlapped
// slabs, a local elementary-interval sweep per slab (between
// consecutive endpoint x-values the envelope is a single segment,
// because segments do not cross), and an ordered gather of the pieces
// at VP 0.
type Envelope struct {
	v    int
	n    int
	segs []Segment
}

// NewEnvelope returns the program for the given segments on v VPs.
// Segments must satisfy X1 < X2 (no vertical segments).
func NewEnvelope(segs []Segment, v int) (*Envelope, error) {
	if v <= 0 {
		return nil, fmt.Errorf("cgmgeom: v = %d, want > 0", v)
	}
	for i, s := range segs {
		if !(s.X1 < s.X2) {
			return nil, fmt.Errorf("cgmgeom: segment %d has X1 >= X2", i)
		}
	}
	return &Envelope{v: v, n: len(segs), segs: segs}, nil
}

func (p *Envelope) NumVPs() int { return p.v }

func (p *Envelope) MaxContextWords() int {
	maxKeys := 2 * cgm.MaxPart(p.n, p.v)
	sl := Slabber{}
	return 4 + sl.SaveSize(3*maxKeys+p.v, p.v) + words.SizeUints(5*cgm.MaxPart(p.n, p.v)) + words.SizeUints(3*4*p.n) + 2
}

func (p *Envelope) MaxCommWords() int {
	maxKeys := 2 * cgm.MaxPart(p.n, p.v)
	sortComm := 3*maxKeys + p.v*(p.v+1) + p.v*p.v
	replicate := 5 * cgm.MaxPart(p.n, p.v) * p.v
	recv := 5*p.n + p.v
	pieces := 3 * (4*p.n + 2) // worst-case piece count ~ O(n) per slab boundary effects
	m := sortComm
	for _, c := range []int{replicate, recv, pieces} {
		if c > m {
			m = c
		}
	}
	return m + p.v + 16
}

func (p *Envelope) NewVP(id int) bsp.VP {
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
	return &envVP{p: p, slab: Slabber{Data: keys}, mine: mine}
}

const (
	envPhaseSlab  = 0
	envPhaseSweep = 1
	envPhaseGlue  = 2
)

type envVP struct {
	p      *Envelope
	phase  uint64
	slab   Slabber
	mine   []uint64 // own segments: (x1,y1,x2,y2,idx)
	pieces []uint64 // final glued pieces at VP 0: (x1 bits, x2 bits, idx)
}

func (vp *envVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
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
		pieces := vp.sweepSlab(env, in)
		if len(pieces) > 0 {
			env.Send(0, pieces)
		}
		vp.phase = envPhaseGlue
		return false, nil
	case envPhaseGlue:
		if env.ID() == 0 {
			// Messages arrive in slab (source) order; concatenate and
			// merge adjacent pieces of the same segment.
			var all []uint64
			for _, m := range in {
				all = append(all, m.Payload...)
			}
			for i := 0; i+3 <= len(all); i += 3 {
				n := len(vp.pieces)
				if n >= 3 && vp.pieces[n-1] == all[i+2] && vp.pieces[n-2] == all[i] {
					vp.pieces[n-2] = all[i+1] // extend previous piece
					continue
				}
				vp.pieces = append(vp.pieces, all[i:i+3]...)
			}
			env.Charge(int64(len(all)))
		}
		vp.phase = 3
		return true, nil
	default:
		return false, fmt.Errorf("cgmgeom: envelope VP stepped after completion")
	}
}

// sweepSlab computes the envelope pieces within this VP's strip as
// (x1 bits, x2 bits, segIdx) triples in x order.
func (vp *envVP) sweepSlab(env *bsp.Env, in []bsp.Message) []uint64 {
	id := env.ID()
	slabLo := math.Inf(-1)
	if id > 0 {
		slabLo = BoundFloat(vp.slab.Bounds[id])
	}
	slabHi := math.Inf(1)
	if id < env.NumVPs()-1 {
		slabHi = BoundFloat(vp.slab.Bounds[id+1])
	}
	type seg struct {
		x1, y1, x2, y2 float64
		idx            uint64
		cx1, cx2       float64 // clipped x-extent within the strip
	}
	var segs []seg
	var xs []float64
	for _, m := range in {
		for i := 0; i+5 <= len(m.Payload); i += 5 {
			s := seg{
				x1:  math.Float64frombits(m.Payload[i]),
				y1:  math.Float64frombits(m.Payload[i+1]),
				x2:  math.Float64frombits(m.Payload[i+2]),
				y2:  math.Float64frombits(m.Payload[i+3]),
				idx: m.Payload[i+4],
			}
			s.cx1, s.cx2 = s.x1, s.x2
			if s.cx1 < slabLo {
				s.cx1 = slabLo
			}
			if s.cx2 > slabHi {
				s.cx2 = slabHi
			}
			if s.cx1 >= s.cx2 {
				continue
			}
			segs = append(segs, s)
			xs = append(xs, s.cx1, s.cx2)
		}
	}
	if len(segs) == 0 {
		return nil
	}
	sort.Float64s(xs)
	// Deduplicate elementary interval boundaries.
	uniq := xs[:1]
	for _, x := range xs[1:] {
		if x != uniq[len(uniq)-1] {
			uniq = append(uniq, x)
		}
	}
	env.Charge(int64(len(segs)) * int64(len(uniq)))
	var out []uint64
	for i := 0; i+1 < len(uniq); i++ {
		a, b := uniq[i], uniq[i+1]
		mid := a + (b-a)/2
		bestIdx := ^uint64(0)
		bestY := math.Inf(1)
		for _, s := range segs {
			if s.cx1 <= a && s.cx2 >= b {
				y := s.y1 + (s.y2-s.y1)*(mid-s.x1)/(s.x2-s.x1)
				if y < bestY || (y == bestY && s.idx < bestIdx) {
					bestY, bestIdx = y, s.idx
				}
			}
		}
		if bestIdx == ^uint64(0) {
			continue // gap: no segment covers this interval
		}
		n := len(out)
		if n >= 3 && out[n-1] == bestIdx && out[n-2] == math.Float64bits(a) {
			out[n-2] = math.Float64bits(b)
			continue
		}
		out = append(out, math.Float64bits(a), math.Float64bits(b), bestIdx)
	}
	return out
}

func (vp *envVP) Save(enc *words.Encoder) {
	enc.PutUint(vp.phase)
	vp.slab.Save(enc)
	enc.PutUints(vp.mine)
	enc.PutUints(vp.pieces)
}

func (vp *envVP) Load(dec *words.Decoder) {
	vp.phase = dec.Uint()
	vp.slab.Load(dec)
	vp.mine = dec.Uints()
	vp.pieces = dec.Uints()
}

// Output returns the envelope pieces in x order.
func (p *Envelope) Output(vps []bsp.VP) []EnvelopePiece {
	raw := vps[0].(*envVP).pieces
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
