package cgmgeom

import (
	"fmt"
	"math"
	"sort"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/words"
)

// RectUnion computes the area of the union of n axis-parallel
// rectangles (the Table 1 "Area of union of rectangles" row).
//
// CGM algorithm (λ = O(1) rounds): establish balanced x-slabs from
// the sorted 2n rectangle x-endpoints (Slabber), replicate every
// rectangle into each slab it overlaps, sweep each slab locally
// (events sorted by x, active y-interval coverage), and sum the slab
// areas at VP 0. Slab strips partition the plane, so no area is
// counted twice. Worst-case replication is Θ(n·v) when rectangles
// span many slabs (documented in DESIGN.md §5).
type RectUnion struct {
	v     int
	n     int
	rects []Rect
}

// NewRectUnion returns the program for the given rectangles on v VPs.
func NewRectUnion(rects []Rect, v int) (*RectUnion, error) {
	if v <= 0 {
		return nil, fmt.Errorf("cgmgeom: v = %d, want > 0", v)
	}
	for i, r := range rects {
		if r.X1 > r.X2 || r.Y1 > r.Y2 {
			return nil, fmt.Errorf("cgmgeom: rectangle %d is inverted", i)
		}
	}
	return &RectUnion{v: v, n: len(rects), rects: rects}, nil
}

func (p *RectUnion) NumVPs() int { return p.v }

func (p *RectUnion) MaxContextWords() int {
	maxKeys := 2 * cgm.MaxPart(p.n, p.v) // two endpoints per rect
	sl := Slabber{}
	// Slabber state, own rectangles, replicated slab rectangles
	// (worst case all), area word, phase.
	return 4 + sl.SaveSize(3*maxKeys+p.v, p.v) + words.SizeUints(4*cgm.MaxPart(p.n, p.v)) + words.SizeUints(4*p.n) + 2
}

func (p *RectUnion) MaxCommWords() int {
	maxKeys := 2 * cgm.MaxPart(p.n, p.v)
	sortComm := 3*maxKeys + p.v*(p.v+1) + p.v*p.v
	replicate := 4*cgm.MaxPart(p.n, p.v)*p.v + p.v // worst case: all rects to all slabs
	recv := 4*p.n + p.v                            // worst case: a slab receives every rect
	m := sortComm
	if replicate > m {
		m = replicate
	}
	if recv > m {
		m = recv
	}
	return m + p.v + 16
}

func (p *RectUnion) NewVP(id int) bsp.VP {
	lo, hi := cgm.Dist(p.n, p.v, id)
	keys := make([]uint64, 0, 2*(hi-lo))
	mine := make([]uint64, 0, 4*(hi-lo))
	for i := lo; i < hi; i++ {
		r := p.rects[i]
		keys = append(keys, cgm.EncodeFloat(r.X1), cgm.EncodeFloat(r.X2))
		mine = append(mine,
			math.Float64bits(r.X1), math.Float64bits(r.Y1),
			math.Float64bits(r.X2), math.Float64bits(r.Y2))
	}
	return &rectVP{p: p, slab: Slabber{Data: keys}, mine: mine}
}

const (
	rectPhaseSlab  = 0
	rectPhaseSweep = 1
	rectPhaseSum   = 2
	rectPhaseDone  = 3
)

type rectVP struct {
	p     *RectUnion
	phase uint64
	slab  Slabber
	mine  []uint64 // own rectangles: (x1,y1,x2,y2) float bits
	area  float64  // valid at VP 0 after completion
}

func (vp *rectVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	switch vp.phase {
	case rectPhaseSlab:
		done, err := vp.slab.Step(env, in)
		if err != nil {
			return false, err
		}
		if !done {
			return vp.slab.Idle(), nil
		}
		// Replicate each rectangle to every slab it overlaps, batched
		// per destination.
		parts := make([][]uint64, env.NumVPs())
		for i := 0; i+4 <= len(vp.mine); i += 4 {
			x1 := math.Float64frombits(vp.mine[i])
			x2 := math.Float64frombits(vp.mine[i+2])
			lo, hi := SlabRange(vp.slab.Bounds, cgm.EncodeFloat(x1), cgm.EncodeFloat(x2))
			for s := lo; s <= hi; s++ {
				parts[s] = append(parts[s], vp.mine[i:i+4]...)
			}
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		env.Charge(int64(len(vp.mine)))
		vp.mine = nil
		vp.phase = rectPhaseSweep
		return false, nil
	case rectPhaseSweep:
		area := vp.sweepSlab(env, in)
		env.Send(0, []uint64{math.Float64bits(area)})
		vp.phase = rectPhaseSum
		return false, nil
	case rectPhaseSum:
		if env.ID() == 0 {
			// Messages arrive sorted by source, so the float sum
			// order is deterministic.
			for _, m := range in {
				vp.area += math.Float64frombits(m.Payload[0])
			}
		}
		vp.phase = rectPhaseDone
		return true, nil
	default:
		return false, fmt.Errorf("cgmgeom: rect-union VP stepped after completion")
	}
}

// sweepSlab computes the union area restricted to this VP's x-strip.
func (vp *rectVP) sweepSlab(env *bsp.Env, in []bsp.Message) float64 {
	id := env.ID()
	slabLo := math.Inf(-1)
	if id > 0 {
		slabLo = cgm.DecodeFloat(vp.slab.Bounds[id])
	}
	slabHi := math.Inf(1)
	// A MaxUint64 bound marks "no slab to the right" (trailing empty
	// slabs); this strip then extends to +Inf.
	if id < env.NumVPs()-1 && vp.slab.Bounds[id+1] != ^uint64(0) {
		slabHi = cgm.DecodeFloat(vp.slab.Bounds[id+1])
	}
	type event struct {
		x      float64
		open   bool
		y1, y2 float64
	}
	var events []event
	for _, m := range in {
		for i := 0; i+4 <= len(m.Payload); i += 4 {
			x1 := math.Float64frombits(m.Payload[i])
			y1 := math.Float64frombits(m.Payload[i+1])
			x2 := math.Float64frombits(m.Payload[i+2])
			y2 := math.Float64frombits(m.Payload[i+3])
			if x1 < slabLo {
				x1 = slabLo
			}
			if x2 > slabHi {
				x2 = slabHi
			}
			if x1 >= x2 {
				continue // zero width within this strip
			}
			events = append(events, event{x1, true, y1, y2}, event{x2, false, y1, y2})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].x != events[j].x {
			return events[i].x < events[j].x
		}
		if events[i].open != events[j].open {
			return !events[i].open // closes first at equal x (dx = 0 anyway)
		}
		if events[i].y1 != events[j].y1 {
			return events[i].y1 < events[j].y1
		}
		return events[i].y2 < events[j].y2
	})
	env.Charge(int64(len(events)) * 8)

	type span struct{ y1, y2 float64 }
	var active []span
	covered := func() float64 {
		if len(active) == 0 {
			return 0
		}
		sorted := append([]span(nil), active...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].y1 < sorted[j].y1 })
		total := 0.0
		curLo, curHi := sorted[0].y1, sorted[0].y2
		for _, s := range sorted[1:] {
			if s.y1 > curHi {
				total += curHi - curLo
				curLo, curHi = s.y1, s.y2
			} else if s.y2 > curHi {
				curHi = s.y2
			}
		}
		return total + (curHi - curLo)
	}

	area := 0.0
	for i := 0; i < len(events); {
		x := events[i].x
		for i < len(events) && events[i].x == x {
			ev := events[i]
			if ev.open {
				active = append(active, span{ev.y1, ev.y2})
			} else {
				for j, s := range active {
					if s.y1 == ev.y1 && s.y2 == ev.y2 {
						active = append(active[:j], active[j+1:]...)
						break
					}
				}
			}
			i++
		}
		if i < len(events) {
			area += covered() * (events[i].x - x)
		}
		env.Charge(int64(len(active)) * 4)
	}
	return area
}

func (vp *rectVP) Save(enc *words.Encoder) {
	enc.PutUint(vp.phase)
	vp.slab.Save(enc)
	enc.PutUints(vp.mine)
	enc.PutFloat(vp.area)
}

func (vp *rectVP) Load(dec *words.Decoder) {
	vp.phase = dec.Uint()
	vp.slab.Load(dec)
	vp.mine = dec.Uints()
	vp.area = dec.Float()
}

// Output returns the union area (held by VP 0).
func (p *RectUnion) Output(vps []bsp.VP) float64 {
	return vps[0].(*rectVP).area
}
