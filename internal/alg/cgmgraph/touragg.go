package cgmgraph

import (
	"fmt"
	"math/bits"
	"slices"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/words"
)

// TourAgg computes, for every vertex of a tree rooted at 0, the
// minimum and maximum of a per-vertex value over the vertex's entire
// subtree. It is the Euler-tour reduction used by the Tarjan–Vishkin
// biconnectivity algorithm to compute low(v)/high(v): a subtree is a
// contiguous interval of the rooted tour vertex sequence, so subtree
// aggregation is a range min/max query answered by a distributed
// sparse table over the value-by-tour-position array (one exchange
// superstep per doubling level, as in the LCA program).
type TourAgg struct {
	v     int
	n     int
	vals  []uint64
	euler *EulerTour
}

// NewTourAgg returns the program for the tree (rooted at 0) and the
// per-vertex values.
func NewTourAgg(n int, edges [][2]int, vals []uint64, v int) (*TourAgg, error) {
	euler, err := NewEulerTour(n, edges, v)
	if err != nil {
		return nil, err
	}
	if len(vals) != n {
		return nil, fmt.Errorf("cgmgraph: %d values for %d vertices", len(vals), n)
	}
	return &TourAgg{v: v, n: n, vals: vals, euler: euler}, nil
}

func (p *TourAgg) NumVPs() int { return p.v }

func (p *TourAgg) tourLen() int  { return 2*p.n - 1 }
func (p *TourAgg) maxLevel() int { return bits.Len(uint(p.tourLen())) - 1 }

func (p *TourAgg) MaxContextWords() int {
	maxIdx := cgm.MaxPart(p.tourLen(), p.v)
	maxV := cgm.MaxPart(p.n, p.v)
	return 16 + p.euler.MaxContextWords() +
		(p.maxLevel()+1)*words.SizeUints(2*maxIdx) + 2*words.SizeUints(maxV)
}

func (p *TourAgg) MaxCommWords() int {
	maxIdx := cgm.MaxPart(p.tourLen(), p.v)
	c := p.euler.MaxCommWords()
	if push := 3*maxIdx + 2*p.v + 16; push > c {
		c = push
	}
	if q := 10*p.n + 2*p.v + 16; q > c {
		c = q
	}
	return c
}

func (p *TourAgg) NewVP(id int) bsp.VP {
	return &aggVP{p: p, euler: p.euler.NewVP(id).(*eulerVP)}
}

// TourAgg phases after the Euler tour.
const (
	agEuler  = iota
	agBuild  // collect value-by-position entries; push for level 1
	agLevel  // one superstep per sparse-table level
	agLook   // issue per-vertex RMQ lookups
	agAnswer // sparse-table owners answer lookups
	agPick   // combine lookup replies; halt
)

type aggVP struct {
	p     *TourAgg
	euler *eulerVP
	phase uint64
	level uint64

	st       [][]uint64 // st[ℓ]: (min, max) per owned tour index
	mins     []uint64   // per owned vertex, valid when done
	maxs     []uint64
	expected []uint64 // lookups outstanding per owned vertex (2 or 1)
}

func (vp *aggVP) idxRange(env *bsp.Env) (int, int) {
	return cgm.Dist(vp.p.tourLen(), env.NumVPs(), env.ID())
}

func (vp *aggVP) pushLevel(env *bsp.Env, lvl int) {
	L := vp.p.tourLen()
	shift := 1 << lvl
	lo, hi := vp.idxRange(env)
	parts := make([][]uint64, env.NumVPs())
	row := vp.st[lvl]
	for i := lo; i < hi; i++ {
		target := i - shift
		if target < 0 {
			continue
		}
		d := cgm.Owner(L, vp.p.v, target)
		parts[d] = append(parts[d], uint64(i), row[(i-lo)*2], row[(i-lo)*2+1])
	}
	for d, part := range parts {
		if len(part) > 0 {
			env.Send(d, part)
		}
	}
	env.Charge(int64(hi - lo))
}

func (vp *aggVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	v := env.NumVPs()
	L := vp.p.tourLen()
	switch vp.phase {
	case agEuler:
		done, err := vp.euler.Step(env, in)
		if err != nil {
			return false, err
		}
		if !done {
			return false, nil
		}
		// Emit (tour index, value of head) per owned arc.
		parts := make([][]uint64, v)
		for i := range vp.euler.pos {
			idx := vp.euler.pos[i] + 1
			val := vp.p.vals[vp.euler.head[i]]
			d := cgm.Owner(L, v, int(idx))
			parts[d] = append(parts[d], idx, val)
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		env.Charge(int64(len(vp.euler.pos)))
		vp.phase = agBuild
		return false, nil

	case agBuild:
		lo, hi := vp.idxRange(env)
		row := make([]uint64, 2*(hi-lo))
		for _, m := range in {
			p := m.Payload
			for i := 0; i+2 <= len(p); i += 2 {
				slot := int(p[i]) - lo
				row[slot*2] = p[i+1]
				row[slot*2+1] = p[i+1]
			}
		}
		if lo == 0 && hi > 0 {
			row[0], row[1] = vp.p.vals[0], vp.p.vals[0]
		}
		vp.st = [][]uint64{row}
		if vp.p.maxLevel() == 0 {
			vp.phase = agLook
			return vp.Step(env, nil)
		}
		vp.pushLevel(env, 0)
		vp.level = 1
		vp.phase = agLevel
		return false, nil

	case agLevel:
		lo, hi := vp.idxRange(env)
		lvl := int(vp.level)
		shift := 1 << (lvl - 1)
		remote := make(map[int][2]uint64)
		for _, m := range in {
			p := m.Payload
			for i := 0; i+3 <= len(p); i += 3 {
				remote[int(p[i])] = [2]uint64{p[i+1], p[i+2]}
			}
		}
		prev := vp.st[lvl-1]
		row := make([]uint64, 2*(hi-lo))
		for i := lo; i < hi; i++ {
			mn, mx := prev[(i-lo)*2], prev[(i-lo)*2+1]
			if i+(1<<lvl) <= L {
				src := i + shift
				var mn2, mx2 uint64
				if src >= lo && src < hi {
					mn2, mx2 = prev[(src-lo)*2], prev[(src-lo)*2+1]
				} else if e, ok := remote[src]; ok {
					mn2, mx2 = e[0], e[1]
				} else {
					return false, fmt.Errorf("cgmgraph: touragg level %d missing source %d", lvl, src)
				}
				if mn2 < mn {
					mn = mn2
				}
				if mx2 > mx {
					mx = mx2
				}
			}
			row[(i-lo)*2], row[(i-lo)*2+1] = mn, mx
		}
		vp.st = append(vp.st, row)
		env.Charge(int64(hi - lo))
		if lvl < vp.p.maxLevel() {
			vp.pushLevel(env, lvl)
			vp.level++
			return false, nil
		}
		vp.phase = agLook
		return vp.Step(env, nil)

	case agLook:
		// Issue the two RMQ lookups per owned vertex over its subtree
		// interval [first, first + 2·size - 2].
		vlo, vhi := vp.euler.vertRange(env)
		vp.mins = make([]uint64, vhi-vlo)
		vp.maxs = make([]uint64, vhi-vlo)
		vp.expected = make([]uint64, vhi-vlo)
		for i := range vp.mins {
			vp.mins[i] = ^uint64(0)
		}
		parts := make([][]uint64, v)
		for i := 0; i < vhi-vlo; i++ {
			lo := vp.euler.first[i]
			hi := lo + 2*vp.euler.size[i] - 2
			span := int(hi - lo + 1)
			lvl := bits.Len(uint(span)) - 1
			idxs := []uint64{lo, hi - uint64(int(1)<<lvl) + 1}
			if idxs[0] == idxs[1] {
				idxs = idxs[:1]
			}
			vp.expected[i] = uint64(len(idxs))
			for _, idx := range idxs {
				d := cgm.Owner(L, v, int(idx))
				parts[d] = append(parts[d], uint64(vlo+i), uint64(lvl), idx)
			}
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		env.Charge(int64(vhi - vlo))
		vp.phase = agAnswer
		return false, nil

	case agAnswer:
		lo, _ := vp.idxRange(env)
		parts := make([][]uint64, v)
		for _, m := range in {
			p := m.Payload
			for i := 0; i+3 <= len(p); i += 3 {
				lvl := int(p[i+1])
				idx := int(p[i+2])
				row := vp.st[lvl]
				parts[m.Src] = append(parts[m.Src], p[i], row[(idx-lo)*2], row[(idx-lo)*2+1])
			}
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		vp.phase = agPick
		return false, nil

	case agPick:
		vlo, _ := vp.euler.vertRange(env)
		for _, m := range in {
			p := m.Payload
			for i := 0; i+3 <= len(p); i += 3 {
				j := int(p[i]) - vlo
				if p[i+1] < vp.mins[j] {
					vp.mins[j] = p[i+1]
				}
				if p[i+2] > vp.maxs[j] {
					vp.maxs[j] = p[i+2]
				}
				vp.expected[j]--
			}
		}
		for j, e := range vp.expected {
			if e != 0 {
				return false, fmt.Errorf("cgmgraph: touragg vertex %d missing %d lookup replies", vlo+j, e)
			}
		}
		return true, nil

	default:
		return false, fmt.Errorf("cgmgraph: touragg VP stepped after completion")
	}
}

func (vp *aggVP) Save(enc *words.Encoder) {
	enc.PutUint(vp.phase)
	enc.PutUint(vp.level)
	vp.euler.Save(enc)
	enc.PutUint(uint64(len(vp.st)))
	for _, row := range vp.st {
		enc.PutUints(row)
	}
	enc.PutUints(vp.mins)
	enc.PutUints(vp.maxs)
	enc.PutUints(vp.expected)
}

func (vp *aggVP) Load(dec *words.Decoder) {
	vp.phase = dec.Uint()
	vp.level = dec.Uint()
	vp.euler.Load(dec)
	nlv := int(dec.Uint())
	vp.st = slices.Grow(vp.st[:0], nlv)[:nlv]
	for i := range vp.st {
		vp.st[i] = dec.Uints()
	}
	vp.mins = dec.Uints()
	vp.maxs = dec.Uints()
	vp.expected = dec.Uints()
}

// Output returns per-vertex subtree minima and maxima.
func (p *TourAgg) Output(vps []bsp.VP) (mins, maxs []uint64) {
	for _, vp := range vps {
		mins = append(mins, vp.(*aggVP).mins...)
		maxs = append(maxs, vp.(*aggVP).maxs...)
	}
	return mins, maxs
}
