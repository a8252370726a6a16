package cgmgraph

import (
	"fmt"
	"math/bits"
	"slices"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/words"
)

// LCA answers batched lowest-common-ancestor queries on a tree rooted
// at vertex 0 (the Table 1 "Lowest common ancestor" row): it runs the
// Euler tour (first occurrences and depths), builds a distributed
// sparse table over the depth-by-tour-position array (one superstep
// per doubling level), and resolves every query with the classic
// ±RMQ reduction — LCA(u,v) is the minimum-depth vertex between the
// first occurrences of u and v in the tour.
//
// λ = λ(EulerTour) + ⌊log₂(2n-1)⌋ + 6: the sparse-table levels add a
// logarithmic number of single-superstep exchange rounds on top of the
// tour construction.
type LCA struct {
	v       int
	n       int
	queries [][2]int
	euler   *EulerTour
}

// NewLCA returns the program for the tree (n vertices, n-1 edges,
// rooted at 0) and the query batch on v VPs.
func NewLCA(n int, edges [][2]int, queries [][2]int, v int) (*LCA, error) {
	euler, err := NewEulerTour(n, edges, v)
	if err != nil {
		return nil, err
	}
	for i, q := range queries {
		if q[0] < 0 || q[0] >= n || q[1] < 0 || q[1] >= n {
			return nil, fmt.Errorf("cgmgraph: query %d = %v out of range", i, q)
		}
	}
	return &LCA{v: v, n: n, queries: queries, euler: euler}, nil
}

func (p *LCA) NumVPs() int { return p.v }

// tourLen is the rooted tour vertex-sequence length, 2n-1.
func (p *LCA) tourLen() int { return 2*p.n - 1 }

// maxLevel is the deepest sparse-table level, ⌊log₂ L⌋.
func (p *LCA) maxLevel() int {
	return bits.Len(uint(p.tourLen())) - 1
}

func (p *LCA) MaxContextWords() int {
	maxIdx := cgm.MaxPart(p.tourLen(), p.v)
	maxQ := cgm.MaxPart(len(p.queries), p.v)
	// Euler state, sparse-table levels (2 words per entry), query
	// firsts and lookups (4 words per query), answers, phase words.
	return 16 + p.euler.MaxContextWords() +
		(p.maxLevel()+1)*words.SizeUints(2*maxIdx) +
		words.SizeUints(6*maxQ) + words.SizeUints(maxQ)
}

func (p *LCA) MaxCommWords() int {
	maxIdx := cgm.MaxPart(p.tourLen(), p.v)
	q := len(p.queries)
	c := p.euler.MaxCommWords()
	// Sparse-table pushes: 3 words per owned index per level round.
	if push := 3*maxIdx + 2*p.v + 16; push > c {
		c = push
	}
	// Query traffic: worst case all queries hit one owner.
	if qt := 8*q + 2*p.v + 16; qt > c {
		c = qt
	}
	return c
}

func (p *LCA) NewVP(id int) bsp.VP {
	return &lcaVP{p: p, euler: p.euler.NewVP(id).(*eulerVP)}
}

// LCA phases (after the embedded Euler tour completes).
const (
	lcaPhaseEuler = iota
	lcaPhaseBuild // collect depth-by-position entries; push for level 1
	lcaPhaseLevel // one superstep per sparse-table level
	lcaPhaseFirst // query owners request first occurrences
	lcaPhaseRange // vertex owners replied; issue RMQ lookups
	lcaPhaseLook  // sparse-table owners answer lookups
	lcaPhasePick  // pick the minimum-depth vertex; halt
	lcaPhaseDone
)

type lcaVP struct {
	p     *LCA
	euler *eulerVP
	phase uint64
	level uint64

	st      [][]uint64 // st[ℓ]: (depth, vertex) per owned tour index
	f1, f2  []uint64   // per owned query: first occurrences (^0 unknown)
	answers []uint64   // per owned query: LCA vertex
}

const lcaInvalid = ^uint64(0)

func (vp *lcaVP) idxRange(env *bsp.Env) (int, int) {
	return cgm.Dist(vp.p.tourLen(), env.NumVPs(), env.ID())
}

func (vp *lcaVP) qRange(env *bsp.Env) (int, int) {
	return cgm.Dist(len(vp.p.queries), env.NumVPs(), env.ID())
}

// pushLevel ships this VP's st[ℓ] entries to the owners of the
// indices that need them for level ℓ+1 (target = idx - 2^ℓ).
func (vp *lcaVP) pushLevel(env *bsp.Env, lvl int) {
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
		if row[(i-lo)*2] == lcaInvalid {
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

func (vp *lcaVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	v := env.NumVPs()
	L := vp.p.tourLen()
	switch vp.phase {
	case lcaPhaseEuler:
		done, err := vp.euler.Step(env, in)
		if err != nil {
			return false, err
		}
		if !done {
			return false, nil
		}
		// Emit (tour index, depth, vertex): position t of the rooted
		// sequence is head(arc at position t-1); depth(head(a)) is the
		// ±1 prefix-inclusive sum 1 - rank2(a) + w(a).
		parts := make([][]uint64, v)
		for i := range vp.euler.pos {
			var depth uint64
			if vp.euler.pos[i] < vp.euler.posRev[i] {
				depth = 2 - vp.euler.ranker.Rank[i] // down arc, w=+1
			} else {
				depth = -vp.euler.ranker.Rank[i] // up arc, w=-1
			}
			idx := vp.euler.pos[i] + 1
			d := cgm.Owner(L, v, int(idx))
			parts[d] = append(parts[d], idx, depth, vp.euler.head[i])
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		env.Charge(int64(len(vp.euler.pos)))
		vp.phase = lcaPhaseBuild
		return false, nil

	case lcaPhaseBuild:
		lo, hi := vp.idxRange(env)
		row := make([]uint64, 2*(hi-lo))
		for i := range row {
			row[i] = lcaInvalid
		}
		for _, m := range in {
			p := m.Payload
			for i := 0; i+3 <= len(p); i += 3 {
				slot := int(p[i]) - lo
				row[slot*2] = p[i+1]
				row[slot*2+1] = p[i+2]
			}
		}
		if lo == 0 && hi > 0 {
			row[0], row[1] = 0, 0 // the root opens the tour
		}
		vp.st = [][]uint64{row}
		if vp.p.maxLevel() == 0 {
			vp.phase = lcaPhaseFirst
			return vp.Step(env, nil)
		}
		vp.pushLevel(env, 0)
		vp.level = 1
		vp.phase = lcaPhaseLevel
		return false, nil

	case lcaPhaseLevel:
		lo, hi := vp.idxRange(env)
		lvl := int(vp.level)
		shift := 1 << (lvl - 1)
		// Remote sources pushed last superstep, keyed by source index.
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
			row[(i-lo)*2], row[(i-lo)*2+1] = lcaInvalid, lcaInvalid
			if i+(1<<lvl) > L {
				continue
			}
			d1, v1 := prev[(i-lo)*2], prev[(i-lo)*2+1]
			src := i + shift
			var d2, v2 uint64
			if src >= lo && src < hi {
				d2, v2 = prev[(src-lo)*2], prev[(src-lo)*2+1]
			} else if e, ok := remote[src]; ok {
				d2, v2 = e[0], e[1]
			} else {
				return false, fmt.Errorf("cgmgraph: lca level %d missing source index %d", lvl, src)
			}
			if d2 < d1 || (d2 == d1 && v2 < v1) {
				d1, v1 = d2, v2
			}
			row[(i-lo)*2], row[(i-lo)*2+1] = d1, v1
		}
		vp.st = append(vp.st, row)
		env.Charge(int64(hi - lo))
		if lvl < vp.p.maxLevel() {
			vp.pushLevel(env, lvl)
			vp.level++
			return false, nil
		}
		vp.phase = lcaPhaseFirst
		return vp.Step(env, nil)

	case lcaPhaseFirst:
		qlo, qhi := vp.qRange(env)
		vp.f1 = make([]uint64, qhi-qlo)
		vp.f2 = make([]uint64, qhi-qlo)
		parts := make([][]uint64, v)
		for qi := qlo; qi < qhi; qi++ {
			q := vp.p.queries[qi]
			for which, vertex := range []int{q[0], q[1]} {
				d := cgm.Owner(vp.p.n, v, vertex)
				parts[d] = append(parts[d], uint64(qi), uint64(which), uint64(vertex))
			}
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		env.Charge(int64(qhi - qlo))
		vp.phase = lcaPhaseRange
		return false, nil

	case lcaPhaseRange:
		// Answer first-occurrence requests for owned vertices.
		vlo, _ := vp.euler.vertRange(env)
		parts := make([][]uint64, v)
		for _, m := range in {
			p := m.Payload
			for i := 0; i+3 <= len(p); i += 3 {
				vertex := int(p[i+2])
				parts[m.Src] = append(parts[m.Src], p[i], p[i+1], vp.euler.first[vertex-vlo])
			}
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		vp.phase = lcaPhaseLook
		return false, nil

	case lcaPhaseLook:
		// Absorb first occurrences; issue the two RMQ lookups.
		qlo, qhi := vp.qRange(env)
		for _, m := range in {
			p := m.Payload
			for i := 0; i+3 <= len(p); i += 3 {
				qi := int(p[i]) - qlo
				if p[i+1] == 0 {
					vp.f1[qi] = p[i+2]
				} else {
					vp.f2[qi] = p[i+2]
				}
			}
		}
		parts := make([][]uint64, v)
		for qi := qlo; qi < qhi; qi++ {
			lo, hi := vp.f1[qi-qlo], vp.f2[qi-qlo]
			if lo > hi {
				lo, hi = hi, lo
			}
			span := int(hi - lo + 1)
			lvl := bits.Len(uint(span)) - 1
			for slot, idx := range []uint64{lo, hi - uint64(int(1)<<lvl) + 1} {
				d := cgm.Owner(L, v, int(idx))
				parts[d] = append(parts[d], uint64(qi), uint64(slot), uint64(lvl), idx)
			}
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		env.Charge(int64(qhi - qlo))
		vp.phase = lcaPhasePick
		return false, nil

	case lcaPhasePick:
		// Answer RMQ lookups from the owned sparse-table rows.
		lo, _ := vp.idxRange(env)
		parts := make([][]uint64, v)
		for _, m := range in {
			p := m.Payload
			for i := 0; i+4 <= len(p); i += 4 {
				lvl := int(p[i+2])
				idx := int(p[i+3])
				row := vp.st[lvl]
				parts[m.Src] = append(parts[m.Src], p[i], p[i+1], row[(idx-lo)*2], row[(idx-lo)*2+1])
			}
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		vp.phase = lcaPhaseDone
		return false, nil

	case lcaPhaseDone:
		qlo, qhi := vp.qRange(env)
		type cand struct{ depth, vertex uint64 }
		best := make([]cand, qhi-qlo)
		for i := range best {
			best[i] = cand{lcaInvalid, lcaInvalid}
		}
		for _, m := range in {
			p := m.Payload
			for i := 0; i+4 <= len(p); i += 4 {
				qi := int(p[i]) - qlo
				d, vx := p[i+2], p[i+3]
				if d < best[qi].depth || (d == best[qi].depth && vx < best[qi].vertex) {
					best[qi] = cand{d, vx}
				}
			}
		}
		vp.answers = make([]uint64, qhi-qlo)
		for i, b := range best {
			vp.answers[i] = b.vertex
		}
		return true, nil

	default:
		return false, fmt.Errorf("cgmgraph: lca VP stepped after completion")
	}
}

func (vp *lcaVP) Save(enc *words.Encoder) {
	enc.PutUint(vp.phase)
	enc.PutUint(vp.level)
	vp.euler.Save(enc)
	enc.PutUint(uint64(len(vp.st)))
	for _, row := range vp.st {
		enc.PutUints(row)
	}
	enc.PutUints(vp.f1)
	enc.PutUints(vp.f2)
	enc.PutUints(vp.answers)
}

func (vp *lcaVP) Load(dec *words.Decoder) {
	vp.phase = dec.Uint()
	vp.level = dec.Uint()
	vp.euler.Load(dec)
	nlv := int(dec.Uint())
	vp.st = slices.Grow(vp.st[:0], nlv)[:nlv]
	for i := range vp.st {
		vp.st[i] = dec.Uints()
	}
	vp.f1 = dec.Uints()
	vp.f2 = dec.Uints()
	vp.answers = dec.Uints()
}

// Output returns the LCA vertex per query index.
func (p *LCA) Output(vps []bsp.VP) []int {
	out := make([]int, 0, len(p.queries))
	for _, vp := range vps {
		for _, a := range vp.(*lcaVP).answers {
			out = append(out, int(a))
		}
	}
	return out
}
