package cgmgraph

import (
	"fmt"
	"sort"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/words"
)

// EulerTour computes an Euler tour of an undirected tree rooted at
// vertex 0 and the standard tree applications driven by it (the
// Table 1 "Euler tour (tree)" row, which also powers tree rooting,
// depth and subtree-size computations): for every vertex its parent,
// depth and subtree size, and for every arc its tour position.
//
// CGM algorithm: edge endpoints are routed to their vertex owners,
// which assemble circular adjacency successor pointers (the classic
// Euler-tour successor: succ(u→v) is the arc out of v following u in
// v's adjacency ring, with the ring broken at the root). Two embedded
// list rankings follow: one with unit weights (tour positions) and
// one with ±1 weights over down/up arcs (depths). Subtree sizes fall
// out of the positions of an arc and its reversal.
type EulerTour struct {
	v     int
	n     int
	edges [][2]int
}

// NewEulerTour returns the program for a tree with n vertices and
// n-1 edges on v VPs. The tree is rooted at vertex 0.
func NewEulerTour(n int, edges [][2]int, v int) (*EulerTour, error) {
	if v <= 0 {
		return nil, fmt.Errorf("cgmgraph: v = %d, want > 0", v)
	}
	if n < 1 {
		return nil, fmt.Errorf("cgmgraph: n = %d, want >= 1", n)
	}
	if len(edges) != n-1 {
		return nil, fmt.Errorf("cgmgraph: %d edges for %d vertices, want n-1", len(edges), n)
	}
	for i, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n || e[0] == e[1] {
			return nil, fmt.Errorf("cgmgraph: edge %d = %v invalid", i, e)
		}
	}
	return &EulerTour{v: v, n: n, edges: edges}, nil
}

func (p *EulerTour) NumVPs() int { return p.v }

func (p *EulerTour) numArcs() int { return 2 * len(p.edges) }

func (p *EulerTour) MaxContextWords() int {
	arcs := p.numArcs()
	muRank, _ := rankerBounds(arcs+1, p.v)
	maxArcs := cgm.MaxPart(arcs, p.v)
	maxVerts := cgm.MaxPart(p.n, p.v)
	// Ranker, arc tables (origSucc, tail, head, pos, posRev), vertex
	// outputs, worst-case adjacency of owned vertices (whole tree at
	// one owner for a star), phases.
	return 16 + muRank + 8*words.SizeUints(maxArcs) + 4*words.SizeUints(maxVerts) + words.SizeUints(4*arcs)
}

func (p *EulerTour) MaxCommWords() int {
	arcs := p.numArcs()
	_, gammaRank := rankerBounds(arcs+1, p.v)
	// Adjacency build: worst case one vertex owner receives every
	// edge; succ assignments: 5 words per arc; pos exchange and
	// result routing: O(arcs/v · v) bounded by O(arcs).
	c := 5*arcs + 8*p.v + 64
	if gammaRank > c {
		c = gammaRank
	}
	return c
}

// Euler phases.
const (
	euAdj     = iota // edges → vertex owners
	euSucc           // vertex owners assemble successor assignments
	euRank1          // unit-weight ranking (tour positions)
	euSwap           // exchange positions with reverse arcs
	euRank2          // ±1-weight ranking (depths)
	euRoute          // per-arc results → vertex owners
	euCollect        // assemble vertex outputs
	euDone
)

type eulerVP struct {
	p     *EulerTour
	phase uint64

	ranker   Ranker
	origSucc []uint64 // successor assignments (kept across rankings)
	tail     []uint64 // per owned arc
	head     []uint64
	pos      []uint64 // tour position per owned arc
	posRev   []uint64 // tour position of the reverse arc

	// Vertex outputs for the owned vertex block.
	parent []uint64
	depth  []uint64
	size   []uint64
	first  []uint64 // first tour occurrence (down-arc position + 1)
}

func (p *EulerTour) NewVP(id int) bsp.VP {
	return &eulerVP{p: p}
}

func (vp *eulerVP) arcRange(env *bsp.Env) (int, int) {
	return cgm.Dist(vp.p.numArcs(), env.NumVPs(), env.ID())
}

func (vp *eulerVP) vertRange(env *bsp.Env) (int, int) {
	return cgm.Dist(vp.p.n, env.NumVPs(), env.ID())
}

func (vp *eulerVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	v := env.NumVPs()
	switch vp.phase {
	case euAdj:
		// Route each edge to both endpoint owners: (vertex, nbr,
		// edge id, orientation). The arc out of `vertex` toward
		// `nbr` has id 2·edge+orient.
		elo, ehi := cgm.Dist(len(vp.p.edges), v, env.ID())
		parts := make([][]uint64, v)
		for j := elo; j < ehi; j++ {
			a, b := vp.p.edges[j][0], vp.p.edges[j][1]
			da := cgm.Owner(vp.p.n, v, a)
			parts[da] = append(parts[da], uint64(a), uint64(b), uint64(j), 0)
			db := cgm.Owner(vp.p.n, v, b)
			parts[db] = append(parts[db], uint64(b), uint64(a), uint64(j), 1)
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		env.Charge(int64(ehi - elo))
		vp.phase = euSucc
		return false, nil

	case euSucc:
		// Assemble per-vertex adjacency rings and emit successor
		// assignments: succ(arc nbr→w) = arc w→next(nbr), broken at
		// the root's last in-arc.
		type adj struct{ nbr, edge, orient uint64 }
		byVertex := make(map[uint64][]adj)
		for _, m := range in {
			p := m.Payload
			for i := 0; i+4 <= len(p); i += 4 {
				byVertex[p[i]] = append(byVertex[p[i]], adj{p[i+1], p[i+2], p[i+3]})
			}
		}
		arcs := vp.p.numArcs()
		parts := make([][]uint64, v)
		keys := make([]uint64, 0, len(byVertex))
		for w := range byVertex {
			keys = append(keys, w)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		for _, w := range keys {
			list := byVertex[w]
			sort.Slice(list, func(a, b int) bool { return list[a].nbr < list[b].nbr })
			deg := len(list)
			for i, e := range list {
				inArc := 2*e.edge + 1 - e.orient // nbr → w
				outNext := list[(i+1)%deg]       // w → next neighbour
				succ := 2*outNext.edge + outNext.orient
				if w == 0 && i == deg-1 {
					succ = none // break the tour after the root's last in-arc
				}
				d := cgm.Owner(arcs, v, int(inArc))
				parts[d] = append(parts[d], inArc, succ, e.nbr, w)
			}
			env.Charge(int64(deg) * 4)
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		vp.phase = euRank1
		return false, nil

	case euRank1:
		if vp.origSucc == nil {
			// First superstep of the ranking: absorb the successor
			// assignments, then start the embedded ranker.
			alo, ahi := vp.arcRange(env)
			vp.origSucc = make([]uint64, ahi-alo)
			vp.tail = make([]uint64, ahi-alo)
			vp.head = make([]uint64, ahi-alo)
			for i := range vp.origSucc {
				vp.origSucc[i] = none
			}
			for _, m := range in {
				p := m.Payload
				for i := 0; i+4 <= len(p); i += 4 {
					slot := int(p[i]) - alo
					vp.origSucc[slot] = p[i+1]
					vp.tail[slot] = p[i+2]
					vp.head[slot] = p[i+3]
				}
			}
			w := make([]uint64, ahi-alo)
			for i := range w {
				w[i] = 1
			}
			vp.ranker = Ranker{N: vp.p.numArcs(), Succ: append([]uint64(nil), vp.origSucc...), Weight: w}
			in = nil
		}
		done, err := vp.ranker.Step(env, in)
		if err != nil {
			return false, err
		}
		if !done {
			return false, nil
		}
		// Tour position = numArcs-1 - rank (the head has full rank).
		arcs := vp.p.numArcs()
		alo := 0
		alo, _ = vp.arcRange(env)
		vp.pos = make([]uint64, len(vp.ranker.Rank))
		parts := make([][]uint64, v)
		for i, rk := range vp.ranker.Rank {
			vp.pos[i] = uint64(arcs-1) - rk
			rev := uint64(alo+i) ^ 1
			d := cgm.Owner(arcs, v, int(rev))
			parts[d] = append(parts[d], rev, vp.pos[i])
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		env.Charge(int64(len(vp.pos)))
		vp.phase = euSwap
		return false, nil

	case euSwap:
		alo, ahi := vp.arcRange(env)
		vp.posRev = make([]uint64, ahi-alo)
		for _, m := range in {
			p := m.Payload
			for i := 0; i+2 <= len(p); i += 2 {
				vp.posRev[int(p[i])-alo] = p[i+1]
			}
		}
		// Second ranking: +1 for down arcs (pos < posRev), -1 for up.
		w := make([]uint64, ahi-alo)
		for i := range w {
			if vp.pos[i] < vp.posRev[i] {
				w[i] = 1
			} else {
				w[i] = ^uint64(0) // -1 two's complement
			}
		}
		vp.ranker = Ranker{N: vp.p.numArcs(), Succ: append([]uint64(nil), vp.origSucc...), Weight: w}
		vp.phase = euRank2
		return vp.Step(env, nil)

	case euRank2:
		done, err := vp.ranker.Step(env, in)
		if err != nil {
			return false, err
		}
		if !done {
			return false, nil
		}
		// For every owned down arc a = (tail→head):
		//   depth(head) = w(a) - rank2(a)  (prefix-inclusive sum)
		//   size(head) = (posRev - pos + 1) / 2
		//   parent(head) = tail
		alo, _ := vp.arcRange(env)
		_ = alo
		parts := make([][]uint64, v)
		for i := range vp.pos {
			if vp.origSucc[i] == none && vp.head[i] != 0 {
				return false, fmt.Errorf("cgmgraph: tour tail arc does not enter the root")
			}
			if vp.pos[i] < vp.posRev[i] { // down arc
				// prefix-inclusive ±1 sum up to a:
				// rank2(head) - rank2(a) + w(a) with rank2(head) = 1
				// (ranks exclude the tail arc's weight, and the tail
				// is the final up-arc into the root) and w(a) = +1.
				depth := 2 - vp.ranker.Rank[i]
				size := (vp.posRev[i] - vp.pos[i] + 1) / 2
				d := cgm.Owner(vp.p.n, v, int(vp.head[i]))
				// first occurrence of head in the rooted tour vertex
				// sequence (root prepended at index 0).
				parts[d] = append(parts[d], vp.head[i], vp.tail[i], depth, size, vp.pos[i]+1)
			}
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		env.Charge(int64(len(vp.pos)))
		vp.phase = euCollect
		return false, nil

	case euCollect:
		vlo, vhi := vp.vertRange(env)
		vp.parent = make([]uint64, vhi-vlo)
		vp.depth = make([]uint64, vhi-vlo)
		vp.size = make([]uint64, vhi-vlo)
		vp.first = make([]uint64, vhi-vlo)
		for i := range vp.parent {
			vp.parent[i] = none
		}
		for _, m := range in {
			p := m.Payload
			for i := 0; i+5 <= len(p); i += 5 {
				slot := int(p[i]) - vlo
				vp.parent[slot] = p[i+1]
				vp.depth[slot] = p[i+2]
				vp.size[slot] = p[i+3]
				vp.first[slot] = p[i+4]
			}
		}
		if vlo <= 0 && 0 < vhi {
			vp.parent[0-vlo] = none
			vp.depth[0-vlo] = 0
			vp.size[0-vlo] = uint64(vp.p.n)
			vp.first[0-vlo] = 0
		}
		vp.phase = euDone
		return true, nil

	default:
		return false, fmt.Errorf("cgmgraph: euler VP stepped after completion")
	}
}

// eulerFormat leads every saved Euler state. It is above every phase
// value, so a state saved in the layout that began with its phase, with
// every array a word a value, is refused by Load rather than misread.
const eulerFormat = 0x45554c5201

// Save marshals the VP's state. Every array holds arc or vertex ids,
// none, tour positions, depths or sizes, so PutUints writes each two
// values a word while the tree has fewer than 2³¹ arcs.
func (vp *eulerVP) Save(enc *words.Encoder) {
	enc.PutUint(eulerFormat)
	enc.PutUint(vp.phase)
	enc.PutBool(vp.origSucc != nil)
	for _, a := range vp.arrays() {
		enc.PutUints(*a)
	}
	vp.ranker.Save(enc)
}

// Load restores the VP, decoding every array into its own memory. A
// state that does not begin with eulerFormat panics, which the engines
// report as a typed program error.
func (vp *eulerVP) Load(dec *words.Decoder) {
	if f := dec.Uint(); f != eulerFormat {
		panic(fmt.Sprintf("cgmgraph: euler state format %#x, want %#x", f, eulerFormat))
	}
	vp.phase = dec.Uint()
	started := dec.Bool()
	for _, a := range vp.arrays() {
		*a = dec.UintsInto(*a)
	}
	if !started {
		vp.origSucc = nil
	}
	vp.ranker.N = vp.p.numArcs()
	vp.ranker.Load(dec)
}

// arrays lists the VP's saved arrays in their order in a context.
func (vp *eulerVP) arrays() [9]*[]uint64 {
	return [...]*[]uint64{&vp.origSucc, &vp.tail, &vp.head, &vp.pos, &vp.posRev, &vp.parent, &vp.depth, &vp.size, &vp.first}
}

// TreeInfo is the per-vertex result of an Euler tour run. First is
// the vertex's first occurrence in the rooted tour vertex sequence
// (an ancestor-consistent interval numbering: the subtree of v covers
// tour indices [First[v], First[v]+2·Size[v]-2]).
type TreeInfo struct {
	Parent []int // -1 at the root
	Depth  []int
	Size   []int
	First  []int
}

// Output assembles the tree information.
func (p *EulerTour) Output(vps []bsp.VP) TreeInfo {
	info := TreeInfo{
		Parent: make([]int, 0, p.n),
		Depth:  make([]int, 0, p.n),
		Size:   make([]int, 0, p.n),
		First:  make([]int, 0, p.n),
	}
	for _, vp := range vps {
		e := vp.(*eulerVP)
		for i := range e.parent {
			if e.parent[i] == none {
				info.Parent = append(info.Parent, -1)
			} else {
				info.Parent = append(info.Parent, int(e.parent[i]))
			}
			info.Depth = append(info.Depth, int(int64(e.depth[i])))
			info.Size = append(info.Size, int(e.size[i]))
			info.First = append(info.First, int(e.first[i]))
		}
	}
	return info
}
