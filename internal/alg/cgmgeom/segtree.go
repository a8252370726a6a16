package cgmgeom

import (
	"fmt"
	"math/bits"
	"sort"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/words"
)

// SegTree builds a segment tree over n intervals in batched fashion
// (the Table 1 "Segment tree construction" row, following the batched
// EM constructions of [5]): the 2n interval endpoints are sorted to
// define elementary slots, every interval is decomposed into its
// O(log n) canonical nodes of a static complete binary tree over the
// slots, and the (node, interval) pairs are sorted by node so that
// each node's interval list is stored contiguously — exactly the
// layout a batched stabbing-query pass consumes.
//
// CGM algorithm (λ = O(1) rounds): one sort of the endpoint records
// (ranks via prefix sums), one route of ranks back to the interval
// owners, a local canonical decomposition, and one sort of the
// (node, interval) pairs.
type SegTree struct {
	v         int
	n         int
	intervals []Segment // Y-fields ignored; [X1, X2] with X1 < X2
}

// NewSegTree returns the program for the given intervals (X1 < X2; Y
// fields ignored) on v VPs.
func NewSegTree(intervals []Segment, v int) (*SegTree, error) {
	if v <= 0 {
		return nil, fmt.Errorf("cgmgeom: v = %d, want > 0", v)
	}
	for i, s := range intervals {
		if !(s.X1 < s.X2) {
			return nil, fmt.Errorf("cgmgeom: interval %d has X1 >= X2", i)
		}
	}
	return &SegTree{v: v, n: len(intervals), intervals: intervals}, nil
}

func (p *SegTree) NumVPs() int { return p.v }

// leaves returns the power-of-two leaf count over the 2n endpoint
// slots (elementary intervals between consecutive endpoint ranks).
func (p *SegTree) leaves() int {
	slots := 2 * p.n
	if slots < 1 {
		slots = 1
	}
	l := 1
	for l < slots {
		l <<= 1
	}
	return l
}

func (p *SegTree) maxPairs() int {
	// Each interval decomposes into at most 2·log₂(leaves) canonical
	// nodes.
	return cgm.MaxPart(p.n, p.v) * (2*bits.Len(uint(p.leaves())) + 2)
}

func (p *SegTree) MaxContextWords() int {
	s2 := cgm.Sorter{W: 2}
	s3 := cgm.Sorter{W: 3}
	return 8 + s2.SaveSize(3*cgm.MaxPart(2*p.n, p.v)+p.v, p.v) +
		s3.SaveSize(3*p.maxPairs()+p.v, p.v) +
		words.SizeUints(4*cgm.MaxPart(p.n, p.v)) + words.SizeUints(3*p.maxPairs())
}

func (p *SegTree) MaxCommWords() int {
	pairSort := 3*p.maxPairs()*3 + p.v*(p.v*3+1) + p.v*((p.v-1)*3+1)
	endSort := 3*cgm.MaxPart(2*p.n, p.v)*2 + p.v*(p.v*2+1) + p.v*((p.v-1)*2+1)
	ranks := 3*cgm.MaxPart(2*p.n, p.v) + p.v
	m := pairSort
	for _, c := range []int{endSort, ranks} {
		if c > m {
			m = c
		}
	}
	return m + 16
}

func (p *SegTree) NewVP(id int) bsp.VP {
	lo, hi := cgm.Dist(p.n, p.v, id)
	recs := make([]uint64, 0, 4*(hi-lo))
	for i := lo; i < hi; i++ {
		s := p.intervals[i]
		// Endpoint records: (key, interval·2+side).
		recs = append(recs,
			cgm.EncodeFloat(s.X1), uint64(i)<<1,
			cgm.EncodeFloat(s.X2), uint64(i)<<1|1)
	}
	return &segTreeVP{p: p, sorter: cgm.Sorter{W: 2, Data: recs}}
}

// SegTree phases.
const (
	stSortEnds = iota // sort endpoint records
	stScan            // exclusive prefix count of sorted endpoints
	stRanks           // route endpoint ranks to interval owners
	stSortPair        // assemble canonical pairs; sort by node
	stDone
)

type segTreeVP struct {
	p      *SegTree
	phase  uint64
	sorter cgm.Sorter
	scan   cgm.Scan
	lo     []uint64 // endpoint ranks for owned intervals
	hi     []uint64
	have   []uint64 // 0..2 ranks received per owned interval
}

func (vp *segTreeVP) ownRange(env *bsp.Env) (int, int) {
	return cgm.Dist(vp.p.n, env.NumVPs(), env.ID())
}

func (vp *segTreeVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	v := env.NumVPs()
	switch vp.phase {
	case stSortEnds:
		done, err := vp.sorter.Step(env, in)
		if err != nil {
			return false, err
		}
		if done {
			vp.scan = cgm.Scan{Value: uint64(len(vp.sorter.Data) / 2)}
			vp.phase = stScan
		}
		return vp.sorter.Idle(), nil

	case stScan:
		done, err := vp.scan.Step(env, in)
		if err != nil {
			return false, err
		}
		if !done {
			return false, nil
		}
		// Route each endpoint's global rank to its interval's owner.
		parts := make([][]uint64, v)
		for i := 0; i*2 < len(vp.sorter.Data); i++ {
			tag := vp.sorter.Data[i*2+1]
			rank := vp.scan.Prefix + uint64(i)
			d := cgm.Owner(vp.p.n, v, int(tag>>1))
			parts[d] = append(parts[d], tag, rank)
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		vp.sorter.Data = nil
		vp.phase = stRanks
		return false, nil

	case stRanks:
		olo, ohi := vp.ownRange(env)
		vp.lo = make([]uint64, ohi-olo)
		vp.hi = make([]uint64, ohi-olo)
		vp.have = make([]uint64, ohi-olo)
		for _, m := range in {
			p := m.Payload
			for i := 0; i+2 <= len(p); i += 2 {
				tag, rank := p[i], p[i+1]
				j := int(tag>>1) - olo
				if tag&1 == 0 {
					vp.lo[j] = rank
				} else {
					vp.hi[j] = rank
				}
				vp.have[j]++
			}
		}
		// Canonical decomposition over the static complete tree: the
		// interval covers elementary slots [lo, hi-1] (slot i spans
		// endpoint ranks i..i+1, so the closed interval covers slots
		// lo..hi-1).
		leaves := vp.p.leaves()
		var pairs []uint64
		for j := 0; j < ohi-olo; j++ {
			if vp.have[j] != 2 {
				return false, fmt.Errorf("cgmgeom: interval %d received %d ranks", olo+j, vp.have[j])
			}
			canonicalNodes(leaves, int(vp.lo[j]), int(vp.hi[j])-1, func(node int) {
				pairs = append(pairs, uint64(node), uint64(olo+j), 0)
			})
		}
		env.Charge(int64(len(pairs)))
		vp.sorter = cgm.Sorter{W: 3, Data: pairs}
		vp.phase = stSortPair
		return vp.Step(env, nil)

	case stSortPair:
		done, err := vp.sorter.Step(env, in)
		if err != nil {
			return false, err
		}
		if !done {
			return vp.sorter.Idle(), nil
		}
		vp.phase = stDone
		return true, nil

	default:
		return false, fmt.Errorf("cgmgeom: segment-tree VP stepped after completion")
	}
}

// canonicalNodes emits the canonical node decomposition of slot range
// [l, r] in a complete binary tree with the given leaf count: nodes
// are numbered heap-style (root 1; leaves leaves..2·leaves-1).
func canonicalNodes(leaves, l, r int, emit func(node int)) {
	if l > r {
		return
	}
	l += leaves
	r += leaves + 1
	for l < r {
		if l&1 == 1 {
			emit(l)
			l++
		}
		if r&1 == 1 {
			r--
			emit(r)
		}
		l >>= 1
		r >>= 1
	}
}

func (vp *segTreeVP) Save(enc *words.Encoder) {
	enc.PutUint(vp.phase)
	vp.sorter.Save(enc)
	vp.scan.Save(enc)
	enc.PutUints(vp.lo)
	enc.PutUints(vp.hi)
	enc.PutUints(vp.have)
}

func (vp *segTreeVP) Load(dec *words.Decoder) {
	vp.phase = dec.Uint()
	if vp.phase <= stScan {
		vp.sorter.W = 2
	} else {
		vp.sorter.W = 3
	}
	vp.sorter.Load(dec)
	vp.scan.Load(dec)
	vp.lo = dec.Uints()
	vp.hi = dec.Uints()
	vp.have = dec.Uints()
}

// Node is one segment-tree node with its interval list.
type Node struct {
	ID        int
	Intervals []int
}

// Output returns the tree's non-empty nodes in node order, each with
// its contiguous interval list — the batched segment-tree layout.
func (p *SegTree) Output(vps []bsp.VP) []Node {
	var flat []uint64
	for _, vp := range vps {
		flat = append(flat, vp.(*segTreeVP).sorter.Data...)
	}
	var out []Node
	for i := 0; i+3 <= len(flat); i += 3 {
		node, iv := int(flat[i]), int(flat[i+1])
		if len(out) == 0 || out[len(out)-1].ID != node {
			out = append(out, Node{ID: node})
		}
		out[len(out)-1].Intervals = append(out[len(out)-1].Intervals, iv)
	}
	return out
}

// Stab returns the intervals containing x, answered from the built
// tree the canonical way: walking the root-to-leaf path of x's
// elementary slot. sortedEnds must be the sorted endpoint keys
// (EncodeFloat order); it locates the slot.
func (p *SegTree) Stab(nodes []Node, sortedEnds []uint64, x float64) []int {
	key := cgm.EncodeFloat(x)
	slot := sort.Search(len(sortedEnds), func(i int) bool { return sortedEnds[i] > key }) - 1
	if slot < 0 || slot >= 2*p.n-1 {
		return nil
	}
	byID := make(map[int]*Node, len(nodes))
	for i := range nodes {
		byID[nodes[i].ID] = &nodes[i]
	}
	var out []int
	for node := p.leaves() + slot; node >= 1; node >>= 1 {
		if nd, ok := byID[node]; ok {
			out = append(out, nd.Intervals...)
		}
	}
	sort.Ints(out)
	return out
}
