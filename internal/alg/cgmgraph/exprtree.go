package cgmgraph

import (
	"fmt"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/words"
)

// ExprTree evaluates an arithmetic expression tree over ℤ/2⁶⁴ (the
// Table 1 "Tree contraction / Expression tree evaluation" rows) by
// parallel tree contraction: the classic rake operation with linear-
// form labels. Every tree edge carries a function f(x) = a·x + b; a
// leaf c with constant k = f_c(val_c) rakes its parent p away by
// composing p's edge function with (k OP ·) into the sibling's edge —
// both + and × keep the labels linear over ℤ/2⁶⁴.
//
// Rakes proceed in rounds over the left-to-right leaf numbering
// (obtained from an embedded Euler tour): first the odd-numbered
// leaves that are "left" children, then the odd-numbered "right"
// ones — the standard schedule in which no two raked parents coincide
// or are adjacent — after which leaf numbers halve. Leaves halve per
// round, so O(log n) rounds; when few nodes remain they are gathered
// to VP 0 and finished sequentially, as in the list-ranking machine.
//
// Operators are commutative (+, ×), so the Euler tour's
// neighbour-sorted embedding is a valid left-to-right order.
type ExprTree struct {
	v      int
	n      int
	parent []int
	kind   []uint8 // OpLeaf, OpAdd, OpMul
	value  []uint64
	euler  *EulerTour
}

// Expression node kinds.
const (
	OpLeaf uint8 = iota
	OpAdd
	OpMul
)

// NewExprTree returns the program for an expression tree with n nodes
// rooted at node 0: parent[i] is node i's parent (-1 for the root),
// kind[i] its operator, value[i] its constant (leaves only). Internal
// nodes must have exactly two children.
func NewExprTree(parent []int, kind []uint8, value []uint64, v int) (*ExprTree, error) {
	n := len(parent)
	if v <= 0 {
		return nil, fmt.Errorf("cgmgraph: v = %d, want > 0", v)
	}
	if len(kind) != n || len(value) != n {
		return nil, fmt.Errorf("cgmgraph: parent/kind/value lengths differ")
	}
	if n == 0 || parent[0] != -1 {
		return nil, fmt.Errorf("cgmgraph: node 0 must be the root (parent -1)")
	}
	childCount := make([]int, n)
	edges := make([][2]int, 0, n-1)
	for i := 1; i < n; i++ {
		if parent[i] < 0 || parent[i] >= n || parent[i] == i {
			return nil, fmt.Errorf("cgmgraph: parent[%d] = %d invalid", i, parent[i])
		}
		childCount[parent[i]]++
		edges = append(edges, [2]int{parent[i], i})
	}
	for i := 0; i < n; i++ {
		switch kind[i] {
		case OpLeaf:
			if childCount[i] != 0 {
				return nil, fmt.Errorf("cgmgraph: leaf %d has %d children", i, childCount[i])
			}
		case OpAdd, OpMul:
			if childCount[i] != 2 {
				return nil, fmt.Errorf("cgmgraph: operator node %d has %d children, want 2", i, childCount[i])
			}
		default:
			return nil, fmt.Errorf("cgmgraph: node %d has unknown kind %d", i, kind[i])
		}
	}
	euler, err := NewEulerTour(n, edges, v)
	if err != nil {
		return nil, err
	}
	return &ExprTree{v: v, n: n, parent: parent, kind: kind, value: value, euler: euler}, nil
}

func (p *ExprTree) NumVPs() int { return p.v }

func (p *ExprTree) maxOwn() int { return cgm.MaxPart(p.n, p.v) }

func (p *ExprTree) MaxContextWords() int {
	s := cgm.Sorter{W: 2}
	// Euler state, per-node tables, leaf-number sorter and scan,
	// result, phase words.
	return 32 + p.euler.MaxContextWords() + 12*words.SizeUints(p.maxOwn()) +
		s.SaveSize(3*p.maxOwn()+p.v, p.v) + cgm.ScanSaveWords
}

func (p *ExprTree) MaxCommWords() int {
	c := p.euler.MaxCommWords()
	// Children collection / sides / rakes / composes: O(1) words per
	// node per superstep; a star parent can receive O(n).
	if t := 8*p.n + 4*p.v + 64; t > c {
		c = t
	}
	thr := rankerThreshold(p.n, p.v)
	if g := 12*thr + 4*p.v + 64; g > c {
		c = g
	}
	return c
}

// ExprTree phases.
const (
	etEuler   = iota // embedded Euler tour (first occurrences)
	etKids           // children report to parents
	etSides          // parents assign child sides; leaves enter sorter
	etLeafNum        // leaf-number sorter (4) + scan (3) + absorb
	etRakeA          // VP 0 reads counts + broadcasts verdict; odd left leaves rake
	etRakeB          // parents process rakes; verdict consumed
	etRakeC          // apply updates; odd right leaves rake
	etRakeD          // parents process rakes
	etRakeE          // apply updates; renumber; counts to VP 0 (or gather)
	etSolve          // VP 0 evaluates the gathered remnant; broadcasts done
	etDone           // consume done; halt
)

// ExprTree message tags.
const (
	etTagKid = iota
	etTagSide
	etTagLeafNum
	etTagRake
	etTagCompose
	etTagReplace
	etTagCount
	etTagCmd
	etTagNode
)

type exprVP struct {
	p     *ExprTree
	euler *eulerVP
	phase uint64

	sorter cgm.Sorter // leaf numbering: (first, id) records
	scan   cgm.Scan
	numSub uint64 // sub-phase within etLeafNum

	// Per owned node state (flattened over the owned vertex block).
	alive   []uint64
	par     []uint64 // current parent (changes as nodes are bypassed)
	side    []uint64 // 0 left, 1 right, none at the (current) root
	childL  []uint64
	childR  []uint64
	leafNum []uint64 // 1-based, none for internal nodes
	fa, fb  []uint64 // edge function f(x) = fa·x + fb
	val     []uint64 // leaf constants

	gather  bool   // VP 0 signalled the endgame
	result  uint64 // valid at VP 0 once done
	haveRes uint64
}

func (p *ExprTree) NewVP(id int) bsp.VP {
	return &exprVP{p: p, euler: p.euler.NewVP(id).(*eulerVP)}
}

func (vp *exprVP) vertRange(env *bsp.Env) (int, int) {
	return cgm.Dist(vp.p.n, env.NumVPs(), env.ID())
}

// composeOp returns g = f_p ∘ (k OP ·) as a linear form.
func composeOp(fa, fb, k uint64, kind uint8) (ga, gb uint64) {
	if kind == OpAdd { // f_p(y + k) = fa·y + (fa·k + fb)
		return fa, fa*k + fb
	}
	// OpMul: f_p(k·y) = (fa·k)·y + fb
	return fa * k, fb
}

func (vp *exprVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	v := env.NumVPs()
	vlo, vhi := vp.vertRange(env)
	own := vhi - vlo
	switch vp.phase {
	case etEuler:
		done, err := vp.euler.Step(env, in)
		if err != nil {
			return false, err
		}
		if !done {
			return false, nil
		}
		// Initialize node state and report each child to its parent
		// with its first occurrence (for side assignment).
		vp.alive = make([]uint64, own)
		vp.par = make([]uint64, own)
		vp.side = make([]uint64, own)
		vp.childL = make([]uint64, own)
		vp.childR = make([]uint64, own)
		vp.leafNum = make([]uint64, own)
		vp.fa = make([]uint64, own)
		vp.fb = make([]uint64, own)
		vp.val = make([]uint64, own)
		parts := make([][]uint64, v)
		for i := 0; i < own; i++ {
			id := vlo + i
			vp.alive[i] = 1
			vp.side[i] = none
			vp.par[i] = none
			vp.childL[i], vp.childR[i] = none, none
			vp.leafNum[i] = none
			vp.fa[i], vp.fb[i] = 1, 0
			vp.val[i] = vp.p.value[id]
			if par := vp.p.parent[id]; par >= 0 {
				vp.par[i] = uint64(par)
				d := cgm.Owner(vp.p.n, v, par)
				parts[d] = append(parts[d], etTagKid, uint64(par), uint64(id), vp.euler.first[i])
			}
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		env.Charge(int64(own))
		vp.phase = etKids
		return false, nil

	case etKids:
		// Parents order their two children by first occurrence and
		// tell each child its side.
		type kid struct{ id, first uint64 }
		kids := make(map[int][]kid)
		for _, m := range in {
			p := m.Payload
			for i := 0; i+4 <= len(p); i += 4 {
				if p[i] != etTagKid {
					return false, fmt.Errorf("cgmgraph: expr unexpected tag %d in kids", p[i])
				}
				kids[int(p[i+1])] = append(kids[int(p[i+1])], kid{p[i+2], p[i+3]})
			}
		}
		parts := make([][]uint64, v)
		for par := vlo; par < vhi; par++ {
			ks := kids[par]
			if len(ks) == 0 {
				continue
			}
			if len(ks) != 2 {
				return false, fmt.Errorf("cgmgraph: node %d received %d child reports", par, len(ks))
			}
			if ks[0].first > ks[1].first {
				ks[0], ks[1] = ks[1], ks[0]
			}
			vp.childL[par-vlo], vp.childR[par-vlo] = ks[0].id, ks[1].id
			for s, k := range ks {
				d := cgm.Owner(vp.p.n, v, int(k.id))
				parts[d] = append(parts[d], etTagSide, k.id, uint64(s))
			}
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		vp.phase = etSides
		return false, nil

	case etSides:
		for _, m := range in {
			p := m.Payload
			for i := 0; i+3 <= len(p); i += 3 {
				if p[i] != etTagSide {
					return false, fmt.Errorf("cgmgraph: expr unexpected tag %d in sides", p[i])
				}
				vp.side[int(p[i+1])-vlo] = p[i+2]
			}
		}
		// Enter the leaf-numbering sorter with (first, id) records.
		recs := make([]uint64, 0, 2*own)
		for i := 0; i < own; i++ {
			if vp.p.kind[vlo+i] == OpLeaf {
				recs = append(recs, vp.euler.first[i], uint64(vlo+i))
			}
		}
		vp.sorter = cgm.Sorter{W: 2, Data: recs}
		vp.numSub = 0
		vp.phase = etLeafNum
		return vp.Step(env, nil)

	case etLeafNum:
		switch vp.numSub {
		case 0: // sorter supersteps
			done, err := vp.sorter.Step(env, in)
			if err != nil {
				return false, err
			}
			if done {
				vp.scan = cgm.Scan{Value: uint64(len(vp.sorter.Data) / 2)}
				vp.numSub = 1
			}
			return vp.sorter.Idle(), nil
		case 1: // scan supersteps
			done, err := vp.scan.Step(env, in)
			if err != nil {
				return false, err
			}
			if !done {
				return false, nil
			}
			// Route 1-based leaf numbers home.
			parts := make([][]uint64, v)
			for i := 0; i*2 < len(vp.sorter.Data); i++ {
				id := vp.sorter.Data[i*2+1]
				num := vp.scan.Prefix + uint64(i) + 1
				d := cgm.Owner(vp.p.n, v, int(id))
				parts[d] = append(parts[d], etTagLeafNum, id, num)
			}
			for d, part := range parts {
				if len(part) > 0 {
					env.Send(d, part)
				}
			}
			vp.sorter.Data = nil
			vp.numSub = 2
			return false, nil
		default: // absorb numbers, start the first rake round
			for _, m := range in {
				p := m.Payload
				for i := 0; i+3 <= len(p); i += 3 {
					if p[i] != etTagLeafNum {
						return false, fmt.Errorf("cgmgraph: expr unexpected tag %d in leaf numbering", p[i])
					}
					vp.leafNum[int(p[i+1])-vlo] = p[i+2]
				}
			}
			vp.phase = etRakeA
			return vp.Step(env, nil)
		}

	case etRakeA:
		// VP 0: the previous round's counts arrive here; broadcast
		// the verdict (consumed at etRakeB).
		if env.ID() == 0 {
			var counts uint64
			saw := false
			for _, m := range in {
				if m.Payload[0] == etTagCount {
					counts += m.Payload[1]
					saw = true
				}
			}
			if saw {
				verdict := uint64(0)
				if counts <= uint64(rankerThreshold(vp.p.n, v)) {
					verdict = 1
				}
				for d := 0; d < v; d++ {
					env.Send(d, []uint64{etTagCmd, verdict})
				}
			}
		}
		if err := vp.sendRakes(env, 0, vlo, own); err != nil {
			return false, err
		}
		vp.phase = etRakeB
		return false, nil

	case etRakeB, etRakeD:
		if err := vp.processRakes(env, in, vlo); err != nil {
			return false, err
		}
		vp.phase++
		return false, nil

	case etRakeC:
		if err := vp.applyUpdates(env, in, vlo); err != nil {
			return false, err
		}
		if err := vp.sendRakes(env, 1, vlo, own); err != nil {
			return false, err
		}
		vp.phase = etRakeD
		return false, nil

	case etRakeE:
		if err := vp.applyUpdates(env, in, vlo); err != nil {
			return false, err
		}
		if vp.gather {
			// Endgame: ship alive nodes to VP 0.
			var payload []uint64
			for i := 0; i < own; i++ {
				if vp.alive[i] == 1 {
					payload = append(payload, etTagNode, uint64(vlo+i), vp.par[i],
						vp.fa[i], vp.fb[i], vp.childL[i], vp.childR[i])
				}
			}
			if len(payload) > 0 {
				env.Send(0, payload)
			}
			vp.phase = etSolve
			return false, nil
		}
		var count uint64
		for i := 0; i < own; i++ {
			if vp.alive[i] == 1 {
				count++
				if vp.leafNum[i] != none {
					vp.leafNum[i] = (vp.leafNum[i] + 1) / 2
				}
			}
		}
		env.Send(0, []uint64{etTagCount, count})
		env.Charge(int64(own))
		vp.phase = etRakeA
		return false, nil

	case etSolve:
		if env.ID() == 0 {
			if err := vp.solve(in); err != nil {
				return false, err
			}
			for d := 0; d < v; d++ {
				env.Send(d, []uint64{etTagCmd, 2})
			}
		}
		vp.phase = etDone
		return false, nil

	case etDone:
		for _, m := range in {
			if m.Payload[0] != etTagCmd || m.Payload[1] != 2 {
				return false, fmt.Errorf("cgmgraph: expr unexpected message at completion")
			}
		}
		return true, nil

	default:
		return false, fmt.Errorf("cgmgraph: expr VP stepped after completion (phase %d)", vp.phase)
	}
}

// sendRakes lets every odd-numbered alive leaf on the given side rake
// its parent.
func (vp *exprVP) sendRakes(env *bsp.Env, wantSide uint64, vlo, own int) error {
	v := env.NumVPs()
	parts := make([][]uint64, v)
	for i := 0; i < own; i++ {
		id := vlo + i
		if vp.alive[i] == 0 || vp.p.kind[id] != OpLeaf {
			continue
		}
		if vp.par[i] == none {
			continue // the final survivor
		}
		if vp.leafNum[i]%2 == 1 && vp.side[i] == wantSide {
			k := vp.fa[i]*vp.val[i] + vp.fb[i]
			d := cgm.Owner(vp.p.n, v, int(vp.par[i]))
			parts[d] = append(parts[d], etTagRake, vp.par[i], uint64(id), k)
			vp.alive[i] = 0
		}
	}
	for d, part := range parts {
		if len(part) > 0 {
			env.Send(d, part)
		}
	}
	env.Charge(int64(own))
	return nil
}

// processRakes bypasses every raked parent: the sibling inherits the
// composed edge function and the grandparent replaces its child
// pointer. The verdict broadcast from VP 0 (etTagCmd) is also
// consumed here.
func (vp *exprVP) processRakes(env *bsp.Env, in []bsp.Message, vlo int) error {
	v := env.NumVPs()
	parts := make([][]uint64, v)
	for _, m := range in {
		p := m.Payload
		i := 0
		for i < len(p) {
			switch p[i] {
			case etTagCmd:
				if p[i+1] == 1 {
					vp.gather = true
				}
				i += 2
			case etTagRake:
				par := int(p[i+1])
				child := p[i+2]
				k := p[i+3]
				j := par - vlo
				if vp.alive[j] == 0 {
					return fmt.Errorf("cgmgraph: rake into dead node %d", par)
				}
				var sib uint64
				switch child {
				case vp.childL[j]:
					sib = vp.childR[j]
				case vp.childR[j]:
					sib = vp.childL[j]
				default:
					return fmt.Errorf("cgmgraph: rake from non-child %d of %d", child, par)
				}
				ga, gb := composeOp(vp.fa[j], vp.fb[j], k, vp.p.kind[par])
				ds := cgm.Owner(vp.p.n, v, int(sib))
				parts[ds] = append(parts[ds], etTagCompose, sib, ga, gb, vp.par[j], vp.side[j])
				if vp.par[j] != none {
					dg := cgm.Owner(vp.p.n, v, int(vp.par[j]))
					parts[dg] = append(parts[dg], etTagReplace, vp.par[j], uint64(par), sib)
				}
				vp.alive[j] = 0
				i += 4
			default:
				return fmt.Errorf("cgmgraph: expr unexpected tag %d in rake processing", p[i])
			}
		}
	}
	for d, part := range parts {
		if len(part) > 0 {
			env.Send(d, part)
		}
	}
	return nil
}

// applyUpdates processes compose/replace messages (and any verdict).
func (vp *exprVP) applyUpdates(env *bsp.Env, in []bsp.Message, vlo int) error {
	for _, m := range in {
		p := m.Payload
		i := 0
		for i < len(p) {
			switch p[i] {
			case etTagCmd:
				if p[i+1] == 1 {
					vp.gather = true
				}
				i += 2
			case etTagCompose:
				j := int(p[i+1]) - vlo
				ga, gb := p[i+2], p[i+3]
				vp.fa[j], vp.fb[j] = ga*vp.fa[j], ga*vp.fb[j]+gb
				vp.par[j] = p[i+4]
				vp.side[j] = p[i+5]
				i += 6
			case etTagReplace:
				j := int(p[i+1]) - vlo
				switch p[i+2] {
				case vp.childL[j]:
					vp.childL[j] = p[i+3]
				case vp.childR[j]:
					vp.childR[j] = p[i+3]
				default:
					return fmt.Errorf("cgmgraph: replace of non-child %d at %d", p[i+2], p[i+1])
				}
				i += 4
			default:
				return fmt.Errorf("cgmgraph: expr unexpected tag %d in update", p[i])
			}
		}
	}
	return nil
}

// solve evaluates the gathered remnant at VP 0.
func (vp *exprVP) solve(in []bsp.Message) error {
	type node struct {
		par, fa, fb, cl, cr uint64
	}
	nodes := make(map[uint64]node)
	for _, m := range in {
		p := m.Payload
		for i := 0; i+7 <= len(p); i += 7 {
			if p[i] != etTagNode {
				return fmt.Errorf("cgmgraph: expr unexpected tag %d in solve", p[i])
			}
			nodes[p[i+1]] = node{p[i+2], p[i+3], p[i+4], p[i+5], p[i+6]}
		}
	}
	if len(nodes) == 0 {
		return fmt.Errorf("cgmgraph: nothing gathered at VP 0")
	}
	var contributed func(id uint64, depth int) (uint64, error)
	contributed = func(id uint64, depth int) (uint64, error) {
		if depth > len(nodes) {
			return 0, fmt.Errorf("cgmgraph: cycle in gathered remnant")
		}
		nd, ok := nodes[id]
		if !ok {
			return 0, fmt.Errorf("cgmgraph: gathered remnant misses node %d", id)
		}
		var raw uint64
		if vp.p.kind[id] == OpLeaf {
			raw = vp.p.value[id]
		} else {
			a, err := contributed(nd.cl, depth+1)
			if err != nil {
				return 0, err
			}
			b, err := contributed(nd.cr, depth+1)
			if err != nil {
				return 0, err
			}
			if vp.p.kind[id] == OpAdd {
				raw = a + b
			} else {
				raw = a * b
			}
		}
		return nd.fa*raw + nd.fb, nil
	}
	var root uint64 = none
	for id, nd := range nodes {
		if nd.par == none {
			if root != none {
				return fmt.Errorf("cgmgraph: gathered remnant has two roots (%d, %d)", root, id)
			}
			root = id
		}
	}
	if root == none {
		return fmt.Errorf("cgmgraph: gathered remnant has no root")
	}
	res, err := contributed(root, 0)
	if err != nil {
		return err
	}
	vp.result = res
	vp.haveRes = 1
	return nil
}

func (vp *exprVP) Save(enc *words.Encoder) {
	enc.PutUint(vp.phase)
	enc.PutUint(vp.numSub)
	enc.PutBool(vp.gather)
	enc.PutUint(vp.result)
	enc.PutUint(vp.haveRes)
	vp.euler.Save(enc)
	vp.sorter.Save(enc)
	vp.scan.Save(enc)
	enc.PutUints(vp.alive)
	enc.PutUints(vp.par)
	enc.PutUints(vp.side)
	enc.PutUints(vp.childL)
	enc.PutUints(vp.childR)
	enc.PutUints(vp.leafNum)
	enc.PutUints(vp.fa)
	enc.PutUints(vp.fb)
	enc.PutUints(vp.val)
}

func (vp *exprVP) Load(dec *words.Decoder) {
	vp.phase = dec.Uint()
	vp.numSub = dec.Uint()
	vp.gather = dec.Bool()
	vp.result = dec.Uint()
	vp.haveRes = dec.Uint()
	vp.euler.Load(dec)
	vp.sorter.W = 2
	vp.sorter.Load(dec)
	vp.scan.Load(dec)
	vp.alive = dec.Uints()
	vp.par = dec.Uints()
	vp.side = dec.Uints()
	vp.childL = dec.Uints()
	vp.childR = dec.Uints()
	vp.leafNum = dec.Uints()
	vp.fa = dec.Uints()
	vp.fb = dec.Uints()
	vp.val = dec.Uints()
}

// Output returns the expression value (held by VP 0).
func (p *ExprTree) Output(vps []bsp.VP) uint64 {
	return vps[0].(*exprVP).result
}
