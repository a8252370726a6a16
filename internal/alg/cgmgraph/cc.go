package cgmgraph

import (
	"fmt"
	"sort"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/words"
)

// CC computes connected components and a spanning forest of an
// undirected graph (the Table 1 "Connected components / Spanning
// forest" rows), in the hook-and-contract style of the CGM graph
// algorithms of Cáceres et al. [11] (Borůvka rounds with pointer
// jumping):
//
//   - every vertex keeps a parent pointer (initially itself);
//   - each round, every live edge (endpoints in different trees)
//     proposes its neighbour root to both roots; every root with a
//     smaller proposal hooks onto its minimum proposal (recording the
//     proposing edge in the spanning forest — ids strictly decrease,
//     so no cycles form);
//   - pointer-jumping rounds then re-converge all parents to roots,
//     with a count-and-broadcast termination protocol through VP 0;
//   - rounds repeat until no live edge remains.
//
// The final parent of a vertex is the minimum vertex id in its
// component, a canonical component label. Borůvka halves the root
// count per round, so rounds are O(log n); the measured λ is reported
// by the bench harness next to the paper's O(log p) bound.
type CC struct {
	v     int
	n     int
	edges [][2]int
}

// NewCC returns the program for a graph with n vertices and the given
// edge list on v VPs.
func NewCC(n int, edges [][2]int, v int) (*CC, error) {
	if v <= 0 {
		return nil, fmt.Errorf("cgmgraph: v = %d, want > 0", v)
	}
	for i, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n || e[0] == e[1] {
			return nil, fmt.Errorf("cgmgraph: edge %d = %v invalid for %d vertices", i, e, n)
		}
	}
	return &CC{v: v, n: n, edges: edges}, nil
}

func (p *CC) NumVPs() int { return p.v }

func (p *CC) maxVerts() int { return cgm.MaxPart(p.n, p.v) }
func (p *CC) maxEdges() int { return cgm.MaxPart(len(p.edges), p.v) }

func (p *CC) MaxContextWords() int {
	// Vertices (parent), edges (u, v, roots, alive), forest edge ids,
	// candidate buffers, phase words.
	return 16 + words.SizeUints(p.maxVerts()) + 5*words.SizeUints(p.maxEdges()) +
		words.SizeUints(len(p.edges)) + words.SizeUints(2*p.maxVerts())
}

func (p *CC) MaxCommWords() int {
	// Root queries/answers: 4 words per edge endpoint; candidates:
	// 4 words per edge copy; jump traffic: 3 words per vertex;
	// control: O(v).
	c := 8*p.maxEdges() + 8
	if j := 6*p.maxVerts() + 8; j > c {
		c = j
	}
	// A single vertex owner may answer queries for a high-degree
	// vertex: worst case all edges query one owner.
	if q := 8*len(p.edges) + 8; q > c {
		c = q
	}
	return c + 4*p.v + 32
}

// CC phases.
const (
	ccRootQ = iota // edges query endpoint roots
	ccRootA        // vertex owners answer (also: consume live cmd)
	ccHook         // edges send hook candidates + live count
	ccApply        // roots hook; VP 0 broadcasts live verdict
	ccJumpQ        // vertices query parent's parent
	ccJumpA        // owners answer; VP 0 broadcasts jump verdict
	ccJumpU        // apply jumps; send change counts
	ccDone
)

// CC message tags.
const (
	ccTagRootQ = iota
	ccTagRootA
	ccTagCand
	ccTagLive
	ccTagLiveCmd
	ccTagJumpQ
	ccTagJumpA
	ccTagJumpCnt
	ccTagJumpCmd
)

type ccVP struct {
	p     *CC
	phase uint64

	parent []uint64 // owned vertices' parents
	eu, ev []uint64 // owned edges' endpoints
	ru, rv []uint64 // owned edges' endpoint roots (this round)
	alive  []uint64
	forest []uint64 // recorded spanning-forest edge ids

	liveDone  bool // no live edges remained at the last count
	jumpStop  bool // VP 0 signalled jump convergence
	jumpFirst bool // first jump round of this Borůvka phase
	rounds    uint64
}

func (p *CC) NewVP(id int) bsp.VP {
	vlo, vhi := cgm.Dist(p.n, p.v, id)
	elo, ehi := cgm.Dist(len(p.edges), p.v, id)
	vp := &ccVP{
		p:      p,
		parent: make([]uint64, vhi-vlo),
		eu:     make([]uint64, ehi-elo),
		ev:     make([]uint64, ehi-elo),
		ru:     make([]uint64, ehi-elo),
		rv:     make([]uint64, ehi-elo),
		alive:  make([]uint64, ehi-elo),
	}
	for i := vlo; i < vhi; i++ {
		vp.parent[i-vlo] = uint64(i)
	}
	for i := elo; i < ehi; i++ {
		vp.eu[i-elo] = uint64(p.edges[i][0])
		vp.ev[i-elo] = uint64(p.edges[i][1])
		vp.alive[i-elo] = 1
	}
	return vp
}

func (vp *ccVP) vlo(env *bsp.Env) int {
	lo, _ := cgm.Dist(vp.p.n, env.NumVPs(), env.ID())
	return lo
}

func (vp *ccVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	v := env.NumVPs()
	vlo := vp.vlo(env)
	switch vp.phase {
	case ccRootQ:
		// Consume the jump verdict left over from the previous phase
		// (none on the first round).
		for _, m := range in {
			if m.Payload[0] != ccTagJumpCnt && m.Payload[0] != ccTagJumpCmd {
				return false, fmt.Errorf("cgmgraph: cc unexpected tag %d in root query", m.Payload[0])
			}
		}
		parts := make([][]uint64, v)
		for i := range vp.eu {
			if vp.alive[i] == 0 {
				continue
			}
			du := cgm.Owner(vp.p.n, v, int(vp.eu[i]))
			parts[du] = append(parts[du], ccTagRootQ, vp.eu[i], uint64(i), 0)
			dv := cgm.Owner(vp.p.n, v, int(vp.ev[i]))
			parts[dv] = append(parts[dv], ccTagRootQ, vp.ev[i], uint64(i), 1)
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		env.Charge(int64(len(vp.eu)))
		vp.phase = ccRootA
		return false, nil

	case ccRootA:
		parts := make([][]uint64, v)
		for _, m := range in {
			p := m.Payload
			for i := 0; i+4 <= len(p); i += 4 {
				if p[i] != ccTagRootQ {
					return false, fmt.Errorf("cgmgraph: cc unexpected tag %d in root answer", p[i])
				}
				vertex := p[i+1]
				parts[m.Src] = append(parts[m.Src], ccTagRootA, p[i+2], p[i+3], vp.parent[int(vertex)-vlo])
			}
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		vp.phase = ccHook
		return false, nil

	case ccHook:
		for _, m := range in {
			p := m.Payload
			for i := 0; i+4 <= len(p); i += 4 {
				if p[i] != ccTagRootA {
					return false, fmt.Errorf("cgmgraph: cc unexpected tag %d in hook", p[i])
				}
				slot, which, root := p[i+1], p[i+2], p[i+3]
				if which == 0 {
					vp.ru[slot] = root
				} else {
					vp.rv[slot] = root
				}
			}
		}
		parts := make([][]uint64, v)
		var live uint64
		for i := range vp.eu {
			if vp.alive[i] == 0 {
				continue
			}
			if vp.ru[i] == vp.rv[i] {
				vp.alive[i] = 0
				continue
			}
			live++
			elo, _ := cgm.Dist(len(vp.p.edges), v, env.ID())
			eid := uint64(elo + i)
			du := cgm.Owner(vp.p.n, v, int(vp.ru[i]))
			parts[du] = append(parts[du], ccTagCand, vp.ru[i], vp.rv[i], eid)
			dv := cgm.Owner(vp.p.n, v, int(vp.rv[i]))
			parts[dv] = append(parts[dv], ccTagCand, vp.rv[i], vp.ru[i], eid)
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		env.Send(0, []uint64{ccTagLive, live})
		env.Charge(int64(len(vp.eu)))
		vp.phase = ccApply
		return false, nil

	case ccApply:
		vp.rounds++
		type cand struct{ root, other, eid uint64 }
		var cands []cand
		var liveTotal uint64
		for _, m := range in {
			p := m.Payload
			i := 0
			for i < len(p) {
				switch p[i] {
				case ccTagCand:
					cands = append(cands, cand{p[i+1], p[i+2], p[i+3]})
					i += 4
				case ccTagLive:
					liveTotal += p[i+1]
					i += 2
				default:
					return false, fmt.Errorf("cgmgraph: cc unexpected tag %d in apply", p[i])
				}
			}
		}
		// Hook each owned root to its minimum proposal when smaller.
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].root != cands[b].root {
				return cands[a].root < cands[b].root
			}
			if cands[a].other != cands[b].other {
				return cands[a].other < cands[b].other
			}
			return cands[a].eid < cands[b].eid
		})
		for i := 0; i < len(cands); {
			j := i
			best := cands[i]
			for j < len(cands) && cands[j].root == best.root {
				j++
			}
			r := best.root
			if best.other < r && vp.parent[int(r)-vlo] == r {
				vp.parent[int(r)-vlo] = best.other
				vp.forest = append(vp.forest, best.eid)
			}
			i = j
		}
		env.Charge(int64(len(cands)) * 2)
		if env.ID() == 0 {
			verdict := uint64(0)
			if liveTotal == 0 {
				verdict = 1
			}
			for d := 0; d < v; d++ {
				env.Send(d, []uint64{ccTagLiveCmd, verdict})
			}
		}
		vp.jumpFirst = true
		vp.jumpStop = false
		vp.phase = ccJumpQ
		return false, nil

	case ccJumpQ:
		// Consume the live verdict (first jump round) and any jump
		// verdict from the previous jump round.
		for _, m := range in {
			switch m.Payload[0] {
			case ccTagLiveCmd:
				vp.liveDone = m.Payload[1] == 1
			case ccTagJumpCmd:
				vp.jumpStop = m.Payload[1] == 1
			case ccTagJumpCnt:
				// VP 0: counts from the previous jump round; decide.
				// (Handled below after summing.)
			default:
				return false, fmt.Errorf("cgmgraph: cc unexpected tag %d in jump query", m.Payload[0])
			}
		}
		if vp.jumpStop {
			// Parents converged. Either start the next Borůvka round
			// or finish. (Trailing zero-count reports in this inbox
			// were already validated above.)
			if vp.liveDone {
				vp.phase = ccDone
				return true, nil
			}
			vp.phase = ccRootQ
			return vp.Step(env, nil)
		}
		if env.ID() == 0 && !vp.jumpFirst {
			var changed uint64
			for _, m := range in {
				if m.Payload[0] == ccTagJumpCnt {
					changed += m.Payload[1]
				}
			}
			verdict := uint64(0)
			if changed == 0 {
				verdict = 1
			}
			for d := 0; d < v; d++ {
				env.Send(d, []uint64{ccTagJumpCmd, verdict})
			}
		}
		vp.jumpFirst = false
		parts := make([][]uint64, v)
		for i, par := range vp.parent {
			if int(par) == vlo+i {
				continue
			}
			d := cgm.Owner(vp.p.n, v, int(par))
			parts[d] = append(parts[d], ccTagJumpQ, par, uint64(vlo+i))
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		env.Charge(int64(len(vp.parent)))
		vp.phase = ccJumpA
		return false, nil

	case ccJumpA:
		parts := make([][]uint64, v)
		for _, m := range in {
			p := m.Payload
			for i := 0; i < len(p); {
				switch p[i] {
				case ccTagJumpQ:
					parts[m.Src] = append(parts[m.Src], ccTagJumpA, p[i+2], vp.parent[int(p[i+1])-vlo])
					i += 3
				case ccTagJumpCmd:
					vp.jumpStop = m.Payload[i+1] == 1
					i += 2
				default:
					return false, fmt.Errorf("cgmgraph: cc unexpected tag %d in jump answer", p[i])
				}
			}
		}
		for d, part := range parts {
			if len(part) > 0 {
				env.Send(d, part)
			}
		}
		vp.phase = ccJumpU
		return false, nil

	case ccJumpU:
		var changed uint64
		for _, m := range in {
			p := m.Payload
			for i := 0; i+3 <= len(p); i += 3 {
				if p[i] != ccTagJumpA {
					return false, fmt.Errorf("cgmgraph: cc unexpected tag %d in jump update", p[i])
				}
				x, newPar := p[i+1], p[i+2]
				if vp.parent[int(x)-vlo] != newPar {
					vp.parent[int(x)-vlo] = newPar
					changed++
				}
			}
		}
		env.Send(0, []uint64{ccTagJumpCnt, changed})
		env.Charge(int64(len(vp.parent)))
		vp.phase = ccJumpQ
		return false, nil

	default:
		return false, fmt.Errorf("cgmgraph: cc VP stepped after completion")
	}
}

// ccFormat leads every saved CC state. It is above every phase value,
// so a state saved in the layout that began with its phase, with every
// array a word a value, is refused by Load rather than misread.
const ccFormat = 0x43434d5001

// Save marshals the VP's state. Every array holds vertex or edge ids or
// 0/1 flags, so PutUints writes each two values a word while the graph
// has fewer than 2³¹ vertices and edges.
func (vp *ccVP) Save(enc *words.Encoder) {
	enc.PutUint(ccFormat)
	enc.PutUint(vp.phase)
	enc.PutBool(vp.liveDone)
	enc.PutBool(vp.jumpStop)
	enc.PutBool(vp.jumpFirst)
	enc.PutUint(vp.rounds)
	for _, a := range vp.arrays() {
		enc.PutUints(*a)
	}
}

// Load restores the VP, decoding every array into its own memory. A
// state that does not begin with ccFormat panics, which the engines
// report as a typed program error.
func (vp *ccVP) Load(dec *words.Decoder) {
	if f := dec.Uint(); f != ccFormat {
		panic(fmt.Sprintf("cgmgraph: cc state format %#x, want %#x", f, ccFormat))
	}
	vp.phase = dec.Uint()
	vp.liveDone = dec.Bool()
	vp.jumpStop = dec.Bool()
	vp.jumpFirst = dec.Bool()
	vp.rounds = dec.Uint()
	for _, a := range vp.arrays() {
		*a = dec.UintsInto(*a)
	}
}

// arrays lists the VP's saved arrays in their order in a context.
func (vp *ccVP) arrays() [7]*[]uint64 {
	return [...]*[]uint64{&vp.parent, &vp.eu, &vp.ev, &vp.ru, &vp.rv, &vp.alive, &vp.forest}
}

// Output returns the component label (minimum vertex id in the
// component) for every vertex.
func (p *CC) Output(vps []bsp.VP) []int {
	out := make([]int, 0, p.n)
	for _, vp := range vps {
		for _, par := range vp.(*ccVP).parent {
			out = append(out, int(par))
		}
	}
	return out
}

// Forest returns the sorted spanning-forest edge indices.
func (p *CC) Forest(vps []bsp.VP) []int {
	var out []int
	for _, vp := range vps {
		for _, e := range vp.(*ccVP).forest {
			out = append(out, int(e))
		}
	}
	sort.Ints(out)
	return out
}

// Rounds returns the number of Borůvka rounds used.
func (p *CC) Rounds(vps []bsp.VP) int {
	r := uint64(0)
	for _, vp := range vps {
		if x := vp.(*ccVP).rounds; x > r {
			r = x
		}
	}
	return int(r)
}
