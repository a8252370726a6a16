// Package cgmgraph implements the Group C (graph) workloads of the
// paper's Table 1 as CGM programs: list ranking, Euler tour with tree
// applications (parent, depth, subtree size), and connected
// components with spanning forest. The CGM algorithms have λ =
// O(log p)-flavoured round counts (measured λ is reported by the
// bench harness next to the paper's bound).
package cgmgraph

import (
	"fmt"
	"slices"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/prng"
	"embsp/internal/words"
)

// Ranker is an embeddable distributed list-ranking machine in the
// style of the randomized contraction algorithms of Cáceres et al.
// [11]: given n nodes with successor pointers (forming one or more
// disjoint chains) and per-node weights, it computes for every node u
//
//	rank(u) = w(u) + rank(succ(u)),  rank(tail) = 0
//
// i.e. the weighted distance to the end of u's chain (hop count for
// unit weights).
//
// The machine proceeds in three stages:
//
//  1. Contraction rounds: each round splices out the local maxima of a
//     per-round node priority computable from ids alone (an independent
//     set that holds no tail); a spliced node remembers its successor
//     and weight at splice time and subscribes to that successor's
//     rank. Every round ends with a count at VP 0 of the active nodes
//     that are no tail.
//  2. When that count drops below a threshold, VP 0 gathers the
//     remaining chains but their tails, and ranks them sequentially. A
//     tail is ranked 0 by its owner, so inputs of more chains than the
//     threshold gather too.
//  3. Expansion: ranks propagate back through the subscription lists,
//     one splice level per superstep. After R contraction rounds every
//     node is ranked by expansion step R + 1, so every VP stops there.
//
// The host VP embeds a Ranker, fills Succ/Weight for its block of
// nodes (block distribution of n nodes over v VPs), and forwards
// Step/Save/Load until Step reports done. The Ranker owns the inbox
// during its activity.
type Ranker struct {
	// N is the global number of nodes; set before the first Step.
	N int
	// Succ holds successor node ids for the VP's owned block
	// (engine: -1 encoded as MaxUint64 marks a chain tail).
	Succ []uint64
	// Weight holds the per-node weights (interpreted as int64,
	// summed with wraparound; unit ranks use 1).
	Weight []uint64
	// Rank holds the results for the owned block once done (nil
	// before expansion).
	Rank []uint64
	// Rounds counts the contraction rounds used (observable λ).
	Rounds int

	phase  uint64
	expand uint64   // expansion steps taken
	pred   []uint64 // current predecessor per owned node, until expansion
	state  []uint64 // 0 active, 1 spliced
	known  []uint64 // rank known flag
	subs   []uint64 // (owned index, subscriber) pairs, in arrival order

	// The Ranker's own memory, never a decoder's: slot holds pred or
	// Rank, whichever the phase carries, out a Step's records for other
	// VPs, and spliced a splice round's spliced nodes.
	slot    []uint64
	out     parts
	spliced []int
}

// parts lays out a Step's records for other VPs in one buffer its owner
// keeps, each destination's records together in the order they are put:
// a Step counts the words of its records per destination, lays the
// parts out, puts the records it counted and sends one message a
// destination, which Send copies out.
type parts struct {
	flat []uint64
	at   []int // per destination: the words counted, then where its part is filled to
}

// reset starts counting for v destinations.
func (p *parts) reset(v int) {
	p.at = slices.Grow(p.at[:0], v)[:v]
	clear(p.at)
}

// count adds n words for VP d.
func (p *parts) count(d, n int) { p.at[d] += n }

// layout makes room for the words counted, each part after the one
// before.
func (p *parts) layout() {
	end := 0
	for d, n := range p.at {
		p.at[d], end = end, end+n
	}
	p.flat = slices.Grow(p.flat[:0], end)[:end]
}

// put adds a record for VP d, counted before layout.
func (p *parts) put(d int, rec ...uint64) {
	part := p.flat[p.at[d]:]
	for i, w := range rec {
		part[i] = w
	}
	p.at[d] += len(rec)
}

// send sends every destination's part, in destination order: once every
// record counted is put, part d ends where part d+1 begins.
func (p *parts) send(env *bsp.Env) {
	start := 0
	for d, end := range p.at {
		if end > start {
			env.Send(d, p.flat[start:end])
		}
		start = end
	}
}

// The MaxUint64 value marks "none" for node references.
const none = ^uint64(0)

// rankerFormat leads every saved Ranker state. It is above every phase
// value, so a state saved in a layout that began with its phase is
// refused by Load rather than misread; 4 is the layout whose node
// arrays are in half words (words.Encoder.PutUints picks that form for
// them), 3 the one before.
const rankerFormat = 0x524b4c4d04

// Ranker phases.
const (
	rkSetup    = 0 // send pred notifications
	rkContract = 1 // splice rounds
	rkGather   = 2 // ship active chains to VP 0
	rkSolve    = 3 // VP 0 ranks the gathered chains
	rkExpand   = 4 // subscription-driven rank propagation
	rkDone     = 5
)

// Message tags (first payload word).
const (
	rkTagSetPred = iota // (s, pred): the set-up's predecessor notice
	rkTagSetSucc        // (p, succ, w): p's successor was spliced out
	rkTagCount
	rkTagCmd
	rkTagChain
	rkTagRank   // (u, rank): the rank of u's successor
	rkTagSplice // (s, newPred): s's predecessor was spliced out
)

// Commands broadcast by VP 0.
const (
	rkCmdContinue = iota
	rkCmdGather
)

// rankSeed keys the splice priorities. Env.Rand streams are
// (id, superstep)-specific, but priorities must be globally evaluable,
// so they are keyed off a constant; determinism across engines holds
// because the round counter advances identically everywhere.
const rankSeed = 0x9E3779B97F4A7C15

// rankerThreshold is the count of active nodes other than tails below
// which VP 0 gathers the remaining chains (scaled by v so the gather is
// an O(n/v + v) h-relation).
func rankerThreshold(n, v int) int {
	t := cgm.MaxPart(n, v)
	if t < 4*v {
		t = 4 * v
	}
	return t
}

func (r *Ranker) lo(env *bsp.Env) int {
	lo, _ := cgm.Dist(r.N, env.NumVPs(), env.ID())
	return lo
}

// splices reports whether active node u, with predecessor pred and
// successor succ (none at either end of its chain), is spliced out in a
// contraction round: u is no tail, and beats each neighbour it has on
// the round's priority, ties broken by the larger id. Two adjacent nodes
// cannot both beat each other, so the spliced set is independent.
// Priorities are a pure function of (round, node), so any VP can
// evaluate the rule for its nodes without communication.
func splices(round, u, pred, succ uint64) bool {
	if succ == none {
		return false
	}
	pu := prng.Derive(rankSeed, 0xC01, round, u)
	beats := func(b uint64) bool {
		pb := prng.Derive(rankSeed, 0xC01, round, b)
		return pu > pb || pu == pb && u > b
	}
	return beats(succ) && (pred == none || beats(pred))
}

// Step advances the ranking by one superstep, returning true when all
// owned ranks are known.
func (r *Ranker) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	v := env.NumVPs()
	lo := r.lo(env)
	own := len(r.Succ)

	switch r.phase {
	case rkSetup:
		r.state = zeroed(r.state, own)
		r.known = zeroed(r.known, own)
		r.slot = zeroed(r.slot, own)
		r.pred = r.slot
		for i := range r.pred {
			r.pred[i] = none
		}
		r.subs = r.subs[:0]
		var links uint64
		r.out.reset(v)
		for _, s := range r.Succ {
			if s != none {
				r.out.count(cgm.Owner(r.N, v, int(s)), 3)
				links++
			}
		}
		r.out.layout()
		for i, s := range r.Succ {
			if s != none {
				r.out.put(cgm.Owner(r.N, v, int(s)), rkTagSetPred, s, uint64(lo+i))
			}
		}
		r.out.send(env)
		if env.ID() == 0 {
			// Seed the command pipeline.
			for d := 0; d < v; d++ {
				env.Send(d, []uint64{rkTagCmd, rkCmdContinue})
			}
		}
		env.Send(0, []uint64{rkTagCount, links})
		env.Charge(int64(own))
		r.phase = rkContract
		return false, nil

	case rkContract:
		cmd, counts, err := r.applyUpdates(env, in, lo)
		if err != nil {
			return false, err
		}
		if cmd == rkCmdGather {
			// Ship the remaining active nodes to VP 0, but the tails: a
			// tail's rank is 0, and its owner ranks it at expansion step 1.
			// One message, to VP 0.
			chain := append(r.out.flat[:0], rkTagChain)
			for i := range r.state {
				if r.state[i] == 0 && r.Succ[i] != none {
					chain = append(chain, uint64(lo+i), r.Succ[i], r.Weight[i])
				}
			}
			if len(chain) > 1 {
				env.Send(0, chain)
			}
			r.out.flat = chain[:0]
			r.phase = rkSolve
			return false, nil
		}
		if env.ID() == 0 {
			next := rkCmdContinue
			if counts <= uint64(rankerThreshold(r.N, v)) {
				next = rkCmdGather
			}
			for d := 0; d < v; d++ {
				env.Send(d, []uint64{rkTagCmd, uint64(next)})
			}
		}
		// Contraction round: splice out the round's local maxima.
		r.Rounds++
		round := uint64(r.Rounds)
		var links uint64
		r.out.reset(v)
		r.spliced = r.spliced[:0]
		for i := range r.state {
			if r.state[i] != 0 {
				continue
			}
			if !splices(round, uint64(lo+i), r.pred[i], r.Succ[i]) {
				if r.Succ[i] != none {
					links++
				}
				continue
			}
			r.spliced = append(r.spliced, i)
			if r.pred[i] != none {
				r.out.count(cgm.Owner(r.N, v, int(r.pred[i])), 4)
			}
			r.out.count(cgm.Owner(r.N, v, int(r.Succ[i])), 3)
		}
		r.out.layout()
		for _, i := range r.spliced {
			// Splice u = lo+i out: pred.succ = succ(u) (+w), succ.pred =
			// pred(u), and u subscribes to succ(u)'s rank. The successor
			// knows u as its current predecessor, so one record does. It
			// carries no weight: u's is final, and u adds it to the rank
			// it is sent (applyUpdates).
			s, w := r.Succ[i], r.Weight[i]
			if r.pred[i] != none {
				r.out.put(cgm.Owner(r.N, v, int(r.pred[i])), rkTagSetSucc, r.pred[i], s, w)
			}
			r.out.put(cgm.Owner(r.N, v, int(s)), rkTagSplice, s, r.pred[i])
			r.state[i] = 1
		}
		r.out.send(env)
		env.Send(0, []uint64{rkTagCount, links})
		env.Charge(int64(own))
		return false, nil

	case rkSolve:
		// Apply the trailing splice updates that arrived with the
		// gathered chains, then (at VP 0) rank the contracted lists.
		if _, _, err := r.applyUpdates(env, in, lo); err != nil {
			return false, err
		}
		if env.ID() == 0 {
			succ := make(map[uint64]uint64)
			weight := make(map[uint64]uint64)
			hasPred := make(map[uint64]bool)
			for _, m := range in {
				if m.Payload[0] != rkTagChain {
					continue
				}
				p := m.Payload[1:]
				for i := 0; i+3 <= len(p); i += 3 {
					succ[p[i]] = p[i+1]
					weight[p[i]] = p[i+2]
					hasPred[p[i+1]] = true
				}
			}
			// Walk every chain from its head, computing ranks from the
			// tail backwards. A gathered node's successor is gathered too,
			// or is the chain's tail, which stayed with its owner. Each
			// node is sent its successor's rank, as a subscriber is.
			heads := make([]uint64, 0, len(succ))
			for u := range succ {
				if !hasPred[u] {
					heads = append(heads, u)
				}
			}
			slices.Sort(heads)
			ranks := make(map[uint64]uint64)
			for _, u := range heads {
				var path []uint64
				for x, ok := u, true; ok; x = succ[x] {
					path = append(path, x)
					if len(path) > len(succ) {
						return false, fmt.Errorf("cgmgraph: chain longer than node count (cycle?)")
					}
					_, ok = succ[succ[x]]
				}
				var rank uint64
				for i := len(path) - 1; i >= 0; i-- {
					ranks[path[i]] = rank
					rank += weight[path[i]]
				}
			}
			if len(ranks) != len(succ) {
				return false, fmt.Errorf("cgmgraph: ranked %d of %d gathered nodes (cycle?)", len(ranks), len(succ))
			}
			ranked := make([]uint64, 0, len(ranks))
			for u := range ranks {
				ranked = append(ranked, u)
			}
			slices.Sort(ranked)
			r.out.reset(v)
			for _, u := range ranked {
				r.out.count(cgm.Owner(r.N, v, int(u)), 3)
			}
			r.out.layout()
			for _, u := range ranked {
				r.out.put(cgm.Owner(r.N, v, int(u)), rkTagRank, u, ranks[u])
			}
			r.out.send(env)
			env.Charge(int64(len(succ)) * 2)
		}
		// pred is dead from here on, and Rank takes its slot: the
		// Ranker's own memory, never a slice a Load decoded, which
		// belongs to the batch that loaded it.
		r.slot = zeroed(r.slot, own)
		r.pred, r.Rank = nil, r.slot
		r.phase = rkExpand
		return false, nil

	case rkExpand:
		// Gathered nodes and tails are ranked at expansion step 1. A
		// node spliced in round r is ranked by step R − r + 2: its
		// successor at splice time was gathered or a tail, or was spliced
		// in a later round and so ranked by step R − r + 1, and passes its
		// rank on one step later. Every VP holds the same R, so every VP
		// stops after step R + 1.
		if _, _, err := r.applyUpdates(env, in, lo); err != nil {
			return false, err
		}
		r.expand++
		if r.expand == 1 {
			for i := range r.state {
				if r.state[i] == 0 && r.Succ[i] == none {
					r.known[i] = 1
				}
			}
		}
		r.notify(env)
		env.Charge(int64(own))
		if r.expand <= uint64(r.Rounds) {
			return false, nil
		}
		for i, k := range r.known {
			if k == 0 {
				return false, fmt.Errorf("cgmgraph: node %d unranked after %d expansion steps", lo+i, r.expand)
			}
		}
		r.phase = rkDone
		return true, nil

	default:
		return false, fmt.Errorf("cgmgraph: ranker stepped after completion")
	}
}

// applyUpdates processes pointer/rank/subscription messages. It
// returns the command broadcast by VP 0 (or rkCmdContinue) and, at
// VP 0, the summed counter values.
func (r *Ranker) applyUpdates(env *bsp.Env, in []bsp.Message, lo int) (cmd int, counts uint64, err error) {
	cmd = rkCmdContinue
	for _, m := range in {
		p := m.Payload
		i := 0
		for i < len(p) {
			switch p[i] {
			case rkTagSetPred:
				r.pred[int(p[i+1])-lo] = p[i+2]
				i += 3
			case rkTagSetSucc:
				j := int(p[i+1]) - lo
				r.Succ[j] = p[i+2]
				r.Weight[j] += p[i+3]
				i += 4
			case rkTagSplice:
				// s's predecessor u was spliced out, and no other node
				// next to s was (the set is independent), so pred[s]
				// still names u: u subscribes to s's rank, and s takes
				// u's predecessor.
				j := int(p[i+1]) - lo
				r.subs = append(r.subs, uint64(j), r.pred[j])
				r.pred[j] = p[i+2]
				i += 3
			case rkTagRank:
				// u's weight is final: SetSucc reaches active nodes only,
				// and u left them when it was spliced or gathered.
				if j := int(p[i+1]) - lo; r.known[j] == 0 {
					r.known[j] = 1
					r.Rank[j] = p[i+2] + r.Weight[j]
				}
				i += 3
			case rkTagCount:
				counts += p[i+1]
				i += 2
			case rkTagCmd:
				cmd = int(p[i+1])
				i += 2
			case rkTagChain:
				i = len(p) // consumed by the solve phase
			default:
				return 0, 0, fmt.Errorf("cgmgraph: unknown ranker tag %d", p[i])
			}
		}
	}
	return cmd, counts, nil
}

// notify sends each subscriber of a node ranked by now the node's rank,
// one message per destination VP, and drops those subscriptions.
func (r *Ranker) notify(env *bsp.Env) {
	v := env.NumVPs()
	r.out.reset(v)
	for s := 0; s+2 <= len(r.subs); s += 2 {
		if r.known[r.subs[s]] != 0 {
			r.out.count(cgm.Owner(r.N, v, int(r.subs[s+1])), 3)
		}
	}
	r.out.layout()
	kept := r.subs[:0]
	for s := 0; s+2 <= len(r.subs); s += 2 {
		j, u := r.subs[s], r.subs[s+1]
		if r.known[j] == 0 {
			kept = append(kept, j, u)
			continue
		}
		r.out.put(cgm.Owner(r.N, v, int(u)), rkTagRank, u, r.Rank[j])
	}
	r.subs = kept
	r.out.send(env)
}

// zeroed returns s cut to n words, all zero, reallocating when it is
// too small.
func zeroed(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// putFlags saves 0/1 flags as ⌈len(flags)/64⌉ words, flag i at bit i%64
// of word i/64.
func putFlags(enc *words.Encoder, flags []uint64) {
	for i := 0; i < len(flags); i += 64 {
		var w uint64
		for b, f := range flags[i:min(i+64, len(flags))] {
			w |= f << b
		}
		enc.PutUint(w)
	}
}

// getFlags restores n flags saved by putFlags into buf's memory.
func getFlags(dec *words.Decoder, buf []uint64, n int) []uint64 {
	flags := zeroed(buf, n)
	for i := 0; i < n; i += 64 {
		w := dec.Uint()
		for b := range flags[i:min(i+64, n)] {
			flags[i+b] = w >> b & 1
		}
	}
	return flags
}

// Save marshals the Ranker state (N is static host configuration): a
// context carries only what its phase reads. Before the first Step that
// is Succ and Weight. After it come the state and known flags as bits,
// pred until expansion and Rank from then on, and the subscription
// pairs. Every array is packed, two node ids, weights or ranks a word,
// unless a value does not fit in half a word.
func (r *Ranker) Save(enc *words.Encoder) {
	enc.PutUint(rankerFormat)
	enc.PutUint(r.phase)
	enc.PutUint(uint64(r.Rounds))
	enc.PutUint(r.expand)
	enc.PutUints(r.Succ)
	enc.PutUints(r.Weight)
	if r.phase == rkSetup {
		return
	}
	putFlags(enc, r.state)
	putFlags(enc, r.known)
	if r.phase < rkExpand {
		enc.PutUints(r.pred)
	} else {
		enc.PutUints(r.Rank)
	}
	enc.PutUints(r.subs)
}

// Load restores the Ranker; N must already be set by the host. Every
// array is decoded into the Ranker's own memory, reusing its capacity:
// Succ and Weight into theirs, which the Ranker owns once the host has
// set them, pred or Rank, whichever the phase carries, into slot, and
// the other is nil. A state that does not begin with rankerFormat
// panics, which the engines report as a typed program error.
func (r *Ranker) Load(dec *words.Decoder) {
	if f := dec.Uint(); f != rankerFormat {
		panic(fmt.Sprintf("cgmgraph: ranker state format %#x, want %#x", f, rankerFormat))
	}
	r.phase = dec.Uint()
	r.Rounds = int(dec.Uint())
	r.expand = dec.Uint()
	r.Succ = dec.UintsInto(r.Succ)
	r.Weight = dec.UintsInto(r.Weight)
	r.pred, r.Rank = nil, nil
	if r.phase == rkSetup {
		return
	}
	r.state = getFlags(dec, r.state, len(r.Succ))
	r.known = getFlags(dec, r.known, len(r.Succ))
	r.slot = dec.UintsInto(r.slot)
	if r.phase < rkExpand {
		r.pred = r.slot
	} else {
		r.Rank = r.slot
	}
	r.subs = dec.UintsInto(r.subs)
}

// SaveSize bounds Save's output for maxOwn owned nodes and maxSubs
// subscriptions: every array at a word a value, as if none were packed.
func (r *Ranker) SaveSize(maxOwn, maxSubs int) int {
	return 4 + 3*words.SizeUints(maxOwn) + 2*((maxOwn+63)/64) + words.SizeUints(2*maxSubs)
}
