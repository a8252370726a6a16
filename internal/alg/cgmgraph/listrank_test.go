package cgmgraph_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"embsp/internal/alg/algtest"
	"embsp/internal/alg/cgmgraph"
	"embsp/internal/bsp"
	"embsp/internal/prng"
	"embsp/internal/words"
)

// randomChains builds a successor array of nLists random disjoint
// chains covering n nodes.
func randomChains(r *prng.Rand, n, nLists int) []int {
	perm := r.Perm(n)
	succ := make([]int, n)
	for i := range succ {
		succ[i] = -1
	}
	if n == 0 {
		return succ
	}
	if nLists < 1 {
		nLists = 1
	}
	// Split the permutation into nLists chains at random cut points.
	cuts := map[int]bool{0: true}
	for len(cuts) < nLists && len(cuts) < n {
		cuts[r.Intn(n)] = true
	}
	for i := 0; i+1 < n; i++ {
		if !cuts[i+1] {
			succ[perm[i]] = perm[i+1]
		}
	}
	return succ
}

// seqRank is the sequential reference.
func seqRank(succ []int, weight []uint64) []uint64 {
	n := len(succ)
	rank := make([]uint64, n)
	done := make([]bool, n)
	var solve func(i int) uint64
	solve = func(i int) uint64 {
		if done[i] {
			return rank[i]
		}
		done[i] = true
		w := uint64(1)
		if weight != nil {
			w = weight[i]
		}
		if succ[i] >= 0 {
			rank[i] = w + solve(succ[i])
		}
		return rank[i]
	}
	for i := range succ {
		solve(i)
	}
	return rank
}

func TestListRankSingleChain(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 100, 333} {
		for _, v := range []int{1, 2, 4, 7} {
			r := prng.New(uint64(n*100 + v))
			succ := randomChains(r, n, 1)
			p, err := cgmgraph.NewListRank(succ, nil, v)
			if err != nil {
				t.Fatal(err)
			}
			res := algtest.RunAll(t, p, 51, func(vps []bsp.VP) []uint64 { return p.Output(vps) })
			got := p.Output(res.VPs)
			want := seqRank(succ, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d v=%d: rank[%d] = %d, want %d", n, v, i, got[i], want[i])
				}
			}
		}
	}
}

func TestListRankMultipleChains(t *testing.T) {
	r := prng.New(3)
	for _, n := range []int{20, 150} {
		for _, lists := range []int{2, 5} {
			succ := randomChains(r, n, lists)
			p, err := cgmgraph.NewListRank(succ, nil, 4)
			if err != nil {
				t.Fatal(err)
			}
			res := algtest.RunAll(t, p, 53, func(vps []bsp.VP) []uint64 { return p.Output(vps) })
			got := p.Output(res.VPs)
			want := seqRank(succ, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d lists=%d: rank[%d] = %d, want %d", n, lists, i, got[i], want[i])
				}
			}
		}
	}
}

func TestListRankWeighted(t *testing.T) {
	r := prng.New(9)
	n := 120
	succ := randomChains(r, n, 3)
	w := make([]uint64, n)
	for i := range w {
		w[i] = uint64(r.Intn(100))
	}
	p, err := cgmgraph.NewListRank(succ, w, 5)
	if err != nil {
		t.Fatal(err)
	}
	res := algtest.RunAll(t, p, 57, func(vps []bsp.VP) []uint64 { return p.Output(vps) })
	got := p.Output(res.VPs)
	want := seqRank(succ, w)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestListRankSignedWeights(t *testing.T) {
	// Two's-complement weights give signed prefix behaviour (used for
	// tree depth via Euler tours): ranks wrap correctly.
	succ := []int{1, 2, 3, -1}
	minusOne := int64(-1)
	w := []uint64{1, uint64(minusOne), 1, 7}
	p, err := cgmgraph.NewListRank(succ, w, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := algtest.RunRef(t, p, 1)
	got := p.Output(res.VPs)
	// rank[3]=0, rank[2]=1, rank[1]=0, rank[0]=1
	want := []uint64{1, 0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestListRankProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := prng.New(seed)
		n := r.Intn(120)
		v := r.Intn(6) + 1
		lists := r.Intn(4) + 1
		succ := randomChains(r, n, lists)
		p, err := cgmgraph.NewListRank(succ, nil, v)
		if err != nil {
			return false
		}
		res, err := bsp.Run(p, bsp.RunOptions{Seed: seed, ValidateContexts: true})
		if err != nil {
			return false
		}
		got := p.Output(res.VPs)
		want := seqRank(succ, nil)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestListRankRejectsBadInput(t *testing.T) {
	if _, err := cgmgraph.NewListRank([]int{0}, nil, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := cgmgraph.NewListRank([]int{5}, nil, 1); err == nil {
		t.Error("out-of-range successor accepted")
	}
	if _, err := cgmgraph.NewListRank([]int{-1}, []uint64{1, 2}, 1); err == nil {
		t.Error("weight length mismatch accepted")
	}
	if _, err := cgmgraph.NewListRank([]int{-1}, nil, 0); err == nil {
		t.Error("v=0 accepted")
	}
}

// links returns the predecessor and successor of every node of succ,
// cgmgraph.None at the ends of a chain.
func links(succ []int) (pred, next []uint64) {
	pred, next = make([]uint64, len(succ)), make([]uint64, len(succ))
	for i := range succ {
		pred[i], next[i] = cgmgraph.None, cgmgraph.None
	}
	for i, s := range succ {
		if s >= 0 {
			next[i], pred[s] = uint64(s), uint64(i)
		}
	}
	return pred, next
}

// TestSpliceRuleIndependentNoTail contracts random chains round by round
// with the Ranker's rule, sequentially: every round's spliced set is
// independent (no two spliced nodes are neighbours) and holds no tail,
// and the rounds go on until every chain is down to its tail.
func TestSpliceRuleIndependentNoTail(t *testing.T) {
	r := prng.New(11)
	const n = 3000
	for _, lists := range []int{1, 7, 300} {
		pred, next := links(randomChains(r, n, lists))
		active, left := make([]bool, n), n
		for i := range active {
			active[i] = true
		}
		spliced := make([]bool, n)
		round := uint64(1)
		for ; left > lists; round++ {
			if round > 200 {
				t.Fatalf("lists=%d: %d nodes left after 200 rounds, want %d tails", lists, left, lists)
			}
			var out []int
			for u := range active {
				spliced[u] = active[u] && cgmgraph.Splices(round, uint64(u), pred[u], next[u])
				if spliced[u] {
					out = append(out, u)
				}
			}
			for _, u := range out {
				if next[u] == cgmgraph.None {
					t.Fatalf("lists=%d round %d: tail %d spliced", lists, round, u)
				}
				if spliced[next[u]] || pred[u] != cgmgraph.None && spliced[pred[u]] {
					t.Fatalf("lists=%d round %d: %d spliced beside a spliced neighbour", lists, round, u)
				}
			}
			for _, u := range out {
				p, s := pred[u], next[u]
				if p != cgmgraph.None {
					next[p] = s
				}
				pred[s] = p
				active[u], spliced[u] = false, false
				left--
			}
		}
	}
}

// TestSpliceRuleRemovesAThird: an interior node is spliced when it beats
// both neighbours, one chance in three, where the coin rule spliced one
// in four. On one chain of 2¹⁶ nodes, round 1 splices between 0.30 and
// 0.37 of the interior nodes.
func TestSpliceRuleRemovesAThird(t *testing.T) {
	const n = 1 << 16
	pred, next := links(randomChains(prng.New(5), n, 1))
	interior, spliced := 0, 0
	for u := range pred {
		if pred[u] == cgmgraph.None || next[u] == cgmgraph.None {
			continue
		}
		interior++
		if cgmgraph.Splices(1, uint64(u), pred[u], next[u]) {
			spliced++
		}
	}
	if f := float64(spliced) / float64(interior); f < 0.30 || f > 0.37 {
		t.Errorf("round 1 spliced %d of %d interior nodes (%.3f), want 0.30–0.37", spliced, interior, f)
	}
}

// rankerSupersteps is λ of a ListRank run as a function of its R
// contraction rounds: the set-up, R splice rounds, the gather, VP 0's
// solve and R + 1 expansion steps. The Ranker has no done protocol: a
// node spliced in round r is ranked by expansion step R − r + 2, so
// every VP, holding the same R, stops after step R + 1.
func rankerSupersteps(rounds int) int { return 1 + rounds + 1 + 1 + rounds + 1 }

// TestRankerRanksByStepRoundsPlusOne: every node is ranked by expansion
// step R + 1 (a node still unranked there fails the run, naming it), on
// the shapes that bend the induction — one chain, n singleton chains,
// chains of length 2, n ≤ rankerThreshold (R = 1), n = 1 and wrapping
// signed weights — through the reference runner and both EM machines,
// and λ is exactly rankerSupersteps(R).
func TestRankerRanksByStepRoundsPlusOne(t *testing.T) {
	r := prng.New(17)
	pairs := make([]int, 200)
	for i := range pairs {
		pairs[i] = -1
		if i%2 == 0 {
			pairs[i] = i + 1
		}
	}
	wrapping := make([]uint64, 300)
	for i := range wrapping {
		wrapping[i] = r.Uint64()
	}
	for _, tc := range []struct {
		name   string
		succ   []int
		weight []uint64
		v      int
		oneR   bool // n ≤ rankerThreshold: VP 0 gathers after round 1
	}{
		{"one chain", randomChains(r, 500, 1), nil, 4, false},
		{"singletons", randomChains(r, 200, 200), nil, 4, false},
		{"pairs", pairs, nil, 4, false},
		{"under threshold", randomChains(r, 16, 2), nil, 4, true},
		{"n=1", []int{-1}, nil, 3, true},
		{"wrapping weights", randomChains(r, 300, 3), wrapping, 5, false},
	} {
		p, err := cgmgraph.NewListRank(tc.succ, tc.weight, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if under := len(tc.succ) <= cgmgraph.RankerThreshold(len(tc.succ), tc.v); under != tc.oneR {
			t.Fatalf("%s: n ≤ threshold is %v", tc.name, under)
		}
		res := algtest.RunAll(t, p, 61, func(vps []bsp.VP) []uint64 { return p.Output(vps) })
		got, want := p.Output(res.VPs), seqRank(tc.succ, tc.weight)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ranks %v, want %v", tc.name, got, want)
		}
		rounds := p.Rounds(res.VPs)
		if tc.oneR && rounds != 1 {
			t.Errorf("%s: %d rounds, want 1", tc.name, rounds)
		}
		if lambda := res.Costs.Supersteps; lambda != rankerSupersteps(rounds) {
			t.Errorf("%s: λ = %d with R = %d, want %d", tc.name, lambda, rounds, rankerSupersteps(rounds))
		}
	}
}

// TestRankerRoundsAtScale: n = 2¹⁴ on v = 32 contracts to the gather
// threshold max(n/v, 4v) = 512 in at most 11 rounds (log₁.₅ 32 ≈ 8.5,
// plus the round VP 0's gather command lags by), where the coin rule
// took about 13.
func TestRankerRoundsAtScale(t *testing.T) {
	succ := randomChains(prng.New(23), 1<<14, 1)
	p, err := cgmgraph.NewListRank(succ, nil, 32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bsp.Run(p, bsp.RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Output(res.VPs), seqRank(succ, nil)) {
		t.Fatal("ranks differ from the sequential reference")
	}
	rounds := p.Rounds(res.VPs)
	if rounds > 11 {
		t.Errorf("%d contraction rounds, want ≤ 11", rounds)
	}
	if res.Costs.Supersteps != rankerSupersteps(rounds) {
		t.Errorf("λ = %d with R = %d, want %d", res.Costs.Supersteps, rounds, rankerSupersteps(rounds))
	}
}

// rankerState is a saved Ranker state of a contraction round, decoded
// from the current layout: format word, phase, rounds, expansion steps,
// Succ, Weight, the state and known flags as bits, pred, and the
// (owned index, subscriber) pairs, every array packed.
type rankerState struct {
	phase, rounds, expand uint64
	succ, weight          []uint64
	state, known          []uint64 // one word a node
	pred                  []uint64
	subs                  [][]uint64 // per owned node, its subscribers
}

func decodeRankerState(w []uint64) rankerState {
	dec := words.NewDecoder(w[1:]) // past the format word
	s := rankerState{phase: dec.Uint(), rounds: dec.Uint(), expand: dec.Uint()}
	s.succ, s.weight = dec.UintsInto(nil), dec.UintsInto(nil)
	own := len(s.succ)
	flags := func() []uint64 {
		f := make([]uint64, own)
		for i := 0; i < own; i += 64 {
			word := dec.Uint()
			for b := i; b < min(i+64, own); b++ {
				f[b] = word >> (b - i) & 1
			}
		}
		return f
	}
	s.state, s.known = flags(), flags()
	s.pred = dec.UintsInto(nil)
	s.subs = make([][]uint64, own)
	pairs := dec.UintsInto(nil)
	for k := 0; k < len(pairs); k += 2 {
		s.subs[pairs[k]] = append(s.subs[pairs[k]], pairs[k+1])
	}
	return s
}

// format2Layout writes s in the layout of rankerFormat 0x524b4c4d02:
// format word, phase, rounds, expansion steps, six node arrays (Succ,
// Weight, Rank, pred, state and known, one word a node each), then one
// length-prefixed subscription list per node of (subscriber, weight)
// pairs. The weights, which only a subscriber's owner knows, are written
// as 0: Load refuses the state at its first word.
func format2Layout(s rankerState, enc *words.Encoder) {
	enc.PutUint(0x524b4c4d02)
	enc.PutUint(s.phase)
	enc.PutUint(s.rounds)
	enc.PutUint(s.expand)
	for _, a := range [][]uint64{s.succ, s.weight, make([]uint64, len(s.succ)), s.pred, s.state, s.known} {
		putPlain(enc, a)
	}
	for _, subs := range s.subs {
		enc.PutUint(uint64(2 * len(subs)))
		for _, u := range subs {
			enc.PutUint(u)
			enc.PutUint(0)
		}
	}
}

// preFormatLayout writes s in the layout the Ranker used before its
// format word: phase, rounds, a done flag where the expansion counter
// is, the six node arrays, then one length-prefixed list holding every
// node's length-prefixed subscription list.
func preFormatLayout(s rankerState, enc *words.Encoder) {
	var f2 words.Encoder
	format2Layout(s, &f2)
	dec := words.NewDecoder(f2.Words()[1:]) // past the format word
	enc.PutUint(dec.Uint())                 // phase
	enc.PutUint(dec.Uint())                 // rounds
	dec.Uint()
	enc.PutBool(false)
	for range 6 {
		putPlain(enc, dec.Uints())
	}
	putPlain(enc, f2.Words()[f2.Len()-dec.Remaining():])
}

// TestRankerRefusesOlderState: a state directory stopped in contraction
// whose contexts are in an older Ranker layout passes the journal's
// fingerprint, which names µ and γ but no program. Its resume fails with
// a typed load error naming the format, and leaves every file byte for
// byte as found. The layouts are the one before the format word — whose
// Splice tag an older Ranker used for a 4-word subscription — format
// 2's, with per-node subscription lists of (subscriber, weight) pairs
// and every node array one word a node, and format 3's, the current one
// with no array packed.
func TestRankerRefusesOlderState(t *testing.T) {
	fromState := func(layout func(rankerState, *words.Encoder)) func([]uint64, *words.Encoder) {
		return func(w []uint64, enc *words.Encoder) { layout(decodeRankerState(w), enc) }
	}
	for _, tc := range []struct {
		name   string
		layout func([]uint64, *words.Encoder)
	}{
		{"pre-format", fromState(preFormatLayout)},
		{"format 2", fromState(format2Layout)},
		{"format 3", func(w []uint64, enc *words.Encoder) { rankerFormat3(words.NewDecoder(w), enc) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			succ := randomChains(prng.New(29), 2048, 1)
			p, err := cgmgraph.NewListRank(succ, nil, 8)
			if err != nil {
				t.Fatal(err)
			}
			refusesOlderState(t, p, 4, tc.layout, "ranker state format") // a contraction round
		})
	}
}

// dirBytes reads every file under root, keyed by relative path.
func dirBytes(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
