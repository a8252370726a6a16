package cgmgraph_test

import (
	"reflect"
	"slices"
	"testing"

	"embsp/internal/alg/cgmgraph"
	"embsp/internal/bsp"
	"embsp/internal/prng"
	"embsp/internal/words"
)

// probe runs a ListRank with hooks on its VPs' Steps and Saves.
type probe struct {
	*cgmgraph.ListRank
	step func(id, step int, in []bsp.Message)
	save func(id, step int, vp bsp.VP, ctx []uint64)
}

func (p *probe) NewVP(id int) bsp.VP { return &probeVP{VP: p.ListRank.NewVP(id), p: p, step: -1} }

// probeVP takes its id from the Env, as the objects rotate.
type probeVP struct {
	bsp.VP
	p        *probe
	id, step int
}

func (v *probeVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	v.id, v.step = env.ID(), env.Superstep()
	if v.p.step != nil {
		v.p.step(v.id, v.step, in)
	}
	return v.VP.Step(env, in)
}

func (v *probeVP) Save(enc *words.Encoder) {
	at := enc.Len()
	v.VP.Save(enc)
	if v.p.save != nil && v.step >= 0 {
		v.p.save(v.id, v.step, v.VP, enc.Words()[at:])
	}
}

// TestRankerContextWords: a Ranker context carries only what its phase
// reads — Succ, Weight, and pred or Rank, the state and known flags as
// bits, and the subscription pairs — and packs two node ids, unit
// weights or ranks a word, so after every superstep each VP's context
// is at most 3·⌈own/2⌉ + 2·⌈own/64⌉ + subs + 8 words, and the declared µ
// holds it.
func TestRankerContextWords(t *testing.T) {
	const n, v = 1 << 12, 8
	succ := randomChains(prng.New(31), n, 1)
	lr, err := cgmgraph.NewListRank(succ, nil, v)
	if err != nil {
		t.Fatal(err)
	}
	saves, maxSubs := 0, 0
	p := &probe{ListRank: lr, save: func(id, step int, vp bsp.VP, ctx []uint64) {
		own, subs := cgmgraph.RankerSizes(vp)
		if bound := 3*((own+1)/2) + 2*((own+63)/64) + subs + 8; len(ctx) > bound {
			t.Errorf("VP %d superstep %d: context of %d words for %d nodes and %d subscriptions, want ≤ %d", id, step, len(ctx), own, subs, bound)
		}
		saves++
		maxSubs = max(maxSubs, subs)
	}}
	res, err := bsp.Run(p, bsp.RunOptions{Seed: 1, ValidateContexts: true})
	if err != nil {
		t.Fatal(err)
	}
	if saves != v*res.Costs.Supersteps || maxSubs == 0 {
		t.Fatalf("%d saves with at most %d subscriptions over %d supersteps", saves, maxSubs, res.Costs.Supersteps)
	}
	vps := make([]bsp.VP, v)
	for id, vp := range res.VPs {
		vps[id] = vp.(*probeVP).VP
	}
	if !reflect.DeepEqual(lr.Output(vps), seqRank(succ, nil)) {
		t.Fatal("ranks differ from the sequential reference")
	}
}

// contractionRound returns VP 0's context as a listrank run of n nodes
// on v VPs loads it for a splice round at or after superstep 3, and the
// messages it receives there.
func contractionRound(t *testing.T, n, v int) (bsp.Program, []uint64, []bsp.Message) {
	t.Helper()
	lr, err := cgmgraph.NewListRank(randomChains(prng.New(37), n, 1), nil, v)
	if err != nil {
		t.Fatal(err)
	}
	var (
		ctx, prev []uint64 // the context loaded at superstep at, and VP 0's last
		prevStep  = -1     // the superstep that saved prev, if it holds subscriptions in a splice round
		in        []bsp.Message
		at        = -1
	)
	p := &probe{ListRank: lr,
		step: func(id, step int, msgs []bsp.Message) {
			if id == 0 && at < 0 && step >= 3 && prevStep == step-1 {
				at, ctx = step, prev
				for _, m := range msgs {
					in = append(in, bsp.Message{Src: m.Src, Dst: m.Dst, Seq: m.Seq, Payload: slices.Clone(m.Payload)})
				}
			}
		},
		save: func(id, step int, vp bsp.VP, w []uint64) {
			if id != 0 {
				return
			}
			if _, subs := cgmgraph.RankerSizes(vp); at < 0 && subs > 0 && cgmgraph.RankerContracting(vp) {
				prev, prevStep = slices.Clone(w), step
			}
			if step == at && !cgmgraph.RankerContracting(vp) {
				t.Errorf("superstep %d is no splice round", at)
			}
		},
	}
	if _, err := bsp.Run(p, bsp.RunOptions{Seed: 1, ValidateContexts: true}); err != nil {
		t.Fatal(err)
	}
	if at < 0 {
		t.Fatalf("n=%d v=%d: no splice round with subscriptions from superstep 3", n, v)
	}
	return lr, ctx, in
}

// TestRankerStepAllocs: the set-up's and a splice round's Load → Step →
// Save on a reused VP object allocate nothing, whatever the owned nodes
// and the subscriptions: every array is decoded into the Ranker's own
// memory, and the set-up's records per destination go into one buffer
// the Ranker keeps.
func TestRankerStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, n := range []int{1 << 11, 1 << 14} {
		const v = 8
		p, ctx, in := contractionRound(t, n, v)
		var setup words.Encoder
		p.NewVP(0).Save(&setup)
		vp := p.NewVP(0)
		var (
			dec words.Decoder
			enc words.Encoder
			env bsp.Env
		)
		round := func(ctx []uint64, step int, in []bsp.Message) func() {
			return func() {
				dec.Reset(ctx, nil)
				vp.Load(&dec)
				env.Reset(0, v, step, 1, func(int, []uint64) {})
				if _, err := vp.Step(&env, in); err != nil {
					t.Fatal(err)
				}
				enc.Reset()
				vp.Save(&enc)
				env.ClearSent()
			}
		}
		for _, r := range []struct {
			name string
			run  func()
		}{
			{"the set-up", round(setup.Words(), 0, nil)},
			{"a splice round", round(ctx, 3, in)},
		} {
			r.run()
			a := testing.AllocsPerRun(20, r.run)
			own, subs := cgmgraph.RankerSizes(vp)
			t.Logf("n=%d: %s of %d nodes and %d subscriptions: %v allocations", n, r.name, own, subs, a)
			if a != 0 {
				t.Errorf("n=%d: %s: %v allocations, want 0", n, r.name, a)
			}
		}
	}
}
