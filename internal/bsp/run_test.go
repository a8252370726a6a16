package bsp_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/words"
)

func TestRingProgram(t *testing.T) {
	for _, v := range []int{1, 2, 5, 16} {
		for _, rounds := range []int{0, 1, 7} {
			p := &bsptest.RingProgram{V: v, Rounds: rounds}
			res, err := bsp.Run(p, bsp.RunOptions{Seed: 1})
			if err != nil {
				t.Fatalf("v=%d rounds=%d: %v", v, rounds, err)
			}
			for id := 0; id < v; id++ {
				want := bsptest.ExpectedRingAcc(v, rounds, id)
				if got := bsptest.RingAcc(res, id); got != want {
					t.Errorf("v=%d rounds=%d vp=%d: acc=%d, want %d", v, rounds, id, got, want)
				}
			}
			if res.Costs.Supersteps != rounds+1 {
				t.Errorf("v=%d rounds=%d: λ=%d, want %d", v, rounds, res.Costs.Supersteps, rounds+1)
			}
		}
	}
}

func TestValidateContextsMatchesPlainRun(t *testing.T) {
	p := &bsptest.RandomProgram{V: 9, Steps: 4, MsgsPerStep: 3, MaxLen: 5}
	plain, err := bsp.Run(p, bsp.RunOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	checked, err := bsp.Run(p, bsp.RunOptions{Seed: 42, ValidateContexts: true})
	if err != nil {
		t.Fatal(err)
	}
	a, b := bsptest.Checksums(plain), bsptest.Checksums(checked)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("checksum %d differs: %x vs %x", i, a[i], b[i])
		}
	}
}

func TestSeedChangesResult(t *testing.T) {
	p := &bsptest.RandomProgram{V: 8, Steps: 3, MsgsPerStep: 2, MaxLen: 4}
	r1, err := bsp.Run(p, bsp.RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := bsp.Run(p, bsp.RunOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := bsptest.Checksums(r1), bsptest.Checksums(r2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical checksums")
	}
}

func TestRunDeterminism(t *testing.T) {
	p := &bsptest.RandomProgram{V: 8, Steps: 3, MsgsPerStep: 2, MaxLen: 4}
	r1, _ := bsp.Run(p, bsp.RunOptions{Seed: 7})
	r2, _ := bsp.Run(p, bsp.RunOptions{Seed: 7})
	a, b := bsptest.Checksums(r1), bsptest.Checksums(r2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at VP %d", i)
		}
	}
}

// errProg wires arbitrary Step behavior for protocol tests.
type errProg struct {
	v    int
	mu   int
	gam  int
	step func(id int, env *bsp.Env, in []bsp.Message) (bool, error)
}

func (p *errProg) NumVPs() int          { return p.v }
func (p *errProg) MaxContextWords() int { return p.mu }
func (p *errProg) MaxCommWords() int    { return p.gam }
func (p *errProg) NewVP(id int) bsp.VP  { return &errVP{p: p} }

type errVP struct{ p *errProg }

func (v *errVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	return v.p.step(env.ID(), env, in)
}
func (v *errVP) Save(enc *words.Encoder) { enc.PutUint(0) }
func (v *errVP) Load(dec *words.Decoder) { _ = dec.Uint() }

// idKeeper breaks bsp.VP's contract: its Steps add up the id NewVP gave
// it, which no context carries.
type idKeeper struct{ v, steps int }

func (p *idKeeper) NumVPs() int          { return p.v }
func (p *idKeeper) MaxContextWords() int { return 1 }
func (p *idKeeper) MaxCommWords() int    { return 0 }
func (p *idKeeper) NewVP(id int) bsp.VP  { return &idKeeperVP{p: p, id: id} }

type idKeeperVP struct {
	p   *idKeeper
	id  int // set by NewVP and never saved: the bug
	acc uint64
}

func (v *idKeeperVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	v.acc += uint64(v.id)
	return env.Superstep() == v.p.steps, nil
}
func (v *idKeeperVP) Save(enc *words.Encoder) { enc.PutUint(v.acc) }
func (v *idKeeperVP) Load(dec *words.Decoder) { v.acc = dec.Uint() }

// TestValidateContextsCatchesKeptIdentity: ValidateContexts Loads each
// context into the object another VP stepped, as an EM engine's slots
// do, so a VP that takes its id from NewVP instead of Env.ID ends a
// checked run with other results than a plain one.
func TestValidateContextsCatchesKeptIdentity(t *testing.T) {
	p := &idKeeper{v: 4, steps: 3}
	acc := func(opts bsp.RunOptions) []uint64 {
		res, err := bsp.Run(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, p.v)
		for id, vp := range res.VPs {
			out[id] = vp.(*idKeeperVP).acc
		}
		return out
	}
	plain, checked := acc(bsp.RunOptions{Seed: 1}), acc(bsp.RunOptions{Seed: 1, ValidateContexts: true})
	for id := range plain {
		if want := uint64((p.steps + 1) * id); plain[id] != want {
			t.Fatalf("plain run: VP %d acc = %d, want %d", id, plain[id], want)
		}
	}
	if slices.Equal(plain, checked) {
		t.Errorf("a VP that keeps NewVP's id passes ValidateContexts: %v both ways", plain)
	}
}

// sliceKeeper breaks bsp.VP's lifetime rule: its Load keeps the slice
// the object's previous Load decoded, as scratch its Steps write before
// they add one to their own count.
type sliceKeeper struct{ v, steps int }

func (p *sliceKeeper) NumVPs() int          { return p.v }
func (p *sliceKeeper) MaxContextWords() int { return 2 }
func (p *sliceKeeper) MaxCommWords() int    { return 0 }
func (p *sliceKeeper) NewVP(id int) bsp.VP {
	return &sliceKeeperVP{p: p, count: []uint64{uint64(id)}}
}

type sliceKeeperVP struct {
	p       *sliceKeeper
	count   []uint64
	scratch []uint64 // an earlier Load's slice: the bug
}

func (v *sliceKeeperVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	for i := range v.scratch {
		v.scratch[i] = ^uint64(0)
	}
	v.count[0]++
	return env.Superstep() == v.p.steps, nil
}
func (v *sliceKeeperVP) Save(enc *words.Encoder) { enc.PutUints(v.count) }
func (v *sliceKeeperVP) Load(dec *words.Decoder) {
	v.scratch, v.count = v.count, dec.Uints()
}

// TestValidateContextsCatchesKeptSlice: ValidateContexts decodes every
// superstep's contexts from one arena, as an EM engine does, so a VP
// that writes a slice an earlier Load decoded writes over a context
// another VP loaded, and a checked run ends with other results than a
// plain one. With a fresh copy per Load the write went unseen.
func TestValidateContextsCatchesKeptSlice(t *testing.T) {
	p := &sliceKeeper{v: 4, steps: 5}
	counts := func(opts bsp.RunOptions) []uint64 {
		res, err := bsp.Run(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, p.v)
		for id, vp := range res.VPs {
			out[id] = vp.(*sliceKeeperVP).count[0]
		}
		return out
	}
	plain, checked := counts(bsp.RunOptions{Seed: 1}), counts(bsp.RunOptions{Seed: 1, ValidateContexts: true})
	for id := range plain {
		if want := uint64(id + p.steps + 1); plain[id] != want {
			t.Fatalf("plain run: VP %d count = %d, want %d", id, plain[id], want)
		}
	}
	if slices.Equal(plain, checked) {
		t.Errorf("a VP that writes an earlier Load's slice passes ValidateContexts: %v both ways", plain)
	}
}

// wakeProg is an errProg whose VPs count their Steps and record the
// superstep of their last one.
func wakeProg(v int, step func(id int, env *bsp.Env, in []bsp.Message) bool) (p *errProg, steps, last []int) {
	steps, last = make([]int, v), make([]int, v)
	p = &errProg{v: v, mu: 2, gam: 8, step: func(id int, env *bsp.Env, in []bsp.Message) (bool, error) {
		steps[id]++
		last[id] = env.Superstep()
		return step(id, env, in), nil
	}}
	return p, steps, last
}

// TestSleeperIsNotStepped: a VP that votes halt while others go on
// sleeps — it is not stepped again — and the run ends when the last VP
// votes halt.
func TestSleeperIsNotStepped(t *testing.T) {
	p, steps, _ := wakeProg(3, func(id int, env *bsp.Env, _ []bsp.Message) bool {
		return id != 2 || env.Superstep() == 4 // VPs 0 and 1 sleep at once, VP 2 after 5 supersteps
	})
	res, err := bsp.Run(p, bsp.RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 1, 5}; !slices.Equal(steps, want) {
		t.Errorf("Steps per VP = %v, want %v", steps, want)
	}
	if res.Costs.Supersteps != 5 {
		t.Errorf("λ = %d, want 5", res.Costs.Supersteps)
	}
}

// TestMessageWakesSleeper: a message for a sleeper wakes it, and it is
// stepped with that message in the next superstep.
func TestMessageWakesSleeper(t *testing.T) {
	var got []bsp.Message
	p, steps, last := wakeProg(2, func(id int, env *bsp.Env, in []bsp.Message) bool {
		if id == 0 {
			got = append(got, in...)
			return true
		}
		if env.Superstep() == 2 {
			env.Send(0, []uint64{7})
		}
		return env.Superstep() >= 2
	})
	if _, err := bsp.Run(p, bsp.RunOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if steps[0] != 2 || last[0] != 3 {
		t.Errorf("VP 0 stepped %d times, last in superstep %d; want 2, last in 3", steps[0], last[0])
	}
	if len(got) != 1 || got[0].Src != 1 || !slices.Equal(got[0].Payload, []uint64{7}) {
		t.Errorf("VP 0 woke to %v, want one message [7] from VP 1", got)
	}
}

// TestHaltWhileSendingGoesOn: every VP votes halt in a superstep in
// which it sends, so the run goes on — its messages wake their
// receivers — and it ends after the first superstep that sends nothing.
func TestHaltWhileSendingGoesOn(t *testing.T) {
	p, steps, _ := wakeProg(3, func(id int, env *bsp.Env, in []bsp.Message) bool {
		if env.Superstep() < 2 && id != 2 {
			env.Send(id+1, nil) // 0 → 1, 1 → 2: VP 2 wakes in superstep 1, VP 1 in 1, VP 2 again in 2
		}
		return true
	})
	res, err := bsp.Run(p, bsp.RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Costs.Supersteps != 3 {
		t.Errorf("λ = %d, want 3: superstep 2 is the first that sends nothing", res.Costs.Supersteps)
	}
	if want := []int{1, 2, 3}; !slices.Equal(steps, want) {
		t.Errorf("Steps per VP = %v, want %v", steps, want)
	}
}

// TestRunEndsOnQuietAllHalt: a superstep in which every VP sleeps does
// not end the run while it sent a message, nor does a quiet superstep
// with a VP awake.
func TestRunEndsOnQuietAllHalt(t *testing.T) {
	p, _, _ := wakeProg(2, func(id int, env *bsp.Env, in []bsp.Message) bool {
		switch s := env.Superstep(); {
		case id == 1 && s == 0:
			return false // quiet, but awake
		case id == 1 && s == 1:
			env.Send(0, nil) // every VP sleeps after superstep 1, with a message in flight
		}
		return true
	})
	res, err := bsp.Run(p, bsp.RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Costs.Supersteps != 3 {
		t.Errorf("λ = %d, want 3", res.Costs.Supersteps)
	}
}

// TestValidateContextsChecksSleepContract: a sleeper that counts the
// empty Steps it gets changes its context when stepped asleep, so
// ValidateContexts — which steps every sleeper — rejects it, naming it,
// while a plain run, which steps no sleeper, leaves every counter at 0.
// The same program without the counter passes.
func TestValidateContextsChecksSleepContract(t *testing.T) {
	bad := &bsptest.SleeperProgram{V: 4, Rounds: 3, Bump: true}
	res, err := bsp.Run(bad, bsp.RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c := bsptest.SleeperCounters(res.VPs); slices.ContainsFunc(c, func(n uint64) bool { return n != 0 }) {
		t.Errorf("plain run stepped a sleeper: counters %v", c)
	}
	_, err = bsp.Run(bad, bsp.RunOptions{Seed: 1, ValidateContexts: true})
	if err == nil || !strings.Contains(err.Error(), "VP 1 (*bsptest.sleeperVP) broke the sleep contract in superstep 1") ||
		!strings.Contains(err.Error(), "changed its context") {
		t.Errorf("ValidateContexts on a counting sleeper: %v", err)
	}
	good := &bsptest.SleeperProgram{V: 4, Rounds: 3}
	if _, err := bsp.Run(good, bsp.RunOptions{Seed: 1, ValidateContexts: true}); err != nil {
		t.Errorf("ValidateContexts on a sleeper that keeps the contract: %v", err)
	}
}

func TestGammaSendViolation(t *testing.T) {
	p := &errProg{v: 2, mu: 2, gam: 3, step: func(id int, env *bsp.Env, in []bsp.Message) (bool, error) {
		env.Send(0, []uint64{1, 2, 3, 4, 5}) // 6 words > γ=3
		return false, nil
	}}
	if _, err := bsp.Run(p, bsp.RunOptions{Seed: 1}); err == nil {
		t.Error("γ send violation not rejected")
	}
}

func TestGammaRecvViolation(t *testing.T) {
	// Both VPs send 2 words to VP 0 each superstep: recv = 4 > γ = 3.
	p := &errProg{v: 2, mu: 2, gam: 3, step: func(id int, env *bsp.Env, in []bsp.Message) (bool, error) {
		if env.Superstep() >= 2 {
			return true, nil
		}
		env.Send(0, []uint64{1})
		return false, nil
	}}
	if _, err := bsp.Run(p, bsp.RunOptions{Seed: 1}); err == nil {
		t.Error("γ recv violation not rejected")
	}
}

func TestContextOverflowCaught(t *testing.T) {
	p := &errProg{v: 1, mu: 0, gam: 4, step: func(id int, env *bsp.Env, in []bsp.Message) (bool, error) {
		return true, nil
	}}
	p.mu = 1 // Save writes 1 word, fits; set to 0 would fail CheckProgram
	if _, err := bsp.Run(p, bsp.RunOptions{Seed: 1, ValidateContexts: true}); err != nil {
		t.Fatalf("unexpected: %v", err)
	}
	// Now a program whose Save exceeds its declared µ... reuse errVP
	// (Save writes 1 word) with a wrapper declaring µ=1 but writing 2.
	big := &bigCtxProg{}
	if _, err := bsp.Run(big, bsp.RunOptions{Seed: 1, ValidateContexts: true}); err == nil {
		t.Error("context overflow not rejected")
	}
}

type bigCtxProg struct{}

func (p *bigCtxProg) NumVPs() int          { return 1 }
func (p *bigCtxProg) MaxContextWords() int { return 1 }
func (p *bigCtxProg) MaxCommWords() int    { return 1 }
func (p *bigCtxProg) NewVP(id int) bsp.VP  { return &bigCtxVP{} }

type bigCtxVP struct{}

func (v *bigCtxVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) { return true, nil }
func (v *bigCtxVP) Save(enc *words.Encoder)                           { enc.PutUint(0); enc.PutUint(0) }
func (v *bigCtxVP) Load(dec *words.Decoder)                           { _, _ = dec.Uint(), dec.Uint() }

func TestVPErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	p := &errProg{v: 2, mu: 2, gam: 4, step: func(id int, env *bsp.Env, in []bsp.Message) (bool, error) {
		if id == 1 {
			return false, boom
		}
		return false, nil
	}}
	_, err := bsp.Run(p, bsp.RunOptions{Seed: 1})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

// TestMaxSuperstepsGuard: a program that never halts is aborted after
// exactly bsp.MaxSupersteps supersteps.
func TestMaxSuperstepsGuard(t *testing.T) {
	last := -1
	p := &errProg{v: 1, mu: 2, gam: 4, step: func(id int, env *bsp.Env, in []bsp.Message) (bool, error) {
		last = env.Superstep()
		return false, nil // never halts
	}}
	if _, err := bsp.Run(p, bsp.RunOptions{Seed: 1}); err == nil {
		t.Error("runaway program not aborted")
	}
	if last != bsp.MaxSupersteps-1 {
		t.Errorf("last superstep stepped is %d, want %d", last, bsp.MaxSupersteps-1)
	}
}

func TestMessageOrderingBySrcSeq(t *testing.T) {
	// VPs 1 and 2 each send three numbered messages to VP 0, which
	// checks canonical (Src, Seq) order.
	type rec struct{ src, seq, val int }
	var got []rec
	p := &errProg{v: 3, mu: 2, gam: 64, step: func(id int, env *bsp.Env, in []bsp.Message) (bool, error) {
		switch env.Superstep() {
		case 0:
			if id != 0 {
				for i := 0; i < 3; i++ {
					env.Send(0, []uint64{uint64(id*10 + i)})
				}
			}
			return false, nil
		default:
			if id == 0 {
				for _, m := range in {
					got = append(got, rec{m.Src, m.Seq, int(m.Payload[0])})
				}
			}
			return true, nil
		}
	}}
	if _, err := bsp.Run(p, bsp.RunOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	want := []rec{{1, 0, 10}, {1, 1, 11}, {1, 2, 12}, {2, 0, 20}, {2, 1, 21}, {2, 2, 22}}
	if len(got) != len(want) {
		t.Fatalf("got %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("message %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestCostAccounting(t *testing.T) {
	// Superstep 0: VP 0 sends one 9-word payload (10 words with
	// header) to VP 1 and charges 5 ops. Superstep 1: halt.
	p := &errProg{v: 2, mu: 2, gam: 32, step: func(id int, env *bsp.Env, in []bsp.Message) (bool, error) {
		if env.Superstep() == 0 {
			if id == 0 {
				env.Send(1, make([]uint64, 9))
				env.Charge(5)
			}
			return false, nil
		}
		return true, nil
	}}
	res, err := bsp.Run(p, bsp.RunOptions{Seed: 1, PktSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Costs
	if c.Supersteps != 2 {
		t.Fatalf("λ = %d, want 2", c.Supersteps)
	}
	s0, s1 := c.PerStep[0], c.PerStep[1]
	if s0.MaxSendWords != 10 || s0.TotalWords != 10 || s0.Messages != 1 {
		t.Errorf("step0 send accounting: %+v", s0)
	}
	if s0.MaxSendPkts != 3 { // ⌈10/4⌉
		t.Errorf("step0 MaxSendPkts = %d, want 3", s0.MaxSendPkts)
	}
	if s0.MaxCharge != 5 || s0.TotalCharge != 5 {
		t.Errorf("step0 charge: %+v", s0)
	}
	if s1.MaxRecvWords != 10 || s1.MaxRecvPkts != 3 {
		t.Errorf("step1 recv accounting: %+v", s1)
	}
	if got := c.TotalWords(); got != 10 {
		t.Errorf("TotalWords = %d, want 10", got)
	}
	// Model evaluation sanity: BSP* comm time with g=2, L=1 is
	// max(1, 2*3) + max(1, 2*3) = 12.
	params := bsp.CostParams{GUnit: 1, GPkt: 2, Pkt: 4, L: 1}
	if got := c.CommTimeBSPStar(params); got != 12 {
		t.Errorf("CommTimeBSPStar = %v, want 12", got)
	}
}

func TestCheckProgram(t *testing.T) {
	bad := &errProg{v: 0, mu: 1, gam: 1}
	if _, err := bsp.Run(bad, bsp.RunOptions{}); err == nil {
		t.Error("v=0 accepted")
	}
	bad = &errProg{v: 1, mu: 0, gam: 1}
	if _, err := bsp.Run(bad, bsp.RunOptions{}); err == nil {
		t.Error("µ=0 accepted")
	}
}
