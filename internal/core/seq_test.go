package core_test

import (
	"slices"
	"testing"
	"testing/quick"

	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/core"
	"embsp/internal/prng"
	"embsp/internal/words"
)

func tinyMachine(d, b, m int) core.MachineConfig {
	return core.MachineConfig{
		P: 1, M: m, D: d, B: b, G: 10,
		Cost: bsp.CostParams{GUnit: 1, GPkt: 2, Pkt: b, L: 5},
	}
}

func TestSeqRingMatchesReference(t *testing.T) {
	for _, d := range []int{1, 2, 4} {
		for _, v := range []int{1, 3, 8, 17} {
			p := &bsptest.RingProgram{V: v, Rounds: 5}
			ref, err := bsp.Run(p, bsp.RunOptions{Seed: 11, PktSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			cfg := tinyMachine(d, 8, 64) // µ=4 ⇒ k=16, small B forces real blocking
			res, err := core.Run(p, cfg, core.Options{Seed: 11})
			if err != nil {
				t.Fatalf("D=%d v=%d: %v", d, v, err)
			}
			for id := 0; id < v; id++ {
				if got, want := bsptest.RingAcc(res.ToBSPResult(), id), bsptest.RingAcc(ref, id); got != want {
					t.Errorf("D=%d v=%d vp=%d: acc=%d, want %d", d, v, id, got, want)
				}
			}
			if res.Costs.Supersteps != ref.Costs.Supersteps {
				t.Errorf("D=%d v=%d: λ=%d, want %d", d, v, res.Costs.Supersteps, ref.Costs.Supersteps)
			}
		}
	}
}

func TestSeqRandomProgramEquivalence(t *testing.T) {
	// The central fidelity property: the EM engine produces bitwise
	// identical results to the in-memory reference on randomized
	// message traffic, for every machine shape.
	f := func(seed uint64) bool {
		r := prng.New(seed)
		v := r.Intn(20) + 1
		p := &bsptest.RandomProgram{
			V:           v,
			Steps:       r.Intn(4) + 1,
			MsgsPerStep: r.Intn(4),
			MaxLen:      r.Intn(20),
		}
		ref, err := bsp.Run(p, bsp.RunOptions{Seed: seed, PktSize: 8})
		if err != nil {
			return false
		}
		d := r.Intn(4) + 1
		b := 8 + r.Intn(8)
		m := d*b + r.Intn(200)
		cfg := tinyMachine(d, b, m)
		res, err := core.Run(p, cfg, core.Options{Seed: seed})
		if err != nil {
			return false
		}
		a, bb := bsptest.Checksums(ref), bsptest.Checksums(res.ToBSPResult())
		for i := range a {
			if a[i] != bb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSeqDeterministicModeEquivalent(t *testing.T) {
	p := &bsptest.RandomProgram{V: 12, Steps: 3, MsgsPerStep: 3, MaxLen: 10}
	cfg := tinyMachine(4, 8, 128)
	a, err := core.Run(p, cfg, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Run(p, cfg, core.Options{Seed: 5, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := bsptest.Checksums(a.ToBSPResult()), bsptest.Checksums(b.ToBSPResult())
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("deterministic placement changed program output at VP %d", i)
		}
	}
	// Deterministic runs must be reproducible op-for-op.
	b2, err := core.Run(p, cfg, core.Options{Seed: 5, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	if b.EM.Run.Ops != b2.EM.Run.Ops {
		t.Errorf("deterministic mode not reproducible: %d vs %d ops", b.EM.Run.Ops, b2.EM.Run.Ops)
	}
}

func TestSeqCostsMatchReference(t *testing.T) {
	p := &bsptest.RandomProgram{V: 10, Steps: 3, MsgsPerStep: 2, MaxLen: 6}
	ref, err := bsp.Run(p, bsp.RunOptions{Seed: 3, PktSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, tinyMachine(2, 8, 64), core.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Costs.Supersteps != ref.Costs.Supersteps {
		t.Fatalf("λ: %d vs %d", res.Costs.Supersteps, ref.Costs.Supersteps)
	}
	for i := range ref.Costs.PerStep {
		a, b := res.Costs.PerStep[i], ref.Costs.PerStep[i]
		if a != b {
			t.Errorf("superstep %d cost differs:\n em: %+v\nref: %+v", i, a, b)
		}
	}
}

func TestSeqGroupSizing(t *testing.T) {
	// µ=4 words; M=9 words with D=1,B=8... M must be >= D*B, so use
	// B=8, M=9 invalid. Use M = 12 ⇒ k = 3.
	p := &bsptest.RingProgram{V: 10, Rounds: 1}
	cfg := tinyMachine(1, 8, 12)
	res, err := core.Run(p, cfg, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.EM.K != 3 {
		t.Errorf("K = %d, want 3 (⌊12/4⌋)", res.EM.K)
	}
	if res.EM.Groups != 4 {
		t.Errorf("Groups = %d, want 4 (⌈10/3⌉)", res.EM.Groups)
	}
	if res.EM.CtxBlocksPerVP != 1 {
		t.Errorf("CtxBlocksPerVP = %d, want 1", res.EM.CtxBlocksPerVP)
	}
}

func TestSeqStatsSanity(t *testing.T) {
	p := &bsptest.RandomProgram{V: 16, Steps: 4, MsgsPerStep: 4, MaxLen: 12}
	cfg := tinyMachine(4, 8, 256)
	var m *contextMeter
	res, err := core.RunOver(func(inner core.Transport) core.Transport {
		m = &contextMeter{Transport: inner}
		return m
	}, p, cfg, core.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	em := res.EM
	if em.Run.Ops <= 0 {
		t.Error("no I/O ops recorded")
	}
	if em.IOTime != cfg.G*float64(em.Run.Ops) {
		t.Errorf("IOTime = %v, want G*Ops = %v", em.IOTime, cfg.G*float64(em.Run.Ops))
	}
	// M = 256 words is k = 64 VPs of µ = 4, more than the 16 there are:
	// one batch, the turnaround batch of every barrier, whose contexts
	// never leave internal memory (DESIGN.md §22.7). The set-up writes
	// nothing, the finish phase reads nothing, and every operation of the
	// run moves message blocks — until PR 25 each way took a context
	// operation a superstep.
	if em.Groups != 1 || em.Setup.Ops != 0 || em.Finish.Ops != 0 || slices.Max(m.ops) != 0 {
		t.Errorf("%d batches, Setup.Ops = %d, Finish.Ops = %d, context operations %v a superstep, want one batch and no context operation", em.Groups, em.Setup.Ops, em.Finish.Ops, m.ops)
	}
	if em.MemHigh <= 0 {
		t.Error("memory accounting recorded nothing")
	}
	if em.MaxBucketSkew < 1 {
		t.Errorf("MaxBucketSkew = %v, want >= 1", em.MaxBucketSkew)
	}
	if em.LiveBlocksPerDrive <= 0 {
		t.Error("LiveBlocksPerDrive not tracked")
	}
	// Every drive should see traffic on a 4-drive machine with this
	// much messaging.
	for d, pd := range em.Run.PerDrive {
		if pd.BlocksRead+pd.BlocksWritten == 0 {
			t.Errorf("drive %d idle", d)
		}
	}
}

func TestSeqUtilizationHighForUniformTraffic(t *testing.T) {
	// An all-to-all with equal message sizes should keep all D drives
	// busy nearly all the time.
	p := &bsptest.RandomProgram{V: 32, Steps: 3, MsgsPerStep: 8, MaxLen: 8}
	cfg := tinyMachine(4, 8, 1024)
	res, err := core.Run(p, cfg, core.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if u := res.EM.Run.Utilization(); u < 0.5 {
		t.Errorf("drive utilization = %v, want >= 0.5", u)
	}
}

func TestSeqConfigValidation(t *testing.T) {
	p := &bsptest.RingProgram{V: 4, Rounds: 1}
	bad := []core.MachineConfig{
		{P: 0, M: 64, D: 1, B: 8, Cost: bsp.CostParams{Pkt: 8}},
		{P: 1, M: 64, D: 0, B: 8, Cost: bsp.CostParams{Pkt: 8}},
		{P: 1, M: 64, D: 1, B: 4, Cost: bsp.CostParams{Pkt: 8}},  // B < header+1
		{P: 1, M: 4, D: 1, B: 8, Cost: bsp.CostParams{Pkt: 8}},   // M < DB
		{P: 1, M: 64, D: 1, B: 16, Cost: bsp.CostParams{Pkt: 8}}, // b < B
	}
	for i, cfg := range bad {
		if _, err := core.Run(p, cfg, core.Options{}); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

// bigCtxProgram exercises multi-block contexts: each VP holds
// ctxWords words of state, mutates them every superstep, and trades a
// summary with its ring neighbour.
type bigCtxProgram struct {
	v        int
	rounds   int
	ctxWords int
}

func (p *bigCtxProgram) NumVPs() int          { return p.v }
func (p *bigCtxProgram) MaxContextWords() int { return p.ctxWords + 2 }
func (p *bigCtxProgram) MaxCommWords() int    { return 4 }
func (p *bigCtxProgram) NewVP(id int) bsp.VP {
	vp := &bigCtxVP{p: p, data: make([]uint64, p.ctxWords)}
	for i := range vp.data {
		vp.data[i] = uint64(id*1000 + i)
	}
	return vp
}

type bigCtxVP struct {
	p    *bigCtxProgram
	data []uint64
}

func (v *bigCtxVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	var incoming uint64
	for _, m := range in {
		incoming += m.Payload[0]
	}
	for i := range v.data {
		v.data[i] = v.data[i]*3 + incoming + uint64(i)
	}
	if env.Superstep() == v.p.rounds {
		return true, nil
	}
	var sum uint64
	for _, w := range v.data {
		sum += w
	}
	env.Send((env.ID()+1)%v.p.v, []uint64{sum})
	return false, nil
}

func (v *bigCtxVP) Save(enc *words.Encoder) { enc.PutUints(v.data) }
func (v *bigCtxVP) Load(dec *words.Decoder) { v.data = dec.Uints() }

func TestSeqLargeContexts(t *testing.T) {
	// Contexts spanning multiple blocks (µ > B).
	p := &bigCtxProgram{v: 6, rounds: 3, ctxWords: 50}
	ref, err := bsp.Run(p, bsp.RunOptions{Seed: 4, PktSize: 8, ValidateContexts: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, tinyMachine(2, 8, 200), core.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.VPs {
		a := ref.VPs[i].(*bigCtxVP).data
		b := res.VPs[i].(*bigCtxVP).data
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("VP %d word %d: %d vs %d", i, j, a[j], b[j])
			}
		}
	}
	if res.EM.CtxBlocksPerVP != 7 { // ⌈52/8⌉ with µ=52
		t.Errorf("CtxBlocksPerVP = %d, want 7", res.EM.CtxBlocksPerVP)
	}
}
