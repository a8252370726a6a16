package core_test

import (
	"fmt"
	"slices"
	"testing"

	"embsp/internal/bsp"
	"embsp/internal/core"
	"embsp/internal/fault"
	"embsp/internal/words"
	"embsp/internal/workload"
)

// A batch is charged for, and its buffer holds, the blocks its contexts
// fill (DESIGN.md §22.2). µ stays the bound a context is checked against
// and the budget the engine is held to; it no longer sets what a batch
// holds.

// widened declares four times the µ of the program it wraps.
type widened struct{ bsp.Program }

func (w widened) MaxContextWords() int { return 4 * w.Program.MaxContextWords() }

// TestContextMemoryFollowsUse: a program that declares four times its µ
// on a machine with four times its M keeps its k, and so its batches and
// every block it moves; what it holds in internal memory is what its
// contexts fill, so MemHigh does not move either. Charged at the bound,
// MemHigh grew about four times here.
func TestContextMemoryFollowsUse(t *testing.T) {
	for _, spec := range []workload.Spec{
		{Alg: "sort", N: 8192, V: 16, Seed: 7},
		{Alg: "listrank", N: 2048, V: 8, Seed: 7},
	} {
		inst, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, P := range []int{1, 2} {
			label := fmt.Sprintf("%s P=%d", spec.Alg, P)
			var runs [2]*core.Result
			for i, prog := range []bsp.Program{inst.Program, widened{inst.Program}} {
				// M = 6µ: four times larger with µ, k = 6 either way.
				if runs[i], err = core.Run(prog, workload.Machine(prog, P, 4, 64, 6, 1000), core.Options{Seed: 7}); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			a, b := runs[0].EM, runs[1].EM
			if a.K != b.K || a.CtxBlocksPerVP >= b.CtxBlocksPerVP {
				t.Fatalf("%s: k %d and %d, %d and %d blocks a context: the wrapper must keep k and raise the bound", label, a.K, b.K, a.CtxBlocksPerVP, b.CtxBlocksPerVP)
			}
			if got, want := [3]int64{b.MemHigh, b.Run.Ops, b.LiveBlocksPerDrive}, [3]int64{a.MemHigh, a.Run.Ops, a.LiveBlocksPerDrive}; got != want {
				t.Errorf("%s: MemHigh, run ops and live blocks are %v at 4µ, %v at µ", label, got, want)
			}
			if !slices.Equal(contexts(runs[0].VPs), contexts(runs[1].VPs)) {
				t.Errorf("%s: final contexts differ at 4µ", label)
			}
		}
	}

	// Contexts of a few words that jump to exactly µ in a late superstep:
	// a batch's buffer grows past the records already packed in it, and
	// the held batch's too. k = 3 with 13 VPs leaves a ragged batch.
	prog := &sizedProgram{v: 13, mu: 40, steps: 9, length: func(id, t int) int {
		if t < 7 {
			return 1 + id%3
		}
		return 40
	}}
	ref, err := bsp.Run(prog, bsp.RunOptions{Seed: 5, PktSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, P := range []int{1, 2} {
		cfg := parMachine(P, 3, 8, 3*prog.mu)
		for _, mode := range []string{"in place", "durable", "fault replay"} {
			label := fmt.Sprintf("jump P=%d %s", P, mode)
			opts := core.Options{Seed: 5}
			switch mode {
			case "durable":
				opts.StateDir = t.TempDir()
			case "fault replay":
				opts.MaxRetries = -1
				opts.FaultPlan = &fault.Plan{Seed: 3, ReadErrorRate: 0.004, WriteErrorRate: 0.004, CorruptRate: 0.004}
			}
			res, err := core.Run(prog, cfg, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !slices.Equal(contexts(res.VPs), contexts(ref.VPs)) {
				t.Errorf("%s: final contexts differ from the reference run's", label)
			}
			if mode == "fault replay" && res.EM.Replays == 0 {
				t.Errorf("%s: nothing replayed", label)
			}
			for i := range ref.Costs.PerStep {
				if a, b := res.Costs.PerStep[i], ref.Costs.PerStep[i]; a != b {
					t.Errorf("%s: superstep %d costs %+v, reference %+v", label, i, a, b)
				}
			}
			// The batch at µ is charged in full, and within the budget.
			full := int64((res.EM.K*(prog.mu+1) + cfg.B - 1) / cfg.B * cfg.B)
			limit := core.MemLimit(cfg, res.EM.K, prog.mu, prog.MaxCommWords())
			if res.EM.MemHigh < full || res.EM.MemHigh > limit {
				t.Errorf("%s: MemHigh %d words, want at least the %d of a batch at µ and at most the budget %d", label, res.EM.MemHigh, full, limit)
			}
		}
	}
}

// bufferMeter records a buffer of each processor's at every commit: the
// context buffer, or the one of reads.
type bufferMeter struct {
	core.Transport
	reads func(core.Transport) ([]*uint64, []int)
	addrs [][]*uint64 // per commit, per processor
	caps  [][]int
}

func (m *bufferMeter) Commit(step int) error {
	read := core.CtxBuffers
	if m.reads != nil {
		read = m.reads
	}
	a, c := read(m.Transport)
	m.addrs, m.caps = append(m.addrs, a), append(m.caps, c)
	return m.Transport.Commit(step)
}

// TestContextBufferAllocs is a count of the context buffer's
// allocations. Contexts that grow by a few words every superstep up to µ
// and stay there grow the buffer geometrically, so a processor allocates
// it at most 1 + ⌈log₂(bound/B)⌉ times, bound = k·⌈(µ+1)/B⌉·B — an
// exact-fit buffer would be reallocated at almost every superstep of the
// ramp — and once it has held the largest batch, no further superstep
// allocates it again.
func TestContextBufferAllocs(t *testing.T) {
	const mu, top = 200, 17 // every context holds µ words from barrier 17 on
	prog := &sizedProgram{v: 16, mu: mu, steps: 30, length: func(id, t int) int {
		return min(mu, 1+12*t+id%3)
	}}
	for _, P := range []int{1, 2} {
		cfg := parMachine(P, 2, 8, 4*mu)
		m := &bufferMeter{}
		res, err := core.RunOver(func(inner core.Transport) core.Transport {
			m.Transport = inner
			return m
		}, prog, cfg, core.Options{Seed: 1})
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		bound := res.EM.K * res.EM.CtxBlocksPerVP * cfg.B
		maxAllocs := 1
		for n := cfg.B; n < bound; n *= 2 {
			maxAllocs++
		}
		// m.addrs[0] is the set-up's commit, m.addrs[s+1] superstep s's;
		// superstep top−1 saved every batch at µ.
		for proc := 0; proc < P; proc++ {
			allocs := 0
			var last *uint64
			for c, addrs := range m.addrs {
				if addrs[proc] == last {
					continue
				}
				allocs++
				last = addrs[proc]
				if c > top {
					t.Errorf("P=%d processor %d: the context buffer was reallocated in superstep %d, after it held the largest batch (%d words of capacity)", P, proc, c-1, m.caps[c][proc])
				}
			}
			t.Logf("P=%d processor %d: %d allocations of the context buffer, up to %d words (bound %d)", P, proc, allocs, m.caps[len(m.caps)-1][proc], bound)
			if allocs < 2 || allocs > maxAllocs {
				t.Errorf("P=%d processor %d: the context buffer was allocated %d times, want 2 to %d", P, proc, allocs, maxAllocs)
			}
		}
	}
}

// TestVPMemAllocs is TestContextBufferAllocs for the words a batch's
// VPs decode (stepBufs.vpMem), which follow what its load read: on the
// same ramp the buffer is allocated at most 1 + ⌈log₂(bound/B)⌉ times —
// exact-fit, it was reallocated at each batch larger than any before —
// and once a superstep has decoded every batch at µ, no later superstep
// allocates it again.
func TestVPMemAllocs(t *testing.T) {
	const mu, top = 200, 17 // every context holds µ words from barrier 17 on
	prog := &sizedProgram{v: 16, mu: mu, steps: 30, length: func(id, t int) int {
		return min(mu, 1+12*t+id%3)
	}}
	for _, P := range []int{1, 2} {
		cfg := parMachine(P, 2, 8, 4*mu)
		m := &bufferMeter{reads: core.VPMemBuffers}
		res, err := core.RunOver(func(inner core.Transport) core.Transport {
			m.Transport = inner
			return m
		}, prog, cfg, core.Options{Seed: 1})
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		bound := res.EM.K * res.EM.CtxBlocksPerVP * cfg.B
		maxAllocs := 1
		for n := cfg.B; n < bound; n *= 2 {
			maxAllocs++
		}
		// m.addrs[s+1] is superstep s's commit; superstep top loaded
		// every batch at µ.
		for proc := 0; proc < P; proc++ {
			allocs := 0
			var last *uint64
			for c, addrs := range m.addrs {
				if addrs[proc] == last {
					continue
				}
				allocs++
				last = addrs[proc]
				if c > top+1 {
					t.Errorf("P=%d processor %d: the decode buffer was reallocated in superstep %d, after every batch was decoded at µ (%d words of capacity)", P, proc, c-1, m.caps[c][proc])
				}
			}
			t.Logf("P=%d processor %d: %d allocations of the decode buffer, up to %d words (bound %d)", P, proc, allocs, m.caps[len(m.caps)-1][proc], bound)
			if allocs > maxAllocs {
				t.Errorf("P=%d processor %d: the decode buffer was allocated %d times, want at most %d", P, proc, allocs, maxAllocs)
			}
		}
	}
}

// sizedProgram's VPs hold length(id, t) words at barrier t, at most mu,
// drawn from a checksum of the words they held and the one message they
// received; each superstep a VP sends its checksum on around a ring.
type sizedProgram struct {
	v, mu, steps int
	length       func(id, t int) int
}

func (p *sizedProgram) NumVPs() int          { return p.v }
func (p *sizedProgram) MaxContextWords() int { return p.mu }
func (p *sizedProgram) MaxCommWords() int    { return 2 }

func (p *sizedProgram) NewVP(id int) bsp.VP {
	vp := &sizedVP{p: p}
	vp.refill(id, uint64(id), 0)
	return vp
}

type sizedVP struct {
	p     *sizedProgram
	words []uint64
}

func (v *sizedVP) refill(id int, sum uint64, t int) {
	v.words = make([]uint64, v.p.length(id, t))
	for i := range v.words {
		v.words[i] = (sum + uint64(i)) * 0x9e3779b97f4a7c15
	}
}

func (v *sizedVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	sum := uint64(len(v.words))
	for _, w := range v.words {
		sum = (sum ^ w) * 0xff51afd7ed558ccd
	}
	for _, m := range in {
		sum = (sum ^ m.Payload[0]) * 0xff51afd7ed558ccd
	}
	v.refill(env.ID(), sum, env.Superstep()+1)
	if env.Superstep() == v.p.steps {
		return true, nil
	}
	env.Send((env.ID()+1)%v.p.v, []uint64{sum})
	return false, nil
}

func (v *sizedVP) Save(enc *words.Encoder) {
	for _, w := range v.words {
		enc.PutUint(w)
	}
}

func (v *sizedVP) Load(dec *words.Decoder) {
	v.words = make([]uint64, dec.Remaining())
	for i := range v.words {
		v.words[i] = dec.Uint()
	}
}

// TestVPMemHalfWordLoads: lca saves its sparse-table rows in half words,
// so its contexts decode to more words than they were loaded as, and an
// arena of the loaded words runs dry. The arena a batch's Loads carve
// from holds the words loaded and the most any batch has decoded beyond
// its words, so once the slot objects and the buffer have grown,
// Loading a batch of lca's contexts allocates nothing.
func TestVPMemHalfWordLoads(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	inst, err := workload.Spec{Alg: "lca", N: 2048, V: 16, Seed: 7}.Build()
	if err != nil {
		t.Fatal(err)
	}
	var tr core.Transport
	res, err := core.RunOver(func(inner core.Transport) core.Transport {
		tr = inner
		return inner
	}, inst.Program, workload.Machine(inst.Program, 1, 4, 64, 6, 1000), core.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Batch 0's records, as its load reads them, from the final contexts.
	var ctx []uint64
	var enc words.Encoder
	for _, vp := range res.VPs[:res.EM.K] {
		enc.Reset()
		vp.Save(&enc)
		ctx = append(append(ctx, uint64(enc.Len())), enc.Words()...)
	}
	var vps []bsp.VP
	load := func() {
		if vps, err = core.LoadBatch(tr, 0, ctx); err != nil {
			t.Fatal(err)
		}
	}
	load()

	// The same Loads from an arena of the loaded words allocate.
	var (
		arena words.Arena
		dec   words.Decoder
	)
	mem := make([]uint64, len(ctx))
	tight := func() {
		arena.Reset(mem)
		for i, pos := 0, 0; i < len(vps); i++ {
			n := int(ctx[pos])
			dec.Reset(ctx[pos+1:pos+1+n], &arena)
			vps[i].Load(&dec)
			pos += 1 + n
		}
	}
	tight()
	if a := testing.AllocsPerRun(10, tight); a == 0 {
		t.Fatalf("%d VPs' contexts of %d words decode from an arena of their words: they hold no half-word array", len(vps), len(ctx))
	}
	if a := testing.AllocsPerRun(10, load); a != 0 {
		t.Errorf("a batch Load of %d VPs' contexts, %d words, allocated %v times once the buffers had grown, want 0", len(vps), len(ctx), a)
	}
}
