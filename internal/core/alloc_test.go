package core_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"

	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/core"
	"embsp/internal/disk"
	"embsp/internal/fault"
	"embsp/internal/obs"
)

// steadyAllocs returns what one steady-state superstep of prog(rounds)
// allocates on cfg, in bytes and objects: the difference of two runs
// that differ only in their number of supersteps, so set-up and warm-up
// cancel and the result does not depend on timing. check verifies each
// run's result.
func steadyAllocs(t *testing.T, cfg core.MachineConfig, prog func(rounds int) bsp.Program, check func(rounds int, res *core.Result)) (bytes, objs uint64) {
	t.Helper()
	const short, long = 4, 12
	run := func(rounds int) (bytes, mallocs uint64) {
		p := prog(rounds)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := core.Run(p, cfg, core.Options{Seed: 1})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatalf("P=%d: %v", cfg.P, err)
		}
		check(rounds, res)
		return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
	}
	b0, n0 := run(short)
	b1, n1 := run(long)
	return (b1 - b0) / (long - short), (n1 - n0) / (long - short)
}

// allocMachine is the machine of the allocation gates: B = 256 words,
// room for 8 contexts of ctxWords.
func allocMachine(P, ctxWords int) core.MachineConfig {
	return core.MachineConfig{
		P: P, M: 8 * ctxWords, D: 4, B: 256, G: 1,
		Cost: bsp.CostParams{GUnit: 1, GPkt: 1, Pkt: 256, L: 1},
	}
}

// TestSteadyStateAllocs is the countable allocation gate (DESIGN.md §19):
// once the superstep loop is warm, a superstep of a program whose VPs
// allocate nothing may allocate only the engine's per-superstep metadata
// — the message directory, a closure a batch — and none of the buffers
// whose size the shape fixes, nor anything per message.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const v, fan, ctxWords = 64, 4, 512
	// A superstep here moves 256 message blocks of 2 KiB. With a buffer
	// made per batch, block and track the loop allocated 2.4 MB (P=1)
	// and 4.4 MB (P=2) per superstep; owning them left 52 KB and 60 KB
	// (862 and 955 objects), most of it a reassembled stream, a copied
	// payload and an Env per message and VP. With those in the
	// processor's memory too it is 3.4 KB and 10.9–13.6 KB (79 and about
	// 174 objects; at P=2 the exchange's goroutines add a varying few).
	// With every block sent to its owner, P=2 has no fetch round to fan
	// out and no inbox to gather: about 5.6–5.9 KB (137 objects).
	// The ceilings are about twice the older figures.
	ceiling := map[int]uint64{1: 8 << 10, 2: 24 << 10}
	for _, P := range []int{1, 2} {
		perStep, objs := steadyAllocs(t, allocMachine(P, ctxWords),
			func(rounds int) bsp.Program { return bsptest.NewStaticProgram(v, rounds, fan, ctxWords) },
			func(rounds int, res *core.Result) {
				for id, vp := range res.VPs {
					want := uint64(0)
					for f := 1; f <= fan; f++ {
						want += uint64(rounds * ((id - f + v) % v))
					}
					if got := bsptest.StaticAcc(vp); got != want {
						t.Fatalf("P=%d rounds=%d VP %d: acc = %d, want %d", P, rounds, id, got, want)
					}
				}
			})
		t.Logf("P=%d: %d bytes and %d objects per superstep", P, perStep, objs)
		if perStep > ceiling[P] {
			t.Errorf("P=%d: %d bytes allocated per steady-state superstep, want at most %d", P, perStep, ceiling[P])
		}
	}
}

// TestSteadyStateAllocsFlatInMu: what a batch's VPs are handed — the
// slices their Loads decode, the payloads they receive and keep — is the
// processor's memory, reused by every batch (bsp.VP's lifetime rule),
// and so are the context directory's entries in place. So a superstep of
// a program that holds both in its state allocates no more when its
// contexts are four times larger. Decoding into fresh slices would add
// a context's words a VP and superstep, 768 KiB here, and a new
// directory entry a batch 6 KiB. The slack is about twice the spread of
// repeated measurements: a few bytes at P=1, where 3.4 KB recur, and
// 3.5 KB at P=2, whose exchange goroutines allocate 10.9–14.4 KB.
func TestSteadyStateAllocsFlatInMu(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const v, fan = 64, 4
	slack := map[int]uint64{1: 1 << 10, 2: 8 << 10}
	for _, P := range []int{1, 2} {
		var perStep [2]uint64
		for i, ctxWords := range []int{512, 2048} {
			perStep[i], _ = steadyAllocs(t, allocMachine(P, ctxWords),
				func(rounds int) bsp.Program { return bsptest.NewHoldingProgram(v, rounds, fan, ctxWords) },
				func(rounds int, res *core.Result) {
					ref, err := bsp.Run(bsptest.NewHoldingProgram(v, rounds, fan, ctxWords), bsp.RunOptions{Seed: 1})
					if err != nil {
						t.Fatal(err)
					}
					for id, vp := range res.VPs {
						acc, kept := bsptest.HoldingState(vp)
						wantAcc, wantKept := bsptest.HoldingState(ref.VPs[id])
						if acc != wantAcc || !slices.Equal(kept, wantKept) {
							t.Fatalf("P=%d µ=%d rounds=%d VP %d: state (%d, %v), want (%d, %v)", P, ctxWords, rounds, id, acc, kept, wantAcc, wantKept)
						}
					}
				})
		}
		t.Logf("P=%d: %d bytes per superstep at µ=512, %d at µ=2048", P, perStep[0], perStep[1])
		if perStep[1] > perStep[0]+slack[P] {
			t.Errorf("P=%d: %d bytes per superstep at µ=2048, %d at µ=512: the engine allocates in proportion to the contexts", P, perStep[1], perStep[0])
		}
	}
}

// countingProgram counts its NewVP calls, which the processors of an
// in-process run make from goroutines of their own.
type countingProgram struct {
	bsp.Program
	calls atomic.Int64
}

func (p *countingProgram) NewVP(id int) bsp.VP {
	p.calls.Add(1)
	return p.Program.NewVP(id)
}

// TestNewVPCalls: a real processor holds k VP objects, not one per load
// (bsp.VP). NewVP runs v times for the set-up's initial contexts (again
// for each replay of the set-up), once per slot — at most k a processor,
// made by the first batch, or a batch larger than any before — and v
// times for the VPs the finish phase returns. None of it depends on the
// superstep count, and a replayed superstep Loads into the same slots.
// With k = 3 and 8 or 16 VPs a processor, the last batch is smaller than
// the others and is the first that superstep 0 simulates (snake order),
// so a slot is kept across a batch larger than any before.
func TestNewVPCalls(t *testing.T) {
	const v, fan, ctxWords = 16, 2, 32
	for _, P := range []int{1, 2} {
		cfg := parMachine(P, 2, 8, 3*ctxWords)
		vpp := (v + P - 1) / P
		for _, mode := range []string{"in place", "checkpointed", "fault replay"} {
			label := fmt.Sprintf("P=%d %s", P, mode)
			perRun := map[int]int64{}
			for _, rounds := range []int{3, 9} {
				p := &countingProgram{Program: bsptest.NewStaticProgram(v, rounds, fan, ctxWords)}
				opts := core.Options{Seed: 1}
				switch mode {
				case "checkpointed":
					opts.StateDir = t.TempDir()
				case "fault replay":
					opts.MaxRetries = -1
					opts.FaultPlan = &fault.Plan{Seed: 3, ReadErrorRate: 0.01, WriteErrorRate: 0.01, CorruptRate: 0.005}
				}
				var m *replayMeter
				res, err := core.RunOver(func(inner core.Transport) core.Transport {
					m = &replayMeter{Transport: inner}
					return m
				}, p, cfg, opts)
				if err != nil {
					t.Fatalf("%s rounds=%d: %v", label, rounds, err)
				}
				for id, vp := range res.VPs {
					want := uint64(0)
					for f := 1; f <= fan; f++ {
						want += uint64(rounds * ((id - f + v) % v))
					}
					if got := bsptest.StaticAcc(vp); got != want {
						t.Fatalf("%s rounds=%d VP %d: acc = %d, want %d", label, rounds, id, got, want)
					}
				}
				if mode == "fault replay" && res.EM.Replays <= m.setup+m.finish {
					t.Fatalf("%s rounds=%d: %d replays, %d of the set-up and %d of the finish: no superstep replayed", label, rounds, res.EM.Replays, m.setup, m.finish)
				}
				slots := 0
				for i := 0; i < P; i++ {
					slots += min(res.EM.K, vpp, v-i*vpp)
				}
				if res.EM.K != 3 {
					t.Fatalf("%s: k = %d, the test wants 3", label, res.EM.K)
				}
				setup := int64(v) * (1 + m.setup)
				if got, want := p.calls.Load(), setup+int64(slots+v); got != want {
					t.Errorf("%s rounds=%d: %d NewVP calls, want %d: %d for the set-up, %d slots and %d for the Result", label, rounds, got, want, setup, slots, v)
				}
				perRun[rounds] = p.calls.Load() - setup
				t.Logf("%s rounds=%d: %d NewVP calls, %d replays (%d of the set-up)", label, rounds, p.calls.Load(), res.EM.Replays, m.setup)
			}
			if perRun[3] != perRun[9] {
				t.Errorf("%s: %d NewVP calls past the set-up in 4 supersteps, %d in 10", label, perRun[3], perRun[9])
			}
		}
	}
}

// recorder logs the driver's calls on their way to a Transport.
type recorder struct {
	t     core.Transport
	calls []string
}

func (r *recorder) log(format string, args ...any) {
	r.calls = append(r.calls, fmt.Sprintf(format, args...))
}

func (r *recorder) Setup() ([]disk.Stats, error) { r.log("setup"); return r.t.Setup() }
func (r *recorder) Begin(step int) error         { r.log("begin %d", step); return r.t.Begin(step) }
func (r *recorder) Compute(j, step int) ([]*core.BatchOut, error) {
	r.log("compute %d/%d", step, j)
	return r.t.Compute(j, step)
}
func (r *recorder) Write(j, step int, outs []*core.BatchOut) error {
	r.log("write %d/%d", step, j)
	return r.t.Write(j, step, outs)
}
func (r *recorder) Totals() ([]core.StepTotals, error) { r.log("totals"); return r.t.Totals() }
func (r *recorder) Prepare(step int, halted bool) ([]int64, error) {
	r.log("prepare %d %v", step, halted)
	return r.t.Prepare(step, halted)
}
func (r *recorder) Commit(step int) error { r.log("commit %d", step); return r.t.Commit(step) }
func (r *recorder) Rollback(step, attempt int, cause error) (int64, error) {
	r.log("rollback %d", step)
	return r.t.Rollback(step, attempt, cause)
}
func (r *recorder) Final() ([]*core.NodeReport, error) { r.log("final"); return r.t.Final() }

// TestBarrierSequenceAndCounts is the first slice of the exact-count
// gates (DESIGN.md §20.1). One driver means one call sequence: the
// in-memory transport and the NodeEngine-backed rig must see the very
// same calls for the same run — per superstep begin, two a round,
// totals, prepare and commit, each a fan-out over the processors in
// memory and a round trip per worker on the wire, and nothing between
// the vote and the barrier. And a barrier costs exactly what the design
// says: one Sync per processor's store and one decision record appended
// — plus, for nodes with journals of their own, one PREPARE and one
// COMMIT each.
func TestBarrierSequenceAndCounts(t *testing.T) {
	prog := &bsptest.RandomProgram{V: 16, Steps: 2, MsgsPerStep: 4, MaxLen: 12}
	const supersteps, barriers = 3, 4 // the setup barrier, then one per superstep
	spans := func(tr *obs.Tracer, name string) (n int64) {
		for _, ph := range tr.Phases() {
			if ph.Name == name {
				n += ph.Count
			}
		}
		return n
	}
	for _, P := range []int{1, 2} {
		cfg := parMachine(P, 2, 8, 256)
		tr, mem := obs.New(), &recorder{}
		res, err := core.RunOver(func(e core.Transport) core.Transport { mem.t = e; return mem },
			prog, cfg, core.Options{Seed: 7, StateDir: t.TempDir(), Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if res.Costs.Supersteps != supersteps {
			t.Fatalf("P=%d: %d supersteps, the test wants %d", P, res.Costs.Supersteps, supersteps)
		}
		// The set-up and its commit, the supersteps, the final reports.
		if want := 2 + supersteps*(4+2*res.EM.Groups) + 1; len(mem.calls) != want {
			t.Errorf("P=%d: the driver made %d calls, want %d: 4 and 2 a round per superstep\n%q", P, len(mem.calls), want, mem.calls)
		}
		if got := spans(tr, "barrier-sync"); got != int64(P*barriers) {
			t.Errorf("P=%d in process: %d store syncs over %d barriers, want %d", P, got, barriers, P*barriers)
		}
		if got := spans(tr, "journal-append"); got != barriers {
			t.Errorf("P=%d in process: %d journal appends over %d barriers", P, got, barriers)
		}
		if P == 1 {
			continue // a cluster has at least two nodes
		}
		tr = obs.New()
		rig := openRig(t, prog, cfg, core.Options{Seed: 7, Trace: tr}, t.TempDir(), false)
		wire := &recorder{t: rig}
		if _, err := rig.coord.Run(wire); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(mem.calls, wire.calls) {
			t.Errorf("the two transports saw different call sequences:\nin memory: %q\nnodes:     %q", mem.calls, wire.calls)
		}
		if got := spans(tr, "barrier-sync"); got != int64(P*barriers) {
			t.Errorf("nodes: %d store syncs over %d barriers, want %d", got, barriers, P*barriers)
		}
		if got := spans(tr, "journal-append"); got != barriers {
			t.Errorf("nodes: %d decision records over %d barriers", got, barriers)
		}
		if rig.prepares != P*barriers || rig.commits != P*barriers {
			t.Errorf("nodes: %d prepares and %d commits over %d barriers, want %d each", rig.prepares, rig.commits, barriers, P*barriers)
		}
	}
}
