package core_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/core"
	"embsp/internal/disk"
	"embsp/internal/obs"
)

// TestSteadyStateAllocs is the countable allocation gate (ROADMAP 1(a)):
// once the superstep loop is warm, a superstep of a program whose VPs
// allocate nothing may allocate only what scales with the messages
// themselves — directory entries, reassembled payloads, per-VP
// environments — and none of the buffers whose size the shape fixes.
// The per-superstep figure is the difference of two runs that differ
// only in their number of supersteps, so set-up and warm-up cancel and
// the result does not depend on timing.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const (
		v, fan, ctxWords = 64, 4, 512
		short, long      = 4, 12
		// A superstep here moves 256 message blocks of 2 KiB. With a
		// buffer made per batch, block and track the loop allocated
		// 2.4 MB (P=1) and 4.4 MB (P=2) per superstep; owning them
		// leaves about 170 KB and 215 KB of directory, allocator and
		// message metadata.
		ceiling = 384 << 10
	)
	for _, P := range []int{1, 2} {
		cfg := core.MachineConfig{
			P: P, M: 8 * ctxWords, D: 4, B: 256, G: 1,
			Cost: bsp.CostParams{GUnit: 1, GPkt: 1, Pkt: 256, L: 1},
		}
		run := func(rounds int) (bytes, mallocs uint64) {
			prog := bsptest.NewStaticProgram(v, rounds, fan, ctxWords)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res, err := core.Run(prog, cfg, core.Options{Seed: 1})
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatalf("P=%d: %v", P, err)
			}
			for id, vp := range res.VPs {
				want := uint64(0)
				for f := 1; f <= fan; f++ {
					want += uint64(rounds * ((id - f + v) % v))
				}
				if got := bsptest.StaticAcc(vp); got != want {
					t.Fatalf("P=%d rounds=%d VP %d: acc = %d, want %d", P, rounds, id, got, want)
				}
			}
			return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
		}
		b0, n0 := run(short)
		b1, n1 := run(long)
		perStep, objs := (b1-b0)/(long-short), (n1-n0)/(long-short)
		t.Logf("P=%d: %d bytes and %d objects per superstep", P, perStep, objs)
		if perStep > ceiling {
			t.Errorf("P=%d: %d bytes allocated per steady-state superstep, want at most %d", P, perStep, ceiling)
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
func (r *recorder) Fetch(j, step int) ([][]core.BlockBatch, [][]int64, error) {
	r.log("fetch %d/%d", step, j)
	return r.t.Fetch(j, step)
}
func (r *recorder) Compute(j, step int, rows [][]core.BlockBatch) ([]*core.BatchOut, error) {
	r.log("compute %d/%d", step, j)
	return r.t.Compute(j, step, rows)
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
// gates (ROADMAP 1(d)). One driver means one call sequence: the
// in-memory transport and the NodeEngine-backed rig must see the very
// same calls for the same run — per superstep begin, three a round,
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
		if want := 2 + supersteps*(4+3*res.EM.Groups) + 1; len(mem.calls) != want {
			t.Errorf("P=%d: the driver made %d calls, want %d: 4 and 3 a round per superstep\n%q", P, len(mem.calls), want, mem.calls)
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
