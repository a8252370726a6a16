package embsp_test

// Observability acceptance tests: tracing and metrics must observe a
// run without perturbing it — the Result stays bitwise identical with
// a tracer attached, the emitted Chrome trace decodes and contains the
// engine phases, and the metrics registry's counters agree with the
// EMStats the run reports.

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"embsp"
	"embsp/internal/prng"
)

func obsSortProgram(t *testing.T) embsp.Program {
	t.Helper()
	r := prng.New(0x0B5)
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	prog, err := embsp.NewSort(keys, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestTracingDoesNotPerturbResults runs the sort workload serial and,
// with a tracer and metrics registry attached, pipelined (under the
// battery's emulated drive latency), on P=1 and P=3 machines — and
// requires the identical Result the untraced run produces. This is the "tracing stays outside the bitwise
// identity contract" acceptance check.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	prog := obsSortProgram(t)
	for _, procs := range []int{1, 3} {
		cfg := embsp.MachineConfig{
			P: procs, M: 6 * prog.MaxContextWords(), D: 4, B: 64, G: 100,
			Cost: embsp.CostParams{GUnit: 1, GPkt: 64, Pkt: 64, L: 10},
		}
		plain, err := embsp.Run(prog, cfg, embsp.Options{
			Seed: 0x0B5, StateDir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("P=%d plain: %v", procs, err)
		}

		tracePath := filepath.Join(t.TempDir(), "trace.json")
		tr, err := embsp.OpenTrace(tracePath, false)
		if err != nil {
			t.Fatal(err)
		}
		reg := embsp.NewMetricsRegistry()
		tr.AttachRegistry(reg)
		start := time.Now()
		traced, err := embsp.Run(prog, cfg, embsp.Options{
			Seed: 0x0B5, StateDir: t.TempDir(), DriveLatency: batteryLatency,
			Trace: tr, Metrics: reg,
		})
		wall := time.Since(start)
		if err != nil {
			t.Fatalf("P=%d traced: %v", procs, err)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("closing trace: %v", err)
		}
		mustAgree(t, "traced vs plain", plain, traced)

		// The registry's overlap counters mirror the run's EMStats.
		ov := traced.EM.Overlap
		for _, c := range []struct {
			name string
			want int64
		}{
			{"overlap_prefetch_issued", ov.PrefetchIssued},
			{"overlap_prefetch_hits", ov.PrefetchHits},
			{"overlap_prefetch_misses", ov.PrefetchMisses},
			{"overlap_async_writes", ov.AsyncWrites},
			{"overlap_concurrent_peak", ov.ConcurrentPeak},
			{"em_run_ops", traced.EM.Run.Ops},
			{"em_comm_words", traced.EM.CommWords},
		} {
			if got := reg.Counter(c.name).Value(); got != c.want {
				t.Errorf("P=%d: metric %s = %d, want %d", procs, c.name, got, c.want)
			}
		}

		// The trace decodes, covers the engine phases, and its
		// engine-span total stays within the run's wall clock (the
		// phases tile each processor's lane, so the engine total is
		// bounded by lanes × wall).
		data, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := embsp.DecodeTrace(data)
		if err != nil {
			t.Fatalf("P=%d: trace does not decode: %v", procs, err)
		}
		seen := map[string]bool{}
		var engineNanos int64
		for _, ev := range evs {
			seen[ev.Name] = true
			if ev.Cat == "engine" && ev.Ph == "X" {
				engineNanos += int64(ev.Dur * 1000)
			}
		}
		want := []string{"setup", "fetch-ctx", "compute", "write-ctx", "barrier-sync", "finish", "journal-append", "phys-write", "phys-fsync"}
		if procs > 1 {
			want = append(want, "fetch-msg", "write-msg", "scatter")
		}
		for _, name := range want {
			if !seen[name] {
				t.Errorf("P=%d: trace has no %q spans (saw %v)", procs, name, seen)
			}
		}
		// +1 lane for the parallel engine's journal coordinator.
		lanes := int64(procs) + 1
		if engineNanos <= 0 || engineNanos > lanes*2*wall.Nanoseconds() {
			t.Errorf("P=%d: engine span total %v implausible against wall clock %v", procs, time.Duration(engineNanos), wall)
		}
	}
}

// TestSeqPhaseTotalsCoverWallClock is the report's acceptance bound
// for the sequential engine: with emulated drive latency dominating,
// the engine phases (which tile the single processor's timeline) must
// account for the bulk of the run's wall clock — the 5% slack of the
// acceptance criterion is relaxed to 25% here to keep CI hosts with
// noisy schedulers from flaking, which still catches a missing or
// double-counted phase outright.
func TestSeqPhaseTotalsCoverWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping wall-clock coverage bound in -short mode (runs ~a second of emulated latency)")
	}
	prog := obsSortProgram(t)
	cfg := embsp.MachineConfig{
		P: 1, M: 6 * prog.MaxContextWords(), D: 4, B: 64, G: 100,
		Cost: embsp.CostParams{GUnit: 1, GPkt: 64, Pkt: 64, L: 10},
	}
	tr := embsp.NewTracer()
	start := time.Now()
	if _, err := embsp.Run(prog, cfg, embsp.Options{
		Seed: 0x0B5, StateDir: t.TempDir(),
		DriveLatency: 2 * time.Millisecond, Trace: tr,
	}); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	var engine int64
	for _, p := range tr.Phases() {
		if p.Cat == "engine" {
			engine += p.Nanos
		}
	}
	if lo := wall.Nanoseconds() * 3 / 4; engine < lo {
		t.Errorf("engine phases cover %v of %v wall clock (< 75%%) — a phase is missing from the tiling", time.Duration(engine), wall)
	}
	if engine > wall.Nanoseconds()*11/10 {
		t.Errorf("engine phases cover %v of %v wall clock (> 110%%) — phases overlap", time.Duration(engine), wall)
	}
}

// TestBarrierFsyncsWrittenDrives: a durable run fsyncs a drive only at a
// barrier, once if bytes landed on it since the barrier before, and
// writes nothing the model does not count: the phys-fsync spans inside
// each processor's barrier-sync span are the drives it wrote since its
// previous one, no phys-fsync span is outside a barrier, and there is no
// phys-wipe span.
func TestBarrierFsyncsWrittenDrives(t *testing.T) {
	prog := obsSortProgram(t)
	for _, procs := range []int{1, 2} {
		cfg := embsp.MachineConfig{
			P: procs, M: 6 * prog.MaxContextWords(), D: 4, B: 64, G: 100,
			Cost: embsp.CostParams{GUnit: 1, GPkt: 64, Pkt: 64, L: 10},
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		tr, err := embsp.OpenTrace(path, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := embsp.Run(prog, cfg, embsp.Options{Seed: 0x0B5, StateDir: t.TempDir(), Trace: tr}); err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := embsp.DecodeTrace(data)
		if err != nil {
			t.Fatal(err)
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
		type barrier struct {
			pid      int64
			from, to float64
			want     int
		}
		var bars []barrier
		written := map[int64]map[int64]bool{} // processor → drives written since its last barrier
		fsyncs := 0
		for _, ev := range evs {
			switch {
			case ev.Name == "phys-wipe":
				t.Fatalf("P=%d: a phys-wipe span on drive %d of processor %d", procs, ev.TID-1, ev.PID)
			case ev.Name == "phys-write":
				if written[ev.PID] == nil {
					written[ev.PID] = map[int64]bool{}
				}
				written[ev.PID][ev.TID] = true
			case ev.Name == "phys-fsync":
				fsyncs++
			case ev.Name == "barrier-sync" && ev.Cat == "engine":
				bars = append(bars, barrier{ev.PID, ev.TS, ev.TS + ev.Dur, len(written[ev.PID])})
				delete(written, ev.PID)
			}
		}
		inside, want := 0, 0
		for i, b := range bars {
			n := 0
			for _, ev := range evs {
				if ev.Name == "phys-fsync" && ev.PID == b.pid && ev.TS >= b.from && ev.TS <= b.to {
					n++
				}
			}
			if n != b.want {
				t.Errorf("P=%d: barrier %d of processor %d fsyncs %d drives, want the %d written since the one before", procs, i, b.pid, n, b.want)
			}
			inside, want = inside+n, want+b.want
		}
		if want == 0 || fsyncs != inside {
			t.Errorf("P=%d: %d phys-fsync spans, %d of them in the %d barriers, which wrote %d drives", procs, fsyncs, inside, len(bars), want)
		}
	}
}
