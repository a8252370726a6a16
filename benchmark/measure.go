package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"embsp"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a workload run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pair is one A,B iteration.
type pair struct{ a, b sample }

// runWorkload is one run of the benchmark on one workload: set-up, warm-up,
// then A,B pairs back to back for e.seconds. It returns the end-to-end
// values of the untraced pairs. With trace on, an A carrying the public
// tracer and registry runs beside every untraced one and the per-layer
// values the workload itself yields are returned too; the layer drives,
// which are the same whatever the workload, are the caller's to add.
func runWorkload(w *workloadDef, e *env, trace bool) (e2e, layers map[string]float64, err error) {
	root := e.rec.start(-1, w.name)
	defer e.rec.end(root)

	// Set-up: input generation, program build, reference digest. Repeated
	// sixty times at least and for two seconds here, then once before every
	// pair (two seconds of that at most), so that its repeats sample the
	// whole run and not one stretch of the host's load. Each repeat starts
	// from a collected heap and runs with the collector off: otherwise how
	// many cycles fall inside a step depends on the garbage the harness left
	// before it, and a step's fastest repeat moved by a third between runs.
	var setups []setupRepeat
	var r runner
	setup := func(parent int) error {
		sp := e.rec.start(parent, "setup")
		defer e.rec.end(sp)
		e.steps = e.steps[:0]
		var fresh runner
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		t, err := clocked(func() error {
			var err error
			fresh, err = w.prepare(e, sp)
			return err
		})
		if err != nil {
			return err
		}
		if r == nil {
			r = fresh // later repeats are only timed: serve_mix's runner holds its expectations
		}
		setups = append(setups, setupRepeat{total: t.wall, steps: slices.Clone(e.steps)})
		return nil
	}
	for t0 := time.Now(); len(setups) < e.pick(60, 1) || (!e.quick && time.Since(t0) < 2*time.Second); {
		if err := setup(root); err != nil {
			return nil, nil, err
		}
	}

	// Warm-up pairs are discarded: the first iterations fault fresh pages
	// through the hypervisor and run several times slower. Two pairs, or
	// one where a pair alone takes a second; none with -quick.
	sp := e.rec.start(root, "warmup")
	warm, err := clocked(func() error {
		t0 := time.Now()
		for i := 0; i < e.pick(2, 0) && (i == 0 || time.Since(t0) < time.Second); i++ {
			a, err := r.runA(e, sp, observers{})
			if err != nil {
				return err
			}
			if _, err := r.runB(e, sp, a); err != nil {
				return err
			}
		}
		return nil
	})
	e.rec.end(sp)
	if err != nil {
		return nil, nil, err
	}

	var pairs []pair
	var traced []tracedRun
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	sp = e.rec.start(root, "measure")
	// A pair that would end more than half its length past the deadline is
	// not started, so runs overshoot and undershoot -seconds equally.
	var extraSetup time.Duration
	for len(pairs) == 0 || time.Now().Add(time.Since(start)/time.Duration(2*len(pairs))).Before(deadline) {
		if !e.quick && extraSetup < 2*time.Second {
			t0 := time.Now()
			if err := setup(sp); err != nil {
				return nil, nil, err
			}
			extraSetup += time.Since(t0)
		}
		a, err := r.runA(e, sp, observers{})
		if err != nil {
			return nil, nil, err
		}
		if trace {
			o := observers{tr: embsp.NewTracer(), reg: embsp.NewMetricsRegistry()}
			ta, err := r.runA(e, sp, o)
			if err != nil {
				return nil, nil, err
			}
			traced = append(traced, tracedRun{s: ta, phases: o.tr.Phases(), untracedWall: a.wall})
		}
		b, err := r.runB(e, sp, a)
		if err != nil {
			return nil, nil, err
		}
		pairs = append(pairs, pair{a, b})
	}
	e.rec.end(sp)

	// Counts are exact per seed: every iteration must return the same.
	for _, p := range pairs[1:] {
		e.check(p.a.ioOps == pairs[0].a.ioOps && p.a.ioUtil == pairs[0].a.ioUtil,
			"%s: io_ops/io_util differ between iterations of one seed: %v/%v, %v/%v",
			w.name, p.a.ioOps, p.a.ioUtil, pairs[0].a.ioOps, pairs[0].a.ioUtil)
	}

	e2e = endToEndMetrics(pairs)
	e2e["setup_s"] = setupSeconds(setups)
	if trace {
		layers = layerMetrics(w.name, pairs, traced)
		layers["harness.warmup_s"] = warm.wall
	}
	return e2e, layers, nil
}

// setupRepeat is one timed set-up: its wall clock and those of its steps.
type setupRepeat struct {
	total float64
	steps []float64
}

// setupSeconds is setup_s: for each step of the set-up the fastest that step
// ran in any repeat, summed, plus the smallest remainder (what a repeat
// spent outside its steps). On a shared host interference only ever adds
// time. A whole set-up of 30-80 ms rarely escapes it, so the fastest repeat
// still moved by a quarter between two series of ten runs; its steps of a
// few milliseconds often do, in one repeat or another. Work moved into
// set-up raises a step in every repeat alike, so it still shows.
func setupSeconds(reps []setupRepeat) float64 {
	best := slices.Clone(reps[0].steps)
	rest := reps[0].total
	for _, r := range reps { // the set-up is deterministic: every repeat has the same steps
		for k, d := range r.steps {
			best[k] = min(best[k], d)
		}
		rest = min(rest, r.total-sum(r.steps))
	}
	return sum(best) + rest
}

// newResult is the result object of a finished run: the tally and every
// metric of defs by name, with its unit.
func newResult(e *env, defs []metricDef, vals map[string]float64) *result {
	res := &result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: make(map[string]metric)}
	for _, d := range defs {
		res.Metrics[d.Name] = metric{vals[d.Name], d.Unit}
	}
	return res
}

func perPair(pairs []pair, f func(pair) float64) []float64 {
	xs := make([]float64, len(pairs))
	for i, p := range pairs {
		xs[i] = f(p)
	}
	return xs
}

// perUnit is f of each A side per unit of work: per run, or per job on
// serve_mix.
func perUnit(pairs []pair, f func(timing) float64) []float64 {
	return perPair(pairs, func(p pair) float64 { return f(p.a.timing) / float64(len(p.a.units)) })
}

// endToEndMetrics derives the gated metrics from the untraced pairs. All
// are counts the program makes: on the authoring host no clock repeats well
// enough to gate (see README.md), so every time is in the per-layer table.
func endToEndMetrics(pairs []pair) map[string]float64 {
	last := pairs[len(pairs)-1].a
	return map[string]float64{
		"io_ops":         last.ioOps,
		"io_util":        last.ioUtil,
		"mem_high_words": last.memHigh,
		"disk_bytes_per_input_byte": median(perPair(pairs, func(p pair) float64 {
			return p.a.diskBytes / (8 * p.a.inputWords)
		})),
		"alloc_mb": median(perUnit(pairs, func(t timing) float64 { return t.allocBytes / (1 << 20) })),
		"allocs":   median(perUnit(pairs, func(t timing) float64 { return t.allocs })),
	}
}

// tracedRun is one A run that carried the tracer and registry, with the
// wall of the untraced A that ran just before it.
type tracedRun struct {
	s            sample
	phases       []embsp.PhaseTotal
	untracedWall float64
}

// enginePhases maps the engines' trace phase names to metric names.
var enginePhases = map[string]string{
	"setup": "setup_s", "fetch-ctx": "fetch_ctx_s", "fetch-msg": "fetch_msg_s",
	"compute": "compute_s", "write-ctx": "write_ctx_s", "write-msg": "write_msg_s",
	"scatter": "scatter_s", "route": "route_s", "parity-flush": "parity_s",
	"barrier-sync": "barrier_sync_s", "journal-append": "journal_append_s", "finish": "finish_s",
}

// layerMetrics derives the [T] and [S] per-layer metrics: phases from the
// traced run whose wall is the median of the traced runs, counters from the
// result that run returned, timings from the untraced pairs.
func layerMetrics(name string, pairs []pair, traced []tracedRun) map[string]float64 {
	v := make(map[string]float64)
	walls := perPair(pairs, func(p pair) float64 { return p.a.wall })
	steals := perPair(pairs, func(p pair) float64 { return p.a.steal })
	units := unitsOf(pairs)
	ratio := median(perPair(pairs, func(p pair) float64 { return p.a.wall / p.b.wall }))
	v["harness.iterations"] = float64(len(pairs))
	// The clocks, demoted from the end-to-end table: medians over the
	// iterations, and beside them the estimate at zero stolen time.
	v["host.wall_s"] = median(walls)
	v["host.wall_clean_s"] = atZeroSteal(walls, steals)
	v["host.wall_iqr_frac"] = (quantile(walls, 0.75) - quantile(walls, 0.25)) / median(walls)
	v["host.cpu_user_s"] = median(perUnit(pairs, func(t timing) float64 { return t.user }))
	v["host.cpu_sys_s"] = median(perUnit(pairs, func(t timing) float64 { return t.sys }))
	v["host.cpu_clean_s"] = atZeroSteal(perPair(pairs, func(p pair) float64 { return p.a.user + p.a.sys }), steals)
	v["host.steal_frac"] = sum(steals) / sum(walls)
	v["host.peak_rss_mb"] = peakRSSMiB()
	v["host.vs_baseline_x"] = ratio
	v["workload.build_s"] = median(perPair(pairs, func(p pair) float64 { return p.a.build }))
	v["disk.write_bytes_per_input_byte"] = median(perPair(pairs, func(p pair) float64 { return p.a.writeBytes / (8 * p.a.inputWords) }))
	v["disk.rw_syscalls"] = median(perUnit(pairs, func(t timing) float64 { return t.rwCalls }))

	// The traced run closest to the traced runs' median wall.
	tw := make([]float64, len(traced))
	for i, t := range traced {
		tw[i] = t.s.wall
	}
	pick, mid := traced[0], median(tw)
	for _, t := range traced {
		if math.Abs(t.s.wall-mid) < math.Abs(pick.s.wall-mid) {
			pick = t
		}
	}
	over := make([]float64, len(traced))
	for i, t := range traced {
		over[i] = t.s.wall/t.untracedWall - 1
	}
	v["obs.trace_overhead_frac"] = median(over)

	lanes := 1.0
	v["fault.useful_op_frac"] = 1 // every operation of a fault-free run is useful
	if res := pick.s.res; res != nil {
		em := res.EM
		lanes = float64(len(em.PerProc))
		if lanes == 0 {
			lanes = 1
		}
		v["core.supersteps"] = float64(res.Costs.Supersteps)
		v["core.groups"] = float64(em.Groups)
		v["core.k"] = float64(em.K)
		v["core.route_ops"] = float64(em.RouteOps)
		v["core.comm_pkts"] = float64(em.CommPkts)
		v["core.comm_words"] = float64(em.CommWords)
		v["core.max_bucket_skew"] = em.MaxBucketSkew
		v["core.ragged_slots"] = float64(em.RaggedSlots)
		v["core.wall_per_superstep_ms"] = median(walls) / float64(res.Costs.Supersteps) * 1e3
		v["disk.blocks_read"] = float64(em.Run.BlocksRead)
		v["disk.blocks_written"] = float64(em.Run.BlocksWritten)
		var busiest, total int64
		for _, d := range em.Run.PerDrive {
			blocks := d.BlocksRead + d.BlocksWritten
			busiest = max(busiest, blocks)
			total += blocks
		}
		if total > 0 {
			v["disk.max_drive_share"] = float64(busiest) * float64(len(em.Run.PerDrive)) / float64(total)
		}
		ov := em.Overlap
		if n := ov.PrefetchHits + ov.PrefetchMisses; n > 0 {
			v["disk.prefetch_hit_frac"] = float64(ov.PrefetchHits) / float64(n)
		}
		v["disk.async_writes"] = float64(ov.AsyncWrites)
		v["disk.stall_s"] = float64(ov.StallNanos) / 1e9
		v["disk.concurrent_peak"] = float64(ov.ConcurrentPeak)
		v["redundancy.parity_ops"] = float64(em.ParityOps)
		v["redundancy.parity_blocks"] = float64(em.ParityBlocks)
		v["redundancy.striped_blocks"] = float64(em.StripedBlocks)
		v["redundancy.degraded_ops"] = float64(em.DegradedOps)
		v["redundancy.repaired_blocks"] = float64(em.RepairedBlocks)
		v["fault.injected"] = float64(em.FaultsInjected)
		v["fault.retries"] = float64(em.Retries)
		v["fault.replays"] = float64(em.Replays)
		v["fault.recovery_ops"] = float64(em.RecoveryOps)
		// Under faults the clean run of the pair (the B side) says how many
		// of the operations were needed.
		if b := pairs[0].b; em.FaultsInjected > 0 && b.ioOps > 0 {
			v["fault.useful_op_frac"] = b.ioOps / pick.s.ioOps
		}
	}

	// Engine phases tile each lane, so per lane they sum to the wall.
	var engine float64
	for _, ph := range pick.phases {
		sec := float64(ph.Nanos) / 1e9
		switch ph.Cat {
		case "engine":
			if m, ok := enginePhases[ph.Name]; ok {
				v["core.phase."+m] = sec / lanes
			}
			if ph.Name == "journal-append" {
				v["journal.appends"] = float64(ph.Count)
			}
			engine += sec / lanes
		case "io":
			if m, ok := strings.CutPrefix(ph.Name, "phys-"); ok {
				v["disk.phys_"+m+"_s"] = sec
				v["disk.phys_"+m+"s"] = float64(ph.Count)
			}
		}
	}
	if len(pick.phases) > 0 {
		v["core.self_s"] = pick.s.wall - engine
		v["core.phase_cover_frac"] = engine / pick.s.wall
	}

	for _, p := range pairs {
		for k, x := range p.b.layer {
			v[k] = x // calibrations the baseline took; the last pair's stand
		}
	}
	for k, x := range pick.s.layer {
		v[k] = x
	}
	switch name {
	case "sort_mem":
		v["bsp.reference_s"] = median(perPair(pairs, func(p pair) float64 { return p.b.wall }))
		v["bsp.reference_cpu_user_s"] = median(perPair(pairs, func(p pair) float64 { return p.b.user }))
		v["bsp.slowdown_vs_ref_x"] = ratio
	case "sort_lat":
		v["disk.schedule_efficiency"] = 1 / ratio
	case "listrank_par":
		v["core.par_speedup_x"] = 1 / ratio
	case "sort_cluster":
		v["cluster.overhead_x"] = ratio
	case "serve_mix":
		// A traced round differs from an untraced one only in the registry
		// it hands the supervisor, so its jobs count towards the latencies.
		for _, t := range traced {
			units = append(units, t.s.units...)
			walls = append(walls, t.s.wall)
		}
		v["jobs.per_s"] = float64(len(units)) / sum(walls)
		v["jobs.p50_ms"] = median(units) * 1e3
		v["jobs.p90_ms"] = tailQuantile(units, 0.9) * 1e3
		var direct []float64
		for _, p := range pairs {
			direct = append(direct, p.b.units...)
		}
		v["jobs.overhead_ms"] = (median(units) - median(direct)) * 1e3
		v["jobs.submit_us"] = median(perPair(pairs, func(p pair) float64 { return p.a.layer["jobs.submit_us"] }))
	}
	return v
}

// unitsOf concatenates the A sides' per-unit latencies.
func unitsOf(pairs []pair) []float64 {
	var xs []float64
	for _, p := range pairs {
		xs = append(xs, p.a.units...)
	}
	return xs
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// printResult writes the metrics by name with their units, then the result
// object as the last line.
func printResult(w *os.File, name string, defs []metricDef, res *result, line []byte) {
	fmt.Fprintf(w, "workload %s: %d verified operations, %d failed\n", name, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(w, "%s\n", line)
}
