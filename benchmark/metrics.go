package main

import "encoding/json"

// metricDef names one metric of the benchmark. The two tables below are
// the single source of BENCHMARK.json's end_to_end and per_layer lists
// (see manifest; the test compares the committed file with it).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64 `json:"-"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is reported by every workload with -trace 0, and is what later
// changes are gated on. Every metric but setup_s is a count the program
// makes, exact or nearly so for a seed: the paper's cost measure (parallel
// I/O operations and how full they are), the drives' footprint, and the
// memory the run allocates and holds. Wall clock, CPU time and the ratio to
// each workload's baseline are measured with the same care but sit in the
// per-layer table as host.*: on the 2-vCPU authoring guest the hypervisor
// steals 40-100% of a CPU and fsync takes 10 ms to 10 s, so ten runs of one
// commit differ by more than the largest bound the benchmark may set.
// README.md has the spreads. Each bound is at least three times the widest
// spread seen across ten seeds on any workload (listrank_par's, whose
// h-relations and context sizes follow the random list).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"io_ops", "count", lower, 0.10},
	{"io_util", "ratio", higher, 0.10},
	{"disk_bytes_per_input_byte", "ratio", lower, 0.12},
	{"mem_high_words", "count", lower, 0.18},
	{"alloc_mb", "MiB", lower, 0.10},
	{"allocs", "count", lower, 0.10},
}

// perLayer is reported by every workload with -trace 1: one traced
// iteration's phases [T], the counters the timed call returned [S], and the
// layer drives [D]. A metric a workload does not exercise reads 0 there,
// which is the prediction the README tables make ("no movement elsewhere").
var perLayer = []metricDef{
	// core [T]: engine phases of the traced iteration, per lane.
	{Name: "core.phase.setup_s", Unit: "s", Better: lower},
	{Name: "core.phase.fetch_ctx_s", Unit: "s", Better: lower},
	{Name: "core.phase.fetch_msg_s", Unit: "s", Better: lower},
	{Name: "core.phase.compute_s", Unit: "s", Better: lower},
	{Name: "core.phase.write_ctx_s", Unit: "s", Better: lower},
	{Name: "core.phase.write_msg_s", Unit: "s", Better: lower},
	{Name: "core.phase.scatter_s", Unit: "s", Better: lower},
	{Name: "core.phase.route_s", Unit: "s", Better: lower},
	{Name: "core.phase.parity_s", Unit: "s", Better: lower},
	{Name: "core.phase.barrier_sync_s", Unit: "s", Better: lower},
	{Name: "core.phase.journal_append_s", Unit: "s", Better: lower},
	{Name: "core.phase.finish_s", Unit: "s", Better: lower},
	{Name: "core.self_s", Unit: "s", Better: lower},
	{Name: "core.phase_cover_frac", Unit: "ratio", Better: higher},
	// core [S]
	{Name: "core.supersteps", Unit: "count", Better: lower},
	{Name: "core.groups", Unit: "count", Better: lower},
	{Name: "core.k", Unit: "count", Better: higher},
	{Name: "core.route_ops", Unit: "count", Better: lower},
	{Name: "core.comm_pkts", Unit: "count", Better: lower},
	{Name: "core.comm_words", Unit: "count", Better: lower},
	{Name: "core.max_bucket_skew", Unit: "ratio", Better: lower},
	{Name: "core.ragged_slots", Unit: "count", Better: lower},
	{Name: "core.wall_per_superstep_ms", Unit: "ms", Better: lower},
	{Name: "core.par_speedup_x", Unit: "ratio", Better: higher},
	// bsp / alg [D, interleaved]
	{Name: "bsp.reference_s", Unit: "s", Better: lower},
	{Name: "bsp.reference_cpu_user_s", Unit: "s", Better: lower},
	{Name: "bsp.slowdown_vs_ref_x", Unit: "ratio", Better: lower},
	// disk [T]
	{Name: "disk.phys_read_s", Unit: "s", Better: lower},
	{Name: "disk.phys_write_s", Unit: "s", Better: lower},
	{Name: "disk.phys_wipe_s", Unit: "s", Better: lower},
	{Name: "disk.phys_fsync_s", Unit: "s", Better: lower},
	{Name: "disk.phys_reads", Unit: "count", Better: lower},
	{Name: "disk.phys_writes", Unit: "count", Better: lower},
	{Name: "disk.phys_wipes", Unit: "count", Better: lower},
	{Name: "disk.phys_fsyncs", Unit: "count", Better: lower},
	// disk [S]
	{Name: "disk.blocks_read", Unit: "count", Better: lower},
	{Name: "disk.blocks_written", Unit: "count", Better: lower},
	{Name: "disk.max_drive_share", Unit: "ratio", Better: lower},
	{Name: "disk.prefetch_hit_frac", Unit: "ratio", Better: higher},
	{Name: "disk.async_writes", Unit: "count", Better: higher},
	{Name: "disk.stall_s", Unit: "s", Better: lower},
	{Name: "disk.concurrent_peak", Unit: "count", Better: higher},
	{Name: "disk.schedule_efficiency", Unit: "ratio", Better: higher},
	{Name: "disk.write_bytes_per_input_byte", Unit: "ratio", Better: lower},
	{Name: "disk.rw_syscalls", Unit: "count", Better: lower},
	// disk [D]
	{Name: "disk.array.write_us_per_track", Unit: "us", Better: lower},
	{Name: "disk.array.read_us_per_track", Unit: "us", Better: lower},
	{Name: "disk.array.sync_ms", Unit: "ms", Better: lower},
	{Name: "disk.array.ops", Unit: "count", Better: lower},
	{Name: "disk.file.write_us_per_track", Unit: "us", Better: lower},
	{Name: "disk.file.read_us_per_track", Unit: "us", Better: lower},
	{Name: "disk.file.sync_ms", Unit: "ms", Better: lower},
	{Name: "disk.file.ops", Unit: "count", Better: lower},
	{Name: "disk.mapped.write_us_per_track", Unit: "us", Better: lower},
	{Name: "disk.mapped.read_us_per_track", Unit: "us", Better: lower},
	{Name: "disk.mapped.sync_ms", Unit: "ms", Better: lower},
	{Name: "disk.mapped.ops", Unit: "count", Better: lower},
	{Name: "disk.tier.write_us_per_track", Unit: "us", Better: lower},
	{Name: "disk.tier.read_us_per_track", Unit: "us", Better: lower},
	{Name: "disk.tier.sync_ms", Unit: "ms", Better: lower},
	{Name: "disk.tier.ops", Unit: "count", Better: lower},
	{Name: "disk.checksum_ns_per_word", Unit: "ns", Better: lower},
	// journal [D], [T]
	{Name: "journal.append_ms", Unit: "ms", Better: lower},
	{Name: "journal.bytes_per_record", Unit: "count", Better: lower},
	{Name: "journal.appends", Unit: "count", Better: lower},
	// redundancy [S], [D]
	{Name: "redundancy.parity_ops", Unit: "count", Better: lower},
	{Name: "redundancy.parity_blocks", Unit: "count", Better: lower},
	{Name: "redundancy.striped_blocks", Unit: "count", Better: higher},
	{Name: "redundancy.degraded_ops", Unit: "count", Better: lower},
	{Name: "redundancy.repaired_blocks", Unit: "count", Better: lower},
	{Name: "redundancy.flush_us_per_track", Unit: "us", Better: lower},
	{Name: "redundancy.rmw_us_per_track", Unit: "us", Better: lower},
	{Name: "redundancy.parity_blocks_per_data_block", Unit: "ratio", Better: lower},
	// fault [S]
	{Name: "fault.injected", Unit: "count", Better: lower},
	{Name: "fault.retries", Unit: "count", Better: lower},
	{Name: "fault.replays", Unit: "count", Better: lower},
	{Name: "fault.recovery_ops", Unit: "count", Better: lower},
	{Name: "fault.useful_op_frac", Unit: "ratio", Better: higher},
	// pdm [D]
	{Name: "pdm.mergesort_io_ops", Unit: "count", Better: lower},
	{Name: "pdm.mergesort_s", Unit: "s", Better: lower},
	{Name: "core.io_vs_pdm_x", Unit: "ratio", Better: lower},
	// cluster [S, registry], [D]
	{Name: "cluster.tx_bytes", Unit: "count", Better: lower},
	{Name: "cluster.rx_bytes", Unit: "count", Better: lower},
	{Name: "cluster.tx_frames", Unit: "count", Better: lower},
	{Name: "cluster.retries", Unit: "count", Better: lower},
	{Name: "cluster.barrier_waits", Unit: "count", Better: lower},
	{Name: "cluster.barrier_wait_mean_ms", Unit: "ms", Better: lower},
	{Name: "cluster.heartbeat_misses", Unit: "count", Better: lower},
	{Name: "cluster.overhead_x", Unit: "ratio", Better: lower},
	{Name: "cluster.link_rtt_us", Unit: "us", Better: lower},
	{Name: "cluster.link_mb_s", Unit: "MB/s", Better: higher},
	// jobs [S, registry + Get]
	{Name: "jobs.queue_wait_mean_ms", Unit: "ms", Better: lower},
	{Name: "jobs.run_mean_ms", Unit: "ms", Better: lower},
	{Name: "jobs.submit_us", Unit: "us", Better: lower},
	{Name: "jobs.retries", Unit: "count", Better: lower},
	{Name: "jobs.refused", Unit: "count", Better: lower},
	{Name: "jobs.overhead_ms", Unit: "ms", Better: lower},
	{Name: "jobs.per_s", Unit: "1/s", Better: higher},
	{Name: "jobs.p50_ms", Unit: "ms", Better: lower},
	{Name: "jobs.p90_ms", Unit: "ms", Better: lower},
	// mem, obs, workload [D], [T]
	{Name: "mem.grab_release_ns", Unit: "ns", Better: lower},
	{Name: "obs.span_ns", Unit: "ns", Better: lower},
	{Name: "obs.nil_span_ns", Unit: "ns", Better: lower},
	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: lower},
	{Name: "workload.build_s", Unit: "s", Better: lower},
	// host: the clocks, which do not repeat well enough here to gate
	{Name: "host.wall_s", Unit: "s", Better: lower},
	{Name: "host.wall_clean_s", Unit: "s", Better: lower},
	{Name: "host.cpu_user_s", Unit: "s", Better: lower},
	{Name: "host.cpu_sys_s", Unit: "s", Better: lower},
	{Name: "host.cpu_clean_s", Unit: "s", Better: lower},
	{Name: "host.vs_baseline_x", Unit: "ratio", Better: lower},
	{Name: "host.steal_frac", Unit: "ratio", Better: lower},
	{Name: "host.peak_rss_mb", Unit: "MiB", Better: lower},
	{Name: "host.sleep_1ms_actual_ms", Unit: "ms", Better: lower},
	{Name: "host.wall_iqr_frac", Unit: "ratio", Better: lower},
	{Name: "harness.warmup_s", Unit: "s", Better: lower},
	{Name: "harness.iterations", Unit: "count", Better: higher},
	{Name: "harness.fail_frac", Unit: "ratio", Better: lower},
}

// manifest renders BENCHMARK.json from the tables above and the workload
// list, so the committed file cannot drift from what the command prints.
func manifest() []byte {
	type boundDef struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []boundDef      `json:"end_to_end"`
		PerLayer   []metricDef     `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadEntry{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, boundDef{d.Name, d.Unit, d.Better, d.Bound})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return append(out, '\n')
}
