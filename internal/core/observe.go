package core

import (
	"embsp/internal/obs"
)

// Engine trace-phase names. Engine-category spans are emitted so that
// they tile each processor's timeline exclusively — no two engine
// spans of one processor overlap — which is what makes the per-phase
// report's shares of wall clock meaningful. The file store's physical
// transfers (obs.CatIO) run concurrently underneath them.
const (
	phSetup    = "setup"        // reserve + write initial contexts
	phFinish   = "finish"       // read back final contexts
	phFetchCtx = "fetch-ctx"    // read a group's context blocks
	phFetchMsg = "fetch-msg"    // read + reassemble a group's messages
	phCompute  = "compute"      // simulate the group's virtual processors
	phScatter  = "scatter"      // pack messages into blocks and deliver them to their owners
	phWriteMsg = "write-msg"    // write generated message blocks
	phWriteCtx = "write-ctx"    // write back a group's contexts
	phRoute    = "route"        // SimulateRouting, in DemoRouting alone
	phParity   = "parity-flush" // redundancy.FlushParity at the barrier
	phBarrier  = "barrier-sync" // store.Sync before the journal append
	// The journal itself emits "journal-append" (see journal.SetTracer).
)

// publishEMStats exposes the run's final model aggregates as named
// metrics (Set: these are end-of-run totals, not increments). The
// fault, redundancy and overlap counters are published by their own
// layers' Publish methods; this covers the EM-simulation quantities.
func publishEMStats(r *obs.Registry, em *EMStats) {
	if r == nil {
		return
	}
	set := func(name string, v int64) { r.Counter(name).Set(v) }
	set("em_group_size_k", int64(em.K))
	set("em_groups", int64(em.Groups))
	set("em_setup_ops", em.Setup.Ops)
	set("em_run_ops", em.Run.Ops)
	set("em_run_read_ops", em.Run.ReadOps)
	set("em_run_write_ops", em.Run.WriteOps)
	set("em_run_blocks_read", em.Run.BlocksRead)
	set("em_run_blocks_written", em.Run.BlocksWritten)
	set("em_finish_ops", em.Finish.Ops)
	set("em_mem_high_words", em.MemHigh)
	set("em_live_blocks_per_drive", em.LiveBlocksPerDrive)
	set("em_comm_words", em.CommWords)
	set("em_comm_pkts", em.CommPkts)
	set("em_replays", em.Replays)
}
