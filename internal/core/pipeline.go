package core

import (
	"embsp/internal/disk"
)

// The group pipeline overlaps physical I/O with compute without
// touching the model: while one round's group runs its computation
// phase, the engine stages the next round's context and incoming-message
// blocks into the file store's physical cache (disk.File.Prefetch), and
// the last round's context and message writes drain through the store's
// write-behind queues. Every logical ReadOp/WriteOp still happens in
// exact serial order with its accounting applied at call time, so
// results and every cost statistic are bitwise identical with the
// pipeline on or off — only wall-clock time changes. See DESIGN.md
// §11 for the full determinism argument.
//
// Prefetch addresses are logical. While every drive lives, logical
// and physical coincide and the staged blocks are direct hits; after
// a drive death the redundancy layer redirects reads elsewhere
// and the staged entries simply go unused (a later miss, never a
// wrong byte) — prefetching is pure cache priming with zero model
// accounting either way.

// fileStoreOpts resolves the run options and the engine memory budget
// into the file store's options. The prefetch /
// write-behind cache gets a quarter of the engine's internal-memory
// budget, so the pipeline is bounded by the same O(M) constant as the
// engine itself (internal/mem enforces it inside the store). pid
// labels the store's trace spans with the owning processor.
func fileStoreOpts(cfg MachineConfig, opts Options, k, mu, gamma, pid int) disk.FileOptions {
	return disk.FileOptions{
		CacheWords:    engineMemLimit(cfg, k, mu, gamma) / 4,
		AccessLatency: opts.DriveLatency,
		Tracer:        opts.Trace,
		TracePID:      pid,
	}
}

// prefetchNext is the group pipeline's hint: while batch j computes (or
// is skipped), stage the blocks the superstep's next round reads into the
// local store's physical cache — purely physical, no accounting.
func (sh *simShape) prefetchNext(ps *procState, j, step int) {
	if r := sh.batchAt(step, j) + 1; r < sh.batches {
		if pf := ps.prefetcher(); pf != nil {
			pf.Prefetch(sh.prefetchBatch(ps, sh.batchAt(step, r), step))
		}
	}
}

// prefetchFirst is the group pipeline's hint across a barrier: once the
// store has synced — its writes drained, so nothing the superstep wrote
// is still in flight — stage what superstep step's first round reads
// while the decision record is appended.
func (sh *simShape) prefetchFirst(ps *procState, step int) {
	if pf := ps.prefetcher(); pf != nil {
		pf.Prefetch(sh.prefetchBatch(ps, sh.batchAt(step, 0), step))
	}
}

// prefetchBatch collects the blocks processor ps will read for batch
// j: the tracks the context directory lists for its committed contexts
// (none for a held batch) plus the batch's message blocks — none for a
// batch it knows will be skipped. Only a one-processor machine knows a
// batch's input ahead of its round; the others gather it from every
// processor. The list is the processor's hint buffer, which the next
// call reuses: the store copies what it stages before Prefetch returns.
func (sh *simShape) prefetchBatch(ps *procState, j, step int) []disk.Addr {
	lo, hi := sh.batchBounds(ps, j)
	if lo == hi || sh.cfg.P == 1 && sh.skips(ps, j, step, !ps.inDir.holds(j)) {
		return nil
	}
	addrs := append(ps.hint[:0], ps.ctxDir[j]...)
	if ps.inDir != nil {
		for d, refs := range ps.inDir.q[j] {
			for _, ref := range refs {
				addrs = append(addrs, disk.Addr{Disk: d, Track: ref.track})
			}
		}
	}
	ps.hint = addrs
	return addrs
}
