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

// Store backend names reported in EMStats.StoreBackend.
const (
	backendFile   = "file"
	backendMapped = "mapped"
	// backendMappedFallback marks a run that asked for the mapped
	// store on a platform without mmap support and got the (on-disk
	// compatible, bitwise-identical) file store instead.
	backendMappedFallback = "mapped→file"
)

// openRunStore opens the durable links of one processor's chain: the
// mmap-backed store when Options.MappedStore is set and the platform
// supports it (falling back to the file store otherwise, so mapped runs
// degrade gracefully on foreign platforms — the two stores share one
// on-disk format, so the fallback is invisible to results and resume;
// EMStats.StoreBackend and the store_mapped_fallbacks metric make it
// visible to observability), else the file store with the run's
// I/O-worker options — then any Options.Tiers stacked above it,
// innermost last.
func openRunStore(dir string, cfg MachineConfig, opts Options, resume bool, k, mu, gamma, pid int) (disk.Store, error) {
	dcfg := disk.Config{D: cfg.D, B: cfg.B}
	var chain disk.Store
	var err error
	if opts.MappedStore && disk.MmapSupported() {
		chain, err = disk.OpenMapped(dir, dcfg, resume, disk.MappedOptions{
			AccessLatency: opts.DriveLatency,
			Tracer:        opts.Trace,
			TracePID:      pid,
		})
	} else {
		if opts.MappedStore {
			opts.Metrics.Counter("store_mapped_fallbacks").Add(1)
		}
		chain, err = disk.OpenFileOpts(dir, dcfg, resume, fileStoreOpts(cfg, opts, k, mu, gamma, pid))
	}
	if err != nil {
		return nil, err
	}
	// Stack the tier chain, innermost (last spec) first. A tier's
	// fill workers only run on the pipelined schedule and when there is
	// emulated latency below it to hide — at page-cache speed a
	// staging copy costs more than the read it saves, mirroring the
	// file store's own zero-latency fill skip.
	latBelow := opts.DriveLatency
	for i := len(opts.Tiers) - 1; i >= 0; i-- {
		spec := opts.Tiers[i]
		words := spec.Words
		if words == 0 {
			words = engineMemLimit(cfg, k, mu, gamma) / 4
		}
		fill := 0
		if !opts.serial() && latBelow > 0 {
			fill = cfg.D
		}
		chain = disk.NewTier(chain, disk.TierOptions{
			CacheWords:    words,
			AccessLatency: spec.Latency,
			FillWorkers:   fill,
			Tracer:        opts.Trace,
			TracePID:      pid,
			Level:         i,
		})
		latBelow += spec.Latency
	}
	return chain, nil
}

// addTierStats folds one processor's tier counters into a run
// aggregate (index-aligned: every processor runs the same chain).
func addTierStats(agg []disk.TierStats, ts []disk.TierStats) []disk.TierStats {
	if agg == nil {
		agg = make([]disk.TierStats, len(ts))
		for i := range ts {
			agg[i].Level = ts[i].Level
			agg[i].CapWords = ts[i].CapWords
		}
	}
	for i := range ts {
		if i >= len(agg) {
			break
		}
		agg[i].Hits += ts[i].Hits
		agg[i].Misses += ts[i].Misses
		agg[i].Fills += ts[i].Fills
		agg[i].Drains += ts[i].Drains
		agg[i].HighWords = max(agg[i].HighWords, ts[i].HighWords)
	}
	return agg
}

// fileStoreOpts resolves the run options' I/O-worker knob and the
// engine memory budget into the file store's options. The prefetch /
// write-behind cache gets a quarter of the engine's internal-memory
// budget, so the pipeline is bounded by the same O(M) constant as the
// engine itself (internal/mem enforces it inside the store). pid
// labels the store's trace spans with the owning processor.
func fileStoreOpts(cfg MachineConfig, opts Options, k, mu, gamma, pid int) disk.FileOptions {
	w := opts.IOWorkers
	switch w {
	case -1:
		w = 0 // synchronous
	case 0:
		w = cfg.D // default: one worker per drive
	}
	return disk.FileOptions{
		Workers:       w,
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
		if pf := ps.prefetcher(sh.opts); pf != nil {
			pf.Prefetch(sh.prefetchBatch(ps, sh.batchAt(step, r), step))
		}
	}
}

// prefetchFirst is the group pipeline's hint across a barrier: once the
// store has synced — its writes drained, so nothing the superstep wrote
// is still in flight — stage what superstep step's first round reads
// while the decision record is appended.
func (sh *simShape) prefetchFirst(ps *procState, step int) {
	if pf := ps.prefetcher(sh.opts); pf != nil {
		pf.Prefetch(sh.prefetchBatch(ps, sh.batchAt(step, 0), step))
	}
}

// prefetchBatch collects the blocks processor ps will read for batch
// j: the tracks the context directory lists for its committed contexts
// (none for a held batch) plus the batch's message blocks — none for a
// batch it knows will be skipped. Only a one-processor machine knows a
// batch's input ahead of its round; the others gather it from every
// processor.
func (sh *simShape) prefetchBatch(ps *procState, j, step int) []disk.Addr {
	lo, hi := sh.batchBounds(ps, j)
	if lo == hi || sh.cfg.P == 1 && sh.skips(ps, j, step, !ps.inDir.holds(j)) {
		return nil
	}
	addrs := append([]disk.Addr(nil), ps.ctxDir[j]...)
	if ps.inDir != nil {
		for d, refs := range ps.inDir.q[j] {
			for _, ref := range refs {
				addrs = append(addrs, disk.Addr{Disk: d, Track: ref.track})
			}
		}
	}
	return addrs
}
