package core

import (
	"fmt"

	"embsp/internal/disk"
	"embsp/internal/fault"
	"embsp/internal/obs"
	"embsp/internal/prng"
	"embsp/internal/redundancy"
	"embsp/internal/words"
)

// storeStack is one processor's store chain, built in one place
// (openStack) for every engine, outermost link first: the fault layer
// when the run has a fault plan; the redundancy layer when Redundancy is
// mirror or parity; then the in-memory array, or the durable file
// store. The engines address the one value for I/O, state,
// durability and the raw track hooks alike, and find a layer's own
// surface by walking it (disk.Find) — per superstep, barrier or batch,
// never per block.
type storeStack struct {
	chain disk.Store
	// The chain's statistics and state as ops and encodeState last read
	// them, in memory they reuse.
	stats disk.Stats
	state disk.StoreState
}

// openStack builds processor pid's chain: file-backed under dir, or
// in-memory when dir is empty. Each processor's fault layer gets its
// own schedule — on a multiprocessor machine keyed per processor — and
// the planned drive death strikes only processor FailProc. The fault
// layer only injects; what survives a drive death is the redundancy
// layer below it. The wrap decision must be uniform across processors —
// the engines treat the fault layer as all-or-nothing — so it depends on
// the original plan, not the per-processor pruned copy.
func openStack(dir string, cfg MachineConfig, opts Options, resume bool, k, mu, gamma, pid int) (storeStack, error) {
	var chain disk.Store
	if dir == "" {
		chain = disk.MustNewArray(disk.Config{D: cfg.D, B: cfg.B})
	} else {
		var err error
		if chain, err = disk.OpenFileOpts(dir, disk.Config{D: cfg.D, B: cfg.B}, resume, fileStoreOpts(cfg, opts, k, mu, gamma, pid)); err != nil {
			return storeStack{}, err
		}
	}
	if opts.Redundancy != redundancy.None {
		wrap := redundancy.Wrap
		if opts.Redundancy == redundancy.Mirror {
			wrap = redundancy.WrapMirror
		}
		red, err := wrap(chain)
		if err != nil {
			chain.Close()
			return storeStack{}, err
		}
		chain = red
	}
	if opts.FaultPlan != nil && opts.FaultPlan.Enabled() {
		plan := *opts.FaultPlan
		if cfg.P > 1 {
			plan.Seed = prng.Derive(plan.Seed, 0xFA17, uint64(pid))
		}
		if plan.FailProc != pid {
			plan.FailDriveOp = 0
		}
		fd, err := fault.Wrap(chain, plan, opts.MaxRetries)
		if err != nil {
			chain.Close()
			return storeStack{}, err
		}
		chain = fd
	}
	return storeStack{chain: chain}, nil
}

// ops returns the operations the chain has performed.
func (s *storeStack) ops() int64 {
	s.chain.StatsInto(&s.stats)
	return s.stats.Ops
}

// durable reports whether the chain ends in drive files rather than in
// the in-memory array.
func (s storeStack) durable() bool {
	return disk.Find[*disk.Array](s.chain) == nil
}

// prefetcher returns the group pipeline's prefetch target: the file
// store, the one store that stages blocks, or nil when the chain ends
// in the in-memory array. A file store with no latency to hide ignores
// the hint.
func (s storeStack) prefetcher() *disk.File {
	return disk.Find[*disk.File](s.chain)
}

// redundant reports whether the chain has a redundancy layer.
func (s storeStack) redundant() bool {
	return disk.Find[*redundancy.Store](s.chain) != nil
}

// seal closes the redundancy layer's open stripes (redundancy.Store.Seal);
// without one it does nothing.
func (s storeStack) seal() {
	if red := disk.Find[*redundancy.Store](s.chain); red != nil {
		red.Seal()
	}
}

// parityBarrier is the redundancy-aware commit point: at every barrier
// the superstep's parity and copies are flushed, before the journal
// commit, so the manifest always captures a parity-consistent state.
// Returns the I/O operations consumed, so a multiprocessor driver can
// charge the slowest processor's share.
func (s *storeStack) parityBarrier(tr *obs.Tracer, pid int) (int64, error) {
	red := disk.Find[*redundancy.Store](s.chain)
	if red == nil {
		return 0, nil
	}
	before := s.ops()
	sp := tr.Begin(obs.CatEngine, phParity, pid, 0)
	err := red.FlushParity()
	sp.End()
	if err != nil {
		return 0, err
	}
	return s.ops() - before, nil
}

// reconcile runs after a resume adopted the manifest: a crashed attempt
// wrote no track the manifest checksums, so what it finds is rot at rest
// — one bad track a stripe is repaired before the replay reads it, and
// anything more fails the resume (redundancy.Store.Reconcile).
func (s storeStack) reconcile() error {
	if red := disk.Find[*redundancy.Store](s.chain); red != nil {
		return red.Reconcile()
	}
	return nil
}

// encodeState appends the chain's journaled state: the store's
// StoreState, then each optional layer behind a presence flag.
func (s *storeStack) encodeState(enc *words.Encoder) {
	s.chain.StateInto(&s.state)
	encodeStoreState(enc, s.state)
	fd, red := disk.Find[*fault.Disk](s.chain), disk.Find[*redundancy.Store](s.chain)
	enc.PutBool(fd != nil)
	if fd != nil {
		fd.EncodeState(enc)
	}
	enc.PutBool(red != nil)
	if red != nil {
		red.EncodeState(enc)
	}
}

// decodeState adopts what encodeState wrote — the store's state st,
// already decoded, then the layers' — refusing a journal whose layers
// disagree with the resuming options. The store checks the state before
// it adopts any of it. A resume adopts it all into a freshly opened
// chain; a superstep replay (replay) keeps the chain's history: the
// store's statistics and access chains (disk.Rollback) and what each
// layer's DecodeState names.
func (s storeStack) decodeState(st disk.StoreState, dec *words.Decoder, replay bool) error {
	adopt := s.chain.AdoptState
	if replay {
		adopt = func(st disk.StoreState) error { return disk.Rollback(s.chain, st) }
	}
	if err := adopt(st); err != nil {
		return &engineError{msg: "journal's allocator state refused: " + err.Error()}
	}
	fd, red := disk.Find[*fault.Disk](s.chain), disk.Find[*redundancy.Store](s.chain)
	hadFault := dec.Bool()
	if hadFault != (fd != nil) {
		return fmt.Errorf("core: journal fault-layer presence (%v) disagrees with the resuming options (%v)", hadFault, fd != nil)
	}
	if fd != nil {
		if err := fd.DecodeState(dec, replay); err != nil {
			return err
		}
	}
	hadRed := dec.Bool()
	if hadRed != (red != nil) {
		return fmt.Errorf("core: journal redundancy-layer presence (%v) disagrees with the resuming options (%v)", hadRed, red != nil)
	}
	if red != nil {
		return red.DecodeState(dec, replay)
	}
	return nil
}

// report folds the chain's layer counters into a run's EMStats and
// metrics registry; called once per processor (every field it touches
// accumulates, so the multiprocessor fold is the same call repeated).
func (s storeStack) report(em *EMStats, reg *obs.Registry) {
	if fd := disk.Find[*fault.Disk](s.chain); fd != nil {
		c := fd.Counters()
		em.FaultsInjected += c.Injected()
		em.ChecksumFailures += c.ChecksumFailures
		em.DriveFailures += c.DriveFailures
		em.Retries += c.Retries
		em.RetriedBlocks += c.RetriedBlocks
		em.RecoveryOps += c.RecoveryOps
		c.Publish(reg)
	}
	if red := disk.Find[*redundancy.Store](s.chain); red != nil {
		c := red.Counters()
		em.ChecksumFailures += c.ChecksumFailures
		em.ParityOps += c.ParityOps
		em.ParityBlocks += c.ParityBlocks
		em.StripedBlocks += c.StripedBlocks
		em.DegradedOps += c.DegradedOps
		em.ReconstructedBlocks += c.ReconstructedBlocks
		c.Publish(reg)
		// The parity cache is outside the budget M.
		reg.Counter("parity_cache_peak_blocks").Max(int64(red.CachePeak()))
	}
	if f := disk.Find[*disk.File](s.chain); f != nil {
		ov := f.Overlap()
		em.Overlap.Add(ov)
		ov.Publish(reg)
	}
}
