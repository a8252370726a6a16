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
// (openStack) for every engine: the in-memory array, or the durable
// backend under any tier chain; then the parity layer when Redundancy
// is parity; then the fault layer when the run has a fault plan. The
// engines embed it and address the chain through dsk.
type storeStack struct {
	store   disk.Store        // outermost store: raw array/file/mapped, or the parity layer over it
	bfile   fileStore         // the durable store chain (tiers over file/mapped), nil for in-memory runs
	backend string            // name of the durable backend actually opened ("" in-memory)
	pf      disk.Prefetcher   // group-pipeline prefetch target, nil when off
	red     *redundancy.Store // nil unless Redundancy is parity
	fd      *fault.Disk       // nil without a fault plan
	dsk     disk.Disk         // store, or fd wrapping it
}

// openStack builds processor pid's chain: file-backed under dir, or
// in-memory when dir is empty. Each processor's fault layer gets its
// own schedule — on a multiprocessor machine keyed per processor — and
// the planned drive death strikes only processor FailProc. Redundancy
// mode is explicit: the fault layer mirrors exactly when the run asked
// for mirror redundancy (parity protection lives in the layer below
// it). The wrap decision must be uniform across processors — the
// engines treat fd as all-or-nothing — so it depends on the original
// plan, not the per-processor pruned copy.
func openStack(dir string, cfg MachineConfig, opts Options, resume bool, k, mu, gamma, pid int) (storeStack, error) {
	var s storeStack
	if dir != "" {
		f, pf, backend, err := openRunStore(dir, cfg, opts, resume, k, mu, gamma, pid)
		if err != nil {
			return s, err
		}
		s.store, s.bfile, s.pf, s.backend = f, f, pf, backend
	} else {
		s.store = disk.MustNewArray(disk.Config{D: cfg.D, B: cfg.B})
	}
	mode := opts.effectiveRedundancy()
	if mode == redundancy.Parity {
		red, err := redundancy.Wrap(s.store)
		if err != nil {
			s.store.Close()
			return s, err
		}
		s.red, s.store = red, red
	}
	s.dsk = s.store
	var plan fault.Plan
	if opts.FaultPlan != nil {
		plan = *opts.FaultPlan
		if cfg.P > 1 {
			plan.Seed = prng.Derive(plan.Seed, 0xFA17, uint64(pid))
		}
		if plan.FailProc != pid {
			plan.FailDriveOp = 0
		}
	}
	plan.Mirror = mode == redundancy.Mirror
	if (opts.FaultPlan != nil && opts.FaultPlan.Enabled()) || plan.Mirror {
		fd, err := fault.Wrap(s.store, plan, opts.MaxRetries)
		if err != nil {
			s.store.Close()
			return s, err
		}
		s.fd, s.dsk = fd, fd
	}
	return s, nil
}

// close releases the whole chain.
func (s *storeStack) close() error { return s.store.Close() }

// redBudget returns the per-barrier track budget for background
// redundancy maintenance (rebuild and scrub): a deterministic slice of
// work per committed superstep, proportional to the drive count so the
// maintenance rate scales with the machine.
func redBudget(D int) int { return 4 * D }

// parityBarrier is the parity-aware commit point: at every barrier the
// superstep's fresh tracks are striped into parity groups, then a
// budgeted slice of background maintenance runs — online rebuild of a
// dead drive, and (when enabled) the latent-corruption scrub. All
// before the journal commit, so the manifest always captures a
// parity-consistent state. Returns the I/O operations consumed, so a
// multiprocessor driver can charge the slowest processor's share.
func (s *storeStack) parityBarrier(tr *obs.Tracer, pid int, scrub bool) (int64, error) {
	if s.red == nil {
		return 0, nil
	}
	budget := redBudget(s.store.Config().D)
	before := s.dsk.Stats().Ops
	sp := tr.Begin(obs.CatEngine, phParity, pid, 0)
	err := s.red.FlushParity()
	sp.End()
	if err != nil {
		return 0, err
	}
	if s.red.Rebuilding() {
		sp := tr.Begin(obs.CatEngine, phRebuild, pid, 0)
		err := s.red.RebuildStep(budget)
		sp.End()
		if err != nil {
			return 0, err
		}
	}
	if scrub {
		sp := tr.Begin(obs.CatEngine, phScrub, pid, 0)
		_, err := s.red.Scrub(budget)
		sp.End()
		if err != nil {
			return 0, err
		}
	}
	return s.dsk.Stats().Ops - before, nil
}

// reconcile runs after a resume adopted the manifest: the crashed
// attempt may have left in-place rewrites (or torn writes) the
// manifest's parity does not encode; repair or adopt them before the
// replay's parity arithmetic trusts the disk.
func (s *storeStack) reconcile() error {
	if s.red == nil {
		return nil
	}
	return s.red.Reconcile()
}

// encodeState appends the chain's journaled state: the store's
// StoreState, then each optional layer behind a presence flag.
func (s *storeStack) encodeState(enc *words.Encoder) {
	encodeStoreState(enc, s.store.State())
	enc.PutBool(s.fd != nil)
	if s.fd != nil {
		s.fd.EncodeState(enc)
	}
	enc.PutBool(s.red != nil)
	if s.red != nil {
		s.red.EncodeState(enc)
	}
}

// decodeState adopts what encodeState wrote into a freshly opened
// chain, refusing a journal whose layers disagree with the resuming
// options.
func (s *storeStack) decodeState(dec *words.Decoder) error {
	if err := s.store.AdoptState(decodeStoreState(dec)); err != nil {
		return err
	}
	hadFault := dec.Bool()
	if hadFault != (s.fd != nil) {
		return fmt.Errorf("core: journal fault-layer presence (%v) disagrees with the resuming options (%v)", hadFault, s.fd != nil)
	}
	if s.fd != nil {
		if err := s.fd.DecodeState(dec); err != nil {
			return err
		}
	}
	hadRed := dec.Bool()
	if hadRed != (s.red != nil) {
		return fmt.Errorf("core: journal parity-layer presence (%v) disagrees with the resuming options (%v)", hadRed, s.red != nil)
	}
	if s.red != nil {
		return s.red.DecodeState(dec)
	}
	return nil
}

// report folds the chain's layer counters into a run's EMStats and
// metrics registry; called once per processor (every field it touches
// accumulates, so the multiprocessor fold is the same call repeated).
func (s *storeStack) report(em *EMStats, reg *obs.Registry) {
	if s.fd != nil {
		c := s.fd.Counters()
		em.FaultsInjected += c.Injected()
		em.ChecksumFailures += c.ChecksumFailures
		em.DriveFailures += c.DriveFailures
		em.Retries += c.Retries
		em.RetriedBlocks += c.RetriedBlocks
		em.MirrorOps += c.MirrorOps
		em.RecoveryOps += c.RecoveryOps
		c.Publish(reg)
	}
	if s.red != nil {
		c := s.red.Counters()
		em.ChecksumFailures += c.ChecksumFailures
		em.ParityOps += c.ParityOps
		em.ParityBlocks += c.ParityBlocks
		em.StripedBlocks += c.StripedBlocks
		em.DegradedOps += c.DegradedOps
		em.ReconstructedBlocks += c.ReconstructedBlocks
		em.RepairedBlocks += c.RepairedBlocks
		em.ScrubbedBlocks += c.ScrubbedBlocks
		em.ScrubRepairs += c.ScrubRepairs
		em.RebuiltBlocks += c.RebuiltBlocks
		c.Publish(reg)
	}
	if s.bfile != nil {
		ov := s.bfile.Overlap()
		em.Overlap.Add(ov)
		ov.Publish(reg)
		publishMappedWords(reg, s.bfile)
		em.StoreBackend = s.backend
	}
}
