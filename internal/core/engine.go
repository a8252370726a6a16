package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"embsp/internal/bsp"
	"embsp/internal/disk"
	"embsp/internal/fault"
	"embsp/internal/redundancy"
	"embsp/internal/words"
)

// The in-process engine runs Algorithm 3 (ParCompoundSuperstep): a
// v-processor BSP* program on a p-processor EM-BSP* machine, for every
// p ≥ 1. At p = 1 it is Algorithm 1 (SeqCompoundSuperstep): the same
// step machine with the exchange between processors left out.
//
// Virtual processors are assigned in blocks: real processor i owns
// VPs [i·⌈v/p⌉, (i+1)·⌈v/p⌉). A compound superstep runs in
// ⌈(v/p)/k⌉ rounds; in each, one batch j — the j-th group of k VPs of
// every real processor, kp VPs in total — is simulated, the batches in
// ascending order in odd supersteps and descending order in even ones
// (snake order, batchAt), so the batch that ends a barrier begins the
// next superstep and its contexts never leave internal memory.
//
//   - Fetching phase: each processor reads the blocks pertaining to
//     batch j from its local disks: every message block for its k
//     current VPs lies there.
//   - Computing phase: each processor simulates its k current VPs.
//   - Writing phase: generated messages are packed into blocks of size
//     B, each block is delivered to the processor that owns its
//     destination VP — its own blocks straight into its block writer,
//     the others in packets of size b in one real communication
//     superstep — and every processor writes its blocks to its local
//     disks under a random drive permutation, maintaining a directory
//     keyed by destination batch — whose counts place each block on the
//     free drive where its batch holds fewest, the permutation breaking
//     ties.
//
// The paper sends each packet to a randomly chosen processor instead,
// to balance the disks, and routes the blocks to their owners at the
// next fetch; delivering them where they are read leaves that second
// crossing out, and the h-relation bounds every receiver's words
// (DESIGN.md §5). The next superstep reads a processor's received blocks
// where they lie, by that directory: a batch's scattered read is within
// an operation of fully D-parallel, so the local SimulateRouting
// (Algorithm 2) the paper runs here is shown by DemoRouting and run by
// nobody (DESIGN.md §7).
//
// Real processors run as goroutines separated by phase barriers. All
// communication cells are owned by a single writer per phase and all
// deliveries are sorted canonically, so results are bitwise
// deterministic and identical to the in-memory reference runner.
//
// The per-processor phase bodies live on simShape (node.go) and the
// order they run in, with the global accounting, in the driver
// (driver.go); this file is the driver's in-memory Transport: it hands
// the blocks that leave a processor to their owners by reference. The cluster coordinator
// (internal/cluster) is the other Transport, over the wire.
//
// With a fault plan configured, each processor's disk array is wrapped
// in its own fault layer (fault schedules keyed per processor); the
// whole compound superstep is one recovery unit: a recoverable fault
// on any processor rolls all of them — allocator, checksum directory,
// PRNG, cost recorder and memory accountant — back to the barrier and
// replays the superstep. After a permanent drive loss the block writer
// remaps its placement onto the surviving drives.

// maxReplays bounds how many times one compound superstep may be
// rolled back and replayed before the engine gives up. Each replay
// draws a fresh fault schedule, so the replay count is geometric in
// the probability of one clean attempt; the bound is a runaway
// backstop set far above anything a survivable plan produces (with
// retries disabled entirely, a large superstep can legitimately need
// dozens of attempts).
const maxReplays = 1000

type engine struct {
	simShape

	procs []*procState
	goctx context.Context
	led   *ledger // the run's global accounting, which holds the replay counters

	// snap is the open superstep's rollback source under a fault plan;
	// nil once the barrier commit began, which frees what it points at.
	snap []procSnapshot

	// What the phases return, one entry per processor, reused every
	// round. Entry [i] is set only by processor i's goroutine and read
	// only after the phase's barrier.
	outs   []*BatchOut
	totals []StepTotals
	ops    []int64
}

// faulty reports whether the engine runs under a fault plan.
func (e *engine) faulty() bool { return disk.Find[*fault.Disk](e.procs[0].chain) != nil }

func runProgram(ctx context.Context, p bsp.Program, cfg MachineConfig, opts Options) (*Result, error) {
	e, d := newEngine(ctx, p, cfg, opts)
	return e.run(d)
}

// newEngine returns the engine and the driver that runs over it.
func newEngine(ctx context.Context, p bsp.Program, cfg MachineConfig, opts Options) (*engine, *driver) {
	e := &engine{simShape: newSimShape(p, cfg, opts), goctx: ctx}
	d := &driver{t: e, ledger: newLedger(&e.simShape, manifestRunKind,
		configFingerprint(manifestRunKind, cfg, opts, e.v, e.mu, e.gamma), opts.StateDir)}
	d.procs, e.led = e.encodeProcs, &d.ledger
	return e, d
}

func (e *engine) run(d *driver) (*Result, error) {
	res, err := e.openAndRun(d)
	// The journal first, then every processor's chain.
	cerrs := []error{d.close()}
	for _, ps := range e.procs {
		if ps != nil {
			cerrs = append(cerrs, ps.chain.Close())
		}
	}
	if err == nil {
		err = errors.Join(cerrs...)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// openAndRun opens the journal, then every processor's store chain,
// and runs. A resumed run adopts its last decision record before it
// opens a single drive (ledger.load), so a state directory this engine
// cannot continue is refused untouched.
func (e *engine) openAndRun(d *driver) (*Result, error) {
	P, root := e.cfg.P, e.opts.StateDir
	var manifest *words.Decoder
	if root != "" {
		err := d.openJournal(e.opts.Resume)
		if err == nil && e.opts.Resume {
			manifest, err = d.load()
		}
		if err != nil {
			return nil, err
		}
	}
	e.procs = make([]*procState, P)
	e.outs, e.totals, e.ops = make([]*BatchOut, P), make([]StepTotals, P), make([]int64, P)
	for i := range e.procs {
		var dir string
		if root != "" {
			// Each real processor's drives live in their own
			// subdirectory; the journal is shared and lives at the root.
			dir = procDir(root, i)
		}
		ps, err := e.newProcState(i, dir, e.opts.Resume)
		if err != nil {
			return nil, err
		}
		e.procs[i], e.outs[i] = ps, &ps.out
	}
	// The barrier checkpoint discipline is active under a fault plan
	// (replays need a rollback source) or a StateDir (the state the last
	// journal record references must not be overwritten before the next
	// record is committed).
	for _, ps := range e.procs {
		ps.ckptOn = e.faulty() || root != ""
	}
	if manifest != nil {
		if err := e.decodeProcs(manifest, d.stepsDone); err != nil {
			return nil, err
		}
	}
	res, err := d.run()
	if err != nil {
		return nil, err
	}
	// The store layers' counters, which no report carries.
	for _, ps := range e.procs {
		ps.report(&res.EM, e.opts.Metrics, e.opts.MappedStore)
	}
	publishTierStats(e.opts.Metrics, res.EM.Tiers)
	return res, nil
}

// parallel runs f once per real processor, concurrently, and joins
// errors. A one-processor machine runs it on the calling goroutine.
func (e *engine) parallel(f func(ps *procState) error) error {
	if len(e.procs) == 1 {
		return f(e.procs[0])
	}
	var wg sync.WaitGroup
	errs := make([]error, len(e.procs))
	for i := range e.procs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(e.procs[i])
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// replayPhase runs a whole-directory phase across all processors,
// re-running it when a recoverable fault escapes the fault layer's
// retries. The finish phase only reads; the set-up allocates the tracks
// it writes and hands in snap, which every replay first returns the
// processors to — allocator, layers and all, so no attempt leaks a track.
func (e *engine) replayPhase(phase func(ps *procState) error, snap []procSnapshot) error {
	err := e.parallel(phase)
	r := 0
	for ; err != nil && e.faulty() && fault.Replayable(err) && r < maxReplays; r++ {
		e.led.replays++
		if snap != nil {
			if _, err := e.restore(snap); err != nil {
				return err
			}
		}
		err = e.parallel(phase)
	}
	if err != nil && r >= maxReplays {
		return fmt.Errorf("core: phase unrecoverable after %d replays: %w", r, err)
	}
	return err
}

// Setup: every processor writes its VPs' initial contexts and makes them
// durable.
func (e *engine) Setup() ([]disk.Stats, error) {
	var snap []procSnapshot
	if e.faulty() {
		snap = e.snapshot()
	}
	if err := e.replayPhase(e.writeInitialContexts, snap); err != nil {
		return nil, err
	}
	stats := make([]disk.Stats, len(e.procs))
	for i, ps := range e.procs {
		// The setup barrier's parity I/O is in Setup's counts, not in
		// IOTime, which is the simulation proper's.
		if _, err := ps.parityBarrier(e.tr, ps.id, e.opts.Scrub); err != nil {
			return nil, err
		}
		stats[i] = ps.chain.Stats()
		ps.chain.ResetStats()
		if err := e.syncStore(ps, -1); err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// Begin implements cooperative cancellation at barriers, takes the
// superstep's rollback source under a fault plan, and opens the
// superstep on every processor.
func (e *engine) Begin(step int) error {
	if err := e.goctx.Err(); err != nil {
		return fmt.Errorf("core: run cancelled at superstep barrier %d: %w", step, err)
	}
	if e.faulty() {
		e.snap = e.snapshot()
	}
	for _, ps := range e.procs {
		e.beginStep(ps)
	}
	return nil
}

// Compute simulates batch j on every processor, which delivers its own
// blocks into its block writer and leaves the others in its BatchOut.
// One processor runs it on this goroutine, with no closure to allocate.
func (e *engine) Compute(j, step int) ([]*BatchOut, error) {
	if len(e.procs) == 1 {
		return e.outs, e.computeBatch(e.procs[0], j, step)
	}
	return e.outs, e.parallel(func(ps *procState) error { return e.computeBatch(ps, j, step) })
}

// Write: every processor writes the blocks the others delivered to it
// to its local disks, maintaining the directory.
func (e *engine) Write(j, step int, outs []*BatchOut) error {
	for _, ps := range e.procs {
		in := grow(&ps.recv, len(outs))
		for src, bo := range outs {
			in[src] = bo.Scatter[ps.id]
		}
	}
	if len(e.procs) == 1 {
		return e.receiveWrite(e.procs[0], j, step, e.procs[0].recv)
	}
	return e.parallel(func(ps *procState) error { return e.receiveWrite(ps, j, step, ps.recv) })
}

func (e *engine) Totals() ([]StepTotals, error) {
	for i, ps := range e.procs {
		e.totals[i] = StepTotals{Sleepers: ps.sleepers(), Sends: ps.sends, Ops: ps.stepOps()}
	}
	return e.totals, nil
}

// Prepare is the barrier commit, run only after every processor
// finished the superstep: free the consumed input and contexts, make
// the directory and the contexts written current (commitProc);
// then the parity-aware commit point; then every processor's data is
// made durable before the decision record is.
func (e *engine) Prepare(step int, halted bool) ([]int64, error) {
	e.snap = nil
	for i, ps := range e.procs {
		err := e.commitProc(ps, halted)
		if err == nil {
			e.ops[i], err = ps.parityBarrier(e.tr, ps.id, e.opts.Scrub)
		}
		if err == nil {
			err = e.syncStore(ps, step)
		}
		if err != nil {
			return nil, err
		}
		if !halted {
			e.prefetchFirst(ps, step+1)
		}
	}
	return e.ops, nil
}

// Commit: the processors keep no journals of their own, so the decision
// record (which carries their state) is all there is to a commit.
func (e *engine) Commit(int) error { return nil }

// Rollback makes the whole compound superstep — all processors, all
// batches — one recovery unit under a fault plan: a recoverable fault
// anywhere rolls every processor back to the barrier.
func (e *engine) Rollback(step, attempt int, cause error) (int64, error) {
	switch {
	case e.snap == nil || !fault.Replayable(cause):
		return 0, cause
	case attempt >= maxReplays:
		return 0, fmt.Errorf("core: superstep %d unrecoverable after %d replays: %w", step, attempt, cause)
	}
	e.led.replays++
	return e.restore(e.snap)
}

func (e *engine) Final() ([]*NodeReport, error) {
	reports := make([]*NodeReport, len(e.procs))
	err := e.replayPhase(func(ps *procState) (err error) {
		reports[ps.id], err = e.finalReport(ps, e.led.stepsDone, true)
		return err
	}, nil)
	return reports, err
}

// procSnapshot is one processor's superstep checkpoint.
type procSnapshot struct {
	faults   *fault.Snapshot
	parity   *redundancy.Snapshot // nil without a redundancy layer
	rng      [4]uint64
	acctMark int64
	opsMark  int64
	held     int      // the held batch, -1: none
	heldCtx  []uint64 // its records, in the processor's reused heldCopy
	sleep    []uint64 // the sleep bits
}

func (e *engine) snapshot() []procSnapshot {
	s := make([]procSnapshot, len(e.procs))
	for i, ps := range e.procs {
		s[i] = procSnapshot{
			faults:   disk.Find[*fault.Disk](ps.chain).Snapshot(),
			rng:      ps.rng.State(),
			acctMark: ps.acct.Mark(),
			opsMark:  ps.chain.Stats().Ops,
			held:     ps.held,
			sleep:    slices.Clone(ps.sleep),
		}
		if ps.held >= 0 {
			ps.heldCopy = append(ps.heldCopy[:0], ps.ctx[:ps.heldLen]...)
			s[i].heldCtx = ps.heldCopy
		}
		if red := disk.Find[*redundancy.Store](ps.chain); red != nil {
			s[i].parity = red.Snapshot()
		}
	}
	return s
}

// restore rolls every processor — allocator, checksum directory, PRNG,
// memory accountant, held records and sleep bits — back to s and returns
// the slowest processor's share of the rolled-back attempt's operations,
// or the error of a store that refused its captured state.
func (e *engine) restore(s []procSnapshot) (maxAborted int64, err error) {
	for i, ps := range e.procs {
		p := s[i]
		aborted := ps.chain.Stats().Ops - p.opsMark
		e.led.recoveryOps += aborted
		maxAborted = max(maxAborted, aborted)
		// The fault layer rolls the shared allocator back first.
		if err := disk.Find[*fault.Disk](ps.chain).Restore(p.faults); err != nil {
			return 0, err
		}
		if red := disk.Find[*redundancy.Store](ps.chain); red != nil {
			red.Restore(p.parity)
		}
		ps.rng.SetState(p.rng)
		ps.acct.Rewind(p.acctMark)
		ps.held, ps.heldLen = p.held, len(p.heldCtx)
		ps.ctx = append(ps.ctx[:0], p.heldCtx...)
		copy(ps.sleep, p.sleep)
	}
	return maxAborted, nil
}
