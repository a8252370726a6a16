package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"embsp/internal/bsp"
	"embsp/internal/disk"
	"embsp/internal/fault"
	"embsp/internal/journal"
	"embsp/internal/obs"
	"embsp/internal/redundancy"
	"embsp/internal/words"
)

// The in-process engine runs Algorithm 3 (ParCompoundSuperstep): a
// v-processor BSP* program on a p-processor EM-BSP* machine, for every
// p ≥ 1. At p = 1 it is Algorithm 1 (SeqCompoundSuperstep) with
// Algorithm 2 (SimulateRouting): the same step machine with the
// exchange between processors left out.
//
// Virtual processors are assigned in blocks: real processor i owns
// VPs [i·⌈v/p⌉, (i+1)·⌈v/p⌉). A compound superstep runs in
// ⌈(v/p)/k⌉ rounds; in round j, batch j — the j-th group of k VPs of
// every real processor, kp VPs in total — is simulated.
//
//   - Fetching phase: each processor reads the blocks pertaining to
//     batch j from its local disks, combines the blocks destined for a
//     common simulating processor into packets, and routes them in one
//     real communication superstep.
//   - Computing phase: each processor simulates its k current VPs.
//   - Writing phase: generated messages are split into packets of
//     size b, each packet is sent to a RANDOMLY chosen processor (the
//     paper's disk-load balancing step), and every receiver cuts its
//     packets into blocks and writes them to its local disks under a
//     random drive permutation, maintaining D buckets keyed by
//     destination VP range (simShape.bucketKey).
//
// At the end of the superstep each processor reorganizes its received
// blocks with the local SimulateRouting (Algorithm 2), so that the
// next superstep's fetch phase reads every batch fully blocked and
// D-parallel.
//
// Real processors run as goroutines separated by phase barriers. All
// communication cells are owned by a single writer per phase and all
// deliveries are sorted canonically, so results are bitwise
// deterministic and identical to the in-memory reference runner.
//
// The per-processor phase bodies live on simShape (node.go); this file
// is the in-process driver: it exchanges blocks through in-memory
// matrices, or not at all on a one-processor machine. The cluster
// runtime (cluster.go, internal/cluster) drives the identical phases
// over the wire.
//
// With a fault plan configured, each processor's disk array is wrapped
// in its own fault layer (fault schedules keyed per processor); the
// whole compound superstep is one recovery unit: a recoverable fault
// on any processor rolls all of them — allocator, checksum directory,
// PRNG, cost recorder and memory accountant — back to the barrier and
// replays the superstep. After a permanent drive loss the block writer
// remaps its packet scatter onto the surviving drives.

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

	jrn   *journal.Journal // nil without a StateDir
	goctx context.Context
	fpr   uint64 // config fingerprint stamped into every manifest

	setup     disk.Stats // setup-phase statistics (journaled for resume)
	stepsDone int        // supersteps committed so far
	halted    bool       // all VPs voted halt (committed)

	recMu sync.Mutex

	// Exchange matrices; row [src] is set only by src's goroutine, to a
	// row that processor owns (nil: nothing sent), and read only after
	// the barrier.
	fetchX   [][][]wireBlock
	scatterX [][][]wireBlock
	pktX     [][]int64 // packets per channel this superstep
	wordX    [][]int64 // words per channel this superstep

	commTime  float64
	commPkts  int64
	commWords int64
	ioTime    float64

	replays     int64
	recoveryOps int64 // I/O ops consumed by rolled-back attempts
}

// faulty reports whether the engine runs under a fault plan.
func (e *engine) faulty() bool { return e.procs[0].fd != nil }

// ckpt reports whether the barrier checkpoint discipline is active:
// under a fault plan (replays need a rollback source) or a StateDir
// (the state the last journal record references must not be overwritten
// before the next record is committed).
func (e *engine) ckpt() bool { return e.faulty() || e.jrn != nil }

func runProgram(ctx context.Context, p bsp.Program, cfg MachineConfig, opts Options) (*Result, error) {
	opts.defaults()
	e := &engine{
		simShape: newSimShape(p, cfg, opts),
		goctx:    ctx,
	}
	e.fpr = configFingerprint(manifestRunKind, cfg, opts, e.v, e.mu, e.gamma)
	res, err := e.openAndRun()
	if cerr := e.closeState(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// openAndRun opens the journal, then every processor's store chain,
// and runs. A resumed run checks its manifest's header before it opens
// a single drive, so a state directory this engine cannot continue —
// another program, machine or options, or one journaled under earlier
// model rules — is refused untouched.
func (e *engine) openAndRun() (*Result, error) {
	P, root := e.cfg.P, e.opts.StateDir
	var manifest *words.Decoder
	if root != "" {
		var err error
		if e.opts.Resume {
			if e.jrn, err = journal.Open(root); err == nil {
				manifest, err = e.committedManifest()
			}
		} else {
			e.jrn, err = journal.Create(root)
		}
		if err != nil {
			return nil, err
		}
		// The shared journal's append spans are attributed to a
		// synthetic coordinator lane, one past the last processor.
		e.jrn.SetTracer(e.tr, P)
	}
	e.procs = make([]*procState, P)
	e.fetchX, e.scatterX = make([][][]wireBlock, P), make([][][]wireBlock, P)
	e.pktX, e.wordX = make([][]int64, P), make([][]int64, P)
	for i := range e.procs {
		e.pktX[i], e.wordX[i] = make([]int64, P), make([]int64, P)
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
		e.procs[i] = ps
	}
	for _, ps := range e.procs {
		ps.ckptOn = e.ckpt()
	}
	return e.run(manifest)
}

func (e *engine) closeState() error {
	var errs []error
	if e.jrn != nil {
		errs = append(errs, e.jrn.Close())
	}
	for _, ps := range e.procs {
		if ps != nil {
			errs = append(errs, ps.close())
		}
	}
	return errors.Join(errs...)
}

// checkCtx implements cooperative cancellation at barriers.
func (e *engine) checkCtx() error {
	if err := e.goctx.Err(); err != nil {
		return fmt.Errorf("core: run cancelled at superstep barrier %d: %w", e.stepsDone, err)
	}
	return nil
}

// commitJournal makes the barrier durable: every processor's data
// first (fsync), then the commit record (write-ahead journal append).
func (e *engine) commitJournal(step int) error {
	if e.jrn == nil {
		return nil
	}
	for _, ps := range e.procs {
		sp := e.tr.BeginStep(obs.CatEngine, phBarrier, ps.id, 0, step, -1)
		err := ps.store.Sync()
		sp.End()
		if err != nil {
			return err
		}
	}
	enc := words.NewEncoder(nil)
	e.encodeManifest(enc)
	if err := e.jrn.Append(enc.Words()); err != nil {
		return err
	}
	// Align trace durability with journal durability: a killed run's
	// trace then reaches the same barrier its resume starts from.
	e.tr.Flush() //nolint:errcheck
	if e.opts.OnCommit != nil {
		e.opts.OnCommit(step)
	}
	return nil
}

// committedManifest returns the last committed journal record of a
// resumed run, positioned past its verified header.
func (e *engine) committedManifest() (*words.Decoder, error) {
	recs := e.jrn.Records()
	if len(recs) == 0 {
		return nil, &journal.Error{Path: e.opts.StateDir, Record: -1,
			Reason: "no committed checkpoint to resume from (the run crashed before its first barrier; start it fresh)"}
	}
	dec := words.NewDecoder(recs[len(recs)-1])
	if err := checkManifestHeader(dec, manifestRunKind, e.fpr); err != nil {
		return nil, err
	}
	return dec, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
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

// replayPhase runs an idempotent whole-area phase across all
// processors, re-running it when a recoverable fault escapes the fault
// layer's retries (the phases neither allocate tracks nor leave
// partial state).
func (e *engine) replayPhase(phase func(ps *procState) error) error {
	err := e.parallel(phase)
	r := 0
	for ; err != nil && e.faulty() && fault.Replayable(err) && r < maxReplays; r++ {
		e.replays++
		err = e.parallel(phase)
	}
	if err != nil && r >= maxReplays {
		return fmt.Errorf("core: phase unrecoverable after %d replays: %w", r, err)
	}
	return err
}

// run drives the program from setup — or from the barrier a resumed
// run's manifest records — to its final contexts.
func (e *engine) run(manifest *words.Decoder) (*Result, error) {
	if manifest != nil {
		if err := e.decodeManifest(manifest); err != nil {
			return nil, err
		}
		for _, ps := range e.procs {
			if err := ps.reconcile(); err != nil {
				return nil, err
			}
		}
	} else {
		// Setup: every processor reserves its context area(s) and writes
		// its VPs' initial contexts.
		for _, ps := range e.procs {
			e.setupReserve(ps)
		}
		if err := e.replayPhase(func(ps *procState) error {
			sp := e.tr.Begin(obs.CatEngine, phSetup, ps.id, 0)
			defer sp.End()
			return e.writeInitialContexts(ps)
		}); err != nil {
			return nil, err
		}
		// The setup barrier's parity I/O is in Setup's counts, not in
		// IOTime, which is the simulation proper's.
		if _, err := e.redBarrier(); err != nil {
			return nil, err
		}
		for _, ps := range e.procs {
			e.setup.Add(ps.dsk.Stats())
			ps.dsk.ResetStats()
		}
		if err := e.commitJournal(-1); err != nil {
			return nil, err
		}
	}

	for step := e.stepsDone; !e.halted; step++ {
		if err := e.checkCtx(); err != nil {
			return nil, err
		}
		if step >= e.opts.MaxSupersteps {
			return nil, fmt.Errorf("core: no convergence after %d supersteps", e.opts.MaxSupersteps)
		}
		halts, sends, err := e.runStep(step)
		if err != nil {
			return nil, err
		}
		switch {
		case halts == e.v:
			if sends > 0 {
				return nil, fmt.Errorf("core: %d messages sent while halting in superstep %d", sends, step)
			}
			e.halted = true
		case halts != 0:
			return nil, fmt.Errorf("core: split halt vote in superstep %d: %d of %d VPs halted", step, halts, e.v)
		}
		parityOps, err := e.redBarrier()
		if err != nil {
			return nil, err
		}
		e.ioTime += e.cfg.G * float64(parityOps)
		e.stepsDone = step + 1
		if err := e.commitJournal(step); err != nil {
			return nil, err
		}
	}

	var runStats disk.Stats
	perProc := make([]disk.Stats, len(e.procs))
	for i, ps := range e.procs {
		perProc[i] = ps.dsk.Stats()
		runStats.Add(perProc[i])
	}

	vps := make([]bsp.VP, e.v)
	if err := e.replayPhase(func(ps *procState) error {
		sp := e.tr.Begin(obs.CatEngine, phFinish, ps.id, 0)
		defer sp.End()
		return e.readFinalContexts(ps, func(id int, ctx []uint64) error {
			vp := e.p.NewVP(id)
			vp.Load(words.NewDecoder(ctx))
			vps[id] = vp
			return nil
		})
	}); err != nil {
		return nil, err
	}
	var finish disk.Stats
	for i, ps := range e.procs {
		s := ps.dsk.Stats()
		finish.Ops += s.Ops - perProc[i].Ops
		finish.ReadOps += s.ReadOps - perProc[i].ReadOps
		finish.BlocksRead += s.BlocksRead - perProc[i].BlocksRead
	}

	res := &Result{VPs: vps, Costs: e.rec.Costs()}
	em := EMStats{
		K:              e.k,
		Groups:         e.batches,
		CtxBlocksPerVP: e.muBlocks,
		Setup:          e.setup,
		Run:            runStats,
		Finish:         finish,
		PerProc:        perProc,
		IOTime:         e.ioTime,
		CommTime:       e.commTime,
		CommPkts:       e.commPkts,
		CommWords:      e.commWords,
	}
	for _, ps := range e.procs {
		em.RouteOps += ps.routeOps
		em.RaggedSlots += ps.ragged
		if ps.maxSkew > em.MaxBucketSkew {
			em.MaxBucketSkew = ps.maxSkew
		}
		if h := ps.acct.High(); h > em.MemHigh {
			em.MemHigh = h
		}
		if ps.peakLive > em.LiveBlocksPerDrive {
			em.LiveBlocksPerDrive = ps.peakLive
		}
	}
	for _, ps := range e.procs {
		ps.report(&em, e.opts.Metrics)
		if ps.bfile != nil {
			em.Tiers = addTierStats(em.Tiers, collectTierStats(ps.bfile))
		}
	}
	if e.faulty() {
		em.Replays = e.replays
		em.RecoveryOps += e.recoveryOps
	}
	publishTierStats(e.opts.Metrics, em.Tiers)
	res.EM = em
	publishEMStats(e.opts.Metrics, &res.EM)
	return res, nil
}

// engineSnapshot is the superstep checkpoint manifest across all
// processors plus the engine's shared accounting.
type engineSnapshot struct {
	procs     []procSnapshot
	recMark   int
	commTime  float64
	commPkts  int64
	commWords int64
	ioTime    float64
}

type procSnapshot struct {
	fd       *fault.Snapshot
	red      *redundancy.Snapshot
	rng      [4]uint64
	acctMark int64
	opsMark  int64
	routeOps int64
	ragged   int64
	maxSkew  float64
	peakLive int64
}

func (e *engine) snapshot() engineSnapshot {
	s := engineSnapshot{
		procs:     make([]procSnapshot, len(e.procs)),
		recMark:   e.rec.Mark(),
		commTime:  e.commTime,
		commPkts:  e.commPkts,
		commWords: e.commWords,
		ioTime:    e.ioTime,
	}
	for i, ps := range e.procs {
		s.procs[i] = procSnapshot{
			fd:       ps.fd.Snapshot(),
			rng:      ps.rng.State(),
			acctMark: ps.acct.Mark(),
			opsMark:  ps.dsk.Stats().Ops,
			routeOps: ps.routeOps,
			ragged:   ps.ragged,
			maxSkew:  ps.maxSkew,
			peakLive: ps.peakLive,
		}
		if ps.red != nil {
			s.procs[i].red = ps.red.Snapshot()
		}
	}
	return s
}

func (e *engine) restore(s engineSnapshot) {
	// The rolled-back attempt's charged operations were real work; the
	// model pays its wall-clock as the slowest processor's share.
	var maxAborted int64
	for i, ps := range e.procs {
		p := s.procs[i]
		aborted := ps.dsk.Stats().Ops - p.opsMark
		e.recoveryOps += aborted
		if aborted > maxAborted {
			maxAborted = aborted
		}
		ps.fd.Restore(p.fd) // rolls the shared allocator back first
		if ps.red != nil {
			ps.red.Restore(p.red)
		}
		ps.rng.SetState(p.rng)
		ps.acct.Rewind(p.acctMark)
		ps.routeOps = p.routeOps
		ps.ragged = p.ragged
		ps.maxSkew = p.maxSkew
		ps.peakLive = p.peakLive
		ps.pendingRoute = nil
	}
	e.rec.Rewind(s.recMark)
	e.commTime = s.commTime
	e.commPkts = s.commPkts
	e.commWords = s.commWords
	e.ioTime = s.ioTime + e.cfg.G*float64(maxAborted)
}

// runStep runs one compound superstep. In fault mode the whole
// superstep — all processors, all batches, the routing phase — is one
// recovery unit: a recoverable fault anywhere rolls every processor
// back to the barrier and replays.
func (e *engine) runStep(step int) (halts, sends int, err error) {
	if !e.faulty() {
		halts, sends, err = e.compoundSuperstep(step)
		if err == nil && e.ckpt() {
			err = e.commitSuperstep()
		}
		if err != nil {
			return 0, 0, err
		}
		return halts, sends, nil
	}
	for attempt := 0; ; attempt++ {
		snap := e.snapshot()
		halts, sends, err = e.compoundSuperstep(step)
		if err == nil {
			if err := e.commitSuperstep(); err != nil {
				return 0, 0, err
			}
			return halts, sends, nil
		}
		if !fault.Replayable(err) {
			return 0, 0, err
		}
		if attempt >= maxReplays {
			return 0, 0, fmt.Errorf("core: superstep %d unrecoverable after %d replays: %w", step, attempt, err)
		}
		e.restore(snap)
		e.replays++
	}
}

// redBarrier is the parity-aware commit point, run on every processor
// after the superstep committed. It returns the slowest processor's
// share of the extra parallel I/O, which the model charges at cost G.
func (e *engine) redBarrier() (maxOps int64, err error) {
	for _, ps := range e.procs {
		d, err := ps.parityBarrier(e.tr, ps.id, e.opts.Scrub)
		if err != nil {
			return 0, err
		}
		maxOps = max(maxOps, d)
	}
	return maxOps, nil
}

// commitSuperstep is the barrier commit in fault mode: free the
// consumed input areas, install the routing results, and flip the
// context double buffers. Single-threaded; runs only after every
// processor finished the superstep.
func (e *engine) commitSuperstep() error {
	for _, ps := range e.procs {
		if err := e.commitProc(ps); err != nil {
			return err
		}
	}
	return nil
}

// compoundSuperstep runs Algorithm 3 for one compound superstep. On
// error the cost recorder's current step stays open and superstep
// buffers stay grabbed; either the run aborts, or fault-mode restore
// rewinds both to the barrier.
func (e *engine) compoundSuperstep(step int) (halts, sends int, err error) {
	e.rec.BeginStep()

	for i, ps := range e.procs {
		clear(e.pktX[i])
		clear(e.wordX[i])
		e.beginStep(ps)
	}

	round := e.exchangeRound
	if len(e.procs) == 1 {
		round = e.localRound
	}
	for j := 0; j < e.batches; j++ {
		if err := round(j, step); err != nil {
			return 0, 0, err
		}
	}
	for _, ps := range e.procs {
		halts += ps.halts
		sends += ps.sends
	}

	if halts != e.v {
		// Step 2 of Algorithm 3: reorganize the received batches with
		// the local SimulateRouting.
		if err := e.parallel(func(ps *procState) error {
			sp := e.tr.BeginStep(obs.CatEngine, phRoute, ps.id, 0, step, -1)
			defer sp.End()
			return e.routeLocal(ps)
		}); err != nil {
			return 0, 0, err
		}
	}
	e.rec.EndStep()

	// Superstep model costs: I/O time is the max over processors; real
	// communication is max(L, g·max_i(sent+received packets)).
	var maxOps int64
	for _, ps := range e.procs {
		maxOps = max(maxOps, ps.dsk.Stats().Ops-ps.opsMark)
	}
	e.ioTime += e.cfg.G * float64(maxOps)
	ct, pkts, wrds := superstepCommCosts(e.cfg, e.pktX, e.wordX)
	e.commTime += ct
	e.commPkts += pkts
	e.commWords += wrds
	return halts, sends, nil
}

// localRound is round j of a one-processor machine: no exchange, so the
// fetching, computing and writing phases are one call into the machine.
func (e *engine) localRound(j, step int) error {
	ps := e.procs[0]
	if err := e.computeLocal(ps, j, step); err != nil {
		return err
	}
	e.record(ps.out.traffic)
	return nil
}

// exchangeRound is round j of a multiprocessor machine: three phases,
// each run on every processor, with the blocks a phase addressed to
// other processors handed over at the barrier between them.
func (e *engine) exchangeRound(j, step int) error {
	// Fetching phase: read batch-j blocks and route them to the
	// simulating processors.
	if err := e.parallel(func(ps *procState) error {
		sp := e.tr.BeginStep(obs.CatEngine, phFetchMsg, ps.id, 0, step, j)
		defer sp.End()
		out, nwords, err := e.fetchForward(ps, j)
		if err != nil {
			return err
		}
		e.fetchX[ps.id] = out
		for o, w := range nwords {
			if o == ps.id || w == 0 {
				continue
			}
			e.wordX[ps.id][o] += w
			e.pktX[ps.id][o] += e.fetchPkts(w)
		}
		return nil
	}); err != nil {
		return err
	}
	// Computing phase (and cutting generated messages into packets
	// scattered to random processors).
	if err := e.parallel(func(ps *procState) error {
		bo, err := e.computeBatch(ps, j, step, e.received(ps, e.fetchX))
		if err != nil {
			return err
		}
		e.scatterX[ps.id] = bo.scatter
		for t := range bo.pkts {
			e.pktX[ps.id][t] += bo.pkts[t]
			e.wordX[ps.id][t] += bo.wrds[t]
		}
		e.record(bo.traffic)
		return nil
	}); err != nil {
		return err
	}
	// Writing phase: every processor writes the packets it received to
	// its local disks, maintaining the D buckets.
	return e.parallel(func(ps *procState) error {
		sp := e.tr.BeginStep(obs.CatEngine, phWriteMsg, ps.id, 0, step, j)
		defer sp.End()
		return e.receiveWrite(ps, j, e.received(ps, e.scatterX))
	})
}

// record folds a batch's per-VP traffic into the shared cost recorder.
func (e *engine) record(traffic []bsp.VPTraffic) {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	for _, tr := range traffic {
		e.rec.RecordVP(tr)
	}
}

// received gathers column ps.id of an exchange matrix: what every
// processor, ps included, addressed to ps in the phase just finished.
func (e *engine) received(ps *procState, x [][][]wireBlock) [][]wireBlock {
	in := grow(&ps.recv, e.cfg.P)
	for src := range in {
		in[src] = nil
		if x[src] != nil {
			in[src] = x[src][ps.id]
		}
	}
	return in
}
