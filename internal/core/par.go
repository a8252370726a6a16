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
	"embsp/internal/mem"
	"embsp/internal/obs"
	"embsp/internal/prng"
	"embsp/internal/redundancy"
	"embsp/internal/words"
)

// The parallel engine implements Algorithm 3 (ParCompoundSuperstep):
// a v-processor BSP* program on a p-processor EM-BSP* machine.
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
//     destination batch.
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
// is the in-process driver that exchanges blocks through in-memory
// matrices. The cluster runtime (cluster.go, internal/cluster) drives
// the identical phases over the wire.
//
// With a fault plan configured, each processor's disk array is wrapped
// in its own fault layer (fault schedules keyed per processor); the
// whole compound superstep is one recovery unit: a recoverable fault
// on any processor rolls all of them back to the barrier and replays
// the superstep. Contexts are double-buffered and input-area frees
// deferred to the barrier commit, exactly as in the sequential engine,
// and after a permanent drive loss the block writer remaps its packet
// scatter onto the surviving drives.

// wireBlock is a message block in flight between real processors. Its
// image aliases a buffer of the processor that produced it (stepBufs):
// a block from the fetching or computing phase is valid until that
// processor next runs the same phase, by which time the receiver has
// copied it — into its inbox buffer or its pending parallel write.
type wireBlock struct {
	meta blockMeta
	img  []uint64
}

type procState struct {
	id int
	lo int // first owned VP
	hi int // one past last owned VP

	storeStack      // the store chain: store, bfile, pf, red, fd, dsk
	stepBufs        // the superstep loop's internal memory
	ckptOn     bool // barrier checkpoint discipline active
	acct       *mem.Accountant
	rng        *prng.Rand

	ctxAreas  [2]disk.Area // checkpoint mode double-buffers; [1] unused otherwise
	ctxCur    int
	inRegions [][]groupRegion // per batch
	inAreas   []disk.Area
	inBlocks  int

	// Superstep-scoped scratch.
	halts        int
	sends        int
	dir          *outDirectory
	writer       *blockWriter
	pendingRoute *routeResult // fault mode: routing result awaiting commit

	// Accounting.
	opsMark  int64
	routeOps int64
	ragged   int64
	maxSkew  float64
	peakLive int64
}

func (ps *procState) ownCount() int { return ps.hi - ps.lo }

func (ps *procState) noteLive(muBlocks, extraBlocks int) {
	live := int64(ps.ownCount()*muBlocks + extraBlocks)
	per := live / int64(ps.dsk.Config().D)
	if per > ps.peakLive {
		ps.peakLive = per
	}
}

// ctxRead returns the area holding the committed contexts; ctxWrite
// the area the running superstep writes to. They coincide unless
// checkpoint double-buffering is on.
func (ps *procState) ctxRead() disk.Area { return ps.ctxAreas[ps.ctxCur] }
func (ps *procState) ctxWrite() disk.Area {
	if ps.ckptOn {
		return ps.ctxAreas[ps.ctxCur^1]
	}
	return ps.ctxAreas[ps.ctxCur]
}

type parEngine struct {
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
func (e *parEngine) faulty() bool { return e.procs[0].fd != nil }

// ckpt reports whether the barrier checkpoint discipline is active:
// under a fault plan (replays need a rollback source) or a StateDir
// (the journal needs the committed barrier state kept intact).
func (e *parEngine) ckpt() bool { return e.faulty() || e.jrn != nil }

func runPar(ctx context.Context, p bsp.Program, cfg MachineConfig, opts Options) (*Result, error) {
	opts.defaults()
	e := &parEngine{
		simShape: newSimShape(p, cfg, opts),
		goctx:    ctx,
	}
	e.fpr = configFingerprint(manifestParKind, cfg, opts, e.v, e.mu, e.gamma)
	e.procs = make([]*procState, cfg.P)
	e.fetchX, e.scatterX = make([][][]wireBlock, cfg.P), make([][][]wireBlock, cfg.P)
	e.pktX, e.wordX = make([][]int64, cfg.P), make([][]int64, cfg.P)
	for i := range e.procs {
		e.pktX[i], e.wordX[i] = make([]int64, cfg.P), make([]int64, cfg.P)
		var dir string
		if opts.StateDir != "" {
			// Each real processor's drives live in their own
			// subdirectory; the journal is shared and lives at the root.
			dir = procDir(opts.StateDir, i)
		}
		ps, err := e.newProcState(i, dir, opts.Resume)
		if err != nil {
			e.closeState()
			return nil, err
		}
		e.procs[i] = ps
	}
	if opts.StateDir != "" {
		var err error
		if opts.Resume {
			e.jrn, err = journal.Open(opts.StateDir)
		} else {
			e.jrn, err = journal.Create(opts.StateDir)
		}
		if err != nil {
			e.closeState()
			return nil, err
		}
		// The shared journal's append spans are attributed to a
		// synthetic coordinator lane, one past the last processor.
		e.jrn.SetTracer(e.tr, cfg.P)
	}
	for _, ps := range e.procs {
		ps.ckptOn = e.ckpt()
	}
	res, err := e.run()
	if cerr := e.closeState(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (e *parEngine) closeState() error {
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
func (e *parEngine) checkCtx() error {
	if err := e.goctx.Err(); err != nil {
		return fmt.Errorf("core: run cancelled at superstep barrier %d: %w", e.stepsDone, err)
	}
	return nil
}

// commitJournal makes the barrier durable: every processor's data
// first (fsync), then the commit record (write-ahead journal append).
func (e *parEngine) commitJournal(step int) error {
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

// resume restores the engine from the last committed journal record.
func (e *parEngine) resume() error {
	recs := e.jrn.Records()
	if len(recs) == 0 {
		return &journal.Error{Path: e.opts.StateDir, Record: -1,
			Reason: "no committed checkpoint to resume from (the run crashed before its first barrier; start it fresh)"}
	}
	if err := e.decodeManifest(recs[len(recs)-1]); err != nil {
		return err
	}
	for _, ps := range e.procs {
		if err := ps.reconcile(); err != nil {
			return err
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// parallel runs f once per real processor, concurrently, and joins
// errors.
func (e *parEngine) parallel(f func(ps *procState) error) error {
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
func (e *parEngine) replayPhase(phase func(ps *procState) error) error {
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

func (e *parEngine) run() (*Result, error) {
	if e.opts.Resume {
		if err := e.resume(); err != nil {
			return nil, err
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
		if err := e.redBarrier(); err != nil {
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
		if err := e.redBarrier(); err != nil {
			return nil, err
		}
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

// parSnapshot is the superstep checkpoint manifest across all
// processors plus the engine's shared accounting.
type parSnapshot struct {
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

func (e *parEngine) snapshot() parSnapshot {
	s := parSnapshot{
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

func (e *parEngine) restore(s parSnapshot) {
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
func (e *parEngine) runStep(step int) (halts, sends int, err error) {
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
// after the superstep committed. The extra parallel I/O is charged to
// the model at cost G as the slowest processor's share.
func (e *parEngine) redBarrier() error {
	if e.procs[0].red == nil {
		return nil
	}
	var maxOps int64
	for _, ps := range e.procs {
		d, err := ps.parityBarrier(e.tr, ps.id, e.opts.Scrub)
		if err != nil {
			return err
		}
		if d > maxOps {
			maxOps = d
		}
	}
	e.ioTime += e.cfg.G * float64(maxOps)
	return nil
}

// commitSuperstep is the barrier commit in fault mode: free the
// consumed input areas, install the routing results, and flip the
// context double buffers. Single-threaded; runs only after every
// processor finished the superstep.
func (e *parEngine) commitSuperstep() error {
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
func (e *parEngine) compoundSuperstep(step int) (halts, sends int, err error) {
	P := e.cfg.P
	e.rec.BeginStep()

	for i, ps := range e.procs {
		clear(e.pktX[i])
		clear(e.wordX[i])
		e.beginStep(ps)
	}

	for j := 0; j < e.batches; j++ {
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
			return 0, 0, err
		}
		// Computing phase (and cutting generated messages into packets
		// scattered to random processors).
		if err := e.parallel(func(ps *procState) error {
			bo, err := e.computeBatch(ps, j, step, e.received(ps, e.fetchX))
			if err != nil {
				return err
			}
			e.scatterX[ps.id] = bo.scatter
			for t := 0; t < P; t++ {
				e.pktX[ps.id][t] += bo.pkts[t]
				e.wordX[ps.id][t] += bo.wrds[t]
			}
			e.recMu.Lock()
			for _, tr := range bo.traffic {
				e.rec.RecordVP(tr)
			}
			e.recMu.Unlock()
			return nil
		}); err != nil {
			return 0, 0, err
		}
		// Writing phase: every processor writes the packets it
		// received to its local disks, maintaining the D buckets.
		if err := e.parallel(func(ps *procState) error {
			sp := e.tr.BeginStep(obs.CatEngine, phWriteMsg, ps.id, 0, step, j)
			defer sp.End()
			return e.receiveWrite(ps, e.received(ps, e.scatterX))
		}); err != nil {
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
		if d := ps.dsk.Stats().Ops - ps.opsMark; d > maxOps {
			maxOps = d
		}
	}
	e.ioTime += e.cfg.G * float64(maxOps)
	ct, pkts, wrds := superstepCommCosts(e.cfg, e.pktX, e.wordX)
	e.commTime += ct
	e.commPkts += pkts
	e.commWords += wrds
	return halts, sends, nil
}

// received gathers column ps.id of an exchange matrix: what every
// processor, ps included, addressed to ps in the phase just finished.
func (e *parEngine) received(ps *procState, x [][][]wireBlock) [][]wireBlock {
	in := grow(&ps.recv, e.cfg.P)
	for src := range in {
		in[src] = nil
		if x[src] != nil {
			in[src] = x[src][ps.id]
		}
	}
	return in
}
