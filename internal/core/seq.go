package core

import (
	"context"
	"errors"
	"fmt"

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

// redBudget returns the per-barrier track budget for background
// redundancy maintenance (rebuild and scrub): a deterministic slice of
// work per committed superstep, proportional to the drive count so the
// maintenance rate scales with the machine.
func redBudget(D int) int { return 4 * D }

// maxReplays bounds how many times one compound superstep may be
// rolled back and replayed before the engine gives up. Each replay
// draws a fresh fault schedule, so the replay count is geometric in
// the probability of one clean attempt; the bound is a runaway
// backstop set far above anything a survivable plan produces (with
// retries disabled entirely, a large superstep can legitimately need
// dozens of attempts).
const maxReplays = 1000

// blockRef locates one staged message block together with its
// directory entry.
type blockRef struct {
	track int
	meta  blockMeta
}

// outDirectory holds the standard-linked-format state of Step 1(d):
// for every (bucket, drive) pair, the ordered list of tracks on that
// drive holding blocks of that bucket. Algorithm 2 uses D buckets; the
// NoRouting ablation buckets directly by destination group.
type outDirectory struct {
	q     [][][]blockRef // [bucket][drive]
	total int
}

func newOutDirectory(buckets, D int) *outDirectory {
	d := &outDirectory{q: make([][][]blockRef, buckets)}
	for b := range d.q {
		d.q[b] = make([][]blockRef, D)
	}
	return d
}

// groupRegion is a slice [lo, hi) of an area holding one group's
// incoming message blocks.
type groupRegion struct {
	area disk.Area
	lo   int
	hi   int
}

// seqEngine simulates a BSP* program on a single-processor EM-BSP*
// machine: Algorithm 1 (SeqCompoundSuperstep) plus Algorithm 2
// (SimulateRouting).
//
// With a fault plan configured, the engine checkpoints at every
// compound-superstep barrier: the contexts of the previous superstep
// and the routed input regions stay on disk untouched while the next
// superstep runs (contexts are double-buffered between two areas;
// input-area frees are deferred to commit), so a recoverable fault
// rolls the allocator, checksum directory, PRNG, cost recorder and
// memory accountant back to the barrier and replays the superstep
// from identical inputs.
type seqEngine struct {
	p    bsp.Program
	cfg  MachineConfig
	opts Options

	v        int
	mu       int
	gamma    int
	k        int
	groups   int
	muBlocks int

	storeStack                  // the store chain: store, bfile, pf, red, fd, dsk
	stepBufs                    // the superstep loop's internal memory
	jrn        *journal.Journal // nil without a StateDir
	tr         *obs.Tracer      // nil = tracing off (no-op fast path)
	goctx      context.Context
	acct       *mem.Accountant
	rec        *bsp.CostRecorder
	rng        *prng.Rand
	fpr        uint64 // config fingerprint stamped into every manifest

	setup     disk.Stats // setup-phase statistics (journaled for resume)
	stepsDone int        // supersteps committed so far
	halted    bool       // all VPs voted halt (committed)

	ctxAreas  [2]disk.Area // fault mode double-buffers; [1] unused otherwise
	ctxCur    int          // context area holding the committed contexts
	inRegions [][]groupRegion
	inAreas   []disk.Area
	inBlocks  int
	inDir     *outDirectory // NoRouting ablation: scattered blocks

	routeOps int64
	ragged   int64
	maxSkew  float64
	peakLive int64

	replays     int64
	recoveryOps int64 // I/O ops consumed by rolled-back attempts
}

// groupBounds returns the VP id range [lo, hi) of group g.
func (e *seqEngine) groupBounds(g int) (lo, hi int) {
	lo = g * e.k
	hi = lo + e.k
	if hi > e.v {
		hi = e.v
	}
	return lo, hi
}

func (e *seqEngine) noteLive(extraBlocks int) {
	live := int64(e.v*e.muBlocks + extraBlocks)
	per := live / int64(e.cfg.D)
	if per > e.peakLive {
		e.peakLive = per
	}
}

func runSeq(ctx context.Context, p bsp.Program, cfg MachineConfig, opts Options) (*Result, error) {
	opts.defaults()
	v := p.NumVPs()
	mu := p.MaxContextWords()
	gamma := p.MaxCommWords()
	k := cfg.M / mu
	if k < 1 {
		k = 1
	}
	if k > v {
		k = v
	}
	e := &seqEngine{
		p: p, cfg: cfg, opts: opts, goctx: ctx, tr: opts.Trace,
		v: v, mu: mu, gamma: gamma, k: k,
		groups:   (v + k - 1) / k,
		muBlocks: (mu + cfg.B - 1) / cfg.B,
		rec:      bsp.NewCostRecorder(cfg.Cost.Pkt),
		rng:      prng.New(prng.Derive(opts.Seed, 0xE19)),
		fpr:      configFingerprint(manifestSeqKind, cfg, opts, v, mu, gamma),
	}
	var err error
	if e.storeStack, err = openStack(opts.StateDir, cfg, opts, opts.Resume, k, mu, gamma, 0); err != nil {
		return nil, err
	}
	if opts.StateDir != "" {
		if opts.Resume {
			e.jrn, err = journal.Open(opts.StateDir)
		} else {
			e.jrn, err = journal.Create(opts.StateDir)
		}
		if err != nil {
			e.store.Close()
			return nil, err
		}
		e.jrn.SetTracer(e.tr, 0)
	}
	// The theorems assume γ = O(µ) (a VP's messages fit in its local
	// memory), so the engine footprint is Θ(k·µ) = Θ(M). The budget
	// below makes that concrete — M plus the group's contexts and
	// physically encoded messages (≤ 3γ words per VP each way) and one
	// block per drive — scaled by the configured slack constant.
	// Programs honouring γ = O(µ) stay within O(M); others are still
	// tracked and bounded.
	e.acct = mem.NewAccountant(engineMemLimit(cfg, k, mu, gamma))
	res, err := e.run()
	if cerr := e.closeState(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ckpt reports whether the engine runs under the barrier checkpoint
// discipline: contexts double-buffered and input-area frees deferred
// to the commit. Fault replays need it to keep a rollback source;
// durable runs need it so the state the last journal record references
// is never overwritten before the next record is committed.
func (e *seqEngine) ckpt() bool { return e.fd != nil || e.jrn != nil }

// redBarrier is the parity-aware commit point (its I/O is already in
// the processor's own Stats, which is all a one-processor run charges).
func (e *seqEngine) redBarrier() error {
	_, err := e.parityBarrier(e.tr, 0, e.opts.Scrub)
	return err
}

func (e *seqEngine) closeState() error {
	var errs []error
	if e.jrn != nil {
		errs = append(errs, e.jrn.Close())
	}
	return errors.Join(append(errs, e.close())...)
}

// checkCtx implements cooperative cancellation at barriers.
func (e *seqEngine) checkCtx() error {
	if err := e.goctx.Err(); err != nil {
		return fmt.Errorf("core: run cancelled at superstep barrier %d: %w", e.stepsDone, err)
	}
	return nil
}

// commitJournal makes the barrier durable: data first (fsync the
// store), then the commit record (write-ahead journal append).
func (e *seqEngine) commitJournal(step int) error {
	if e.jrn == nil {
		return nil
	}
	sp := e.tr.BeginStep(obs.CatEngine, phBarrier, 0, 0, step, -1)
	err := e.store.Sync()
	sp.End()
	if err != nil {
		return err
	}
	enc := words.NewEncoder(nil)
	e.encodeManifest(enc)
	if err := e.jrn.Append(enc.Words()); err != nil {
		return err
	}
	// Flush the trace at every durable barrier so a killed run's trace
	// survives to the same superstep as its journal.
	e.tr.Flush() //nolint:errcheck // observability must not fail the run
	if e.opts.OnCommit != nil {
		e.opts.OnCommit(step)
	}
	return nil
}

// resume restores the engine from the last committed journal record.
func (e *seqEngine) resume() error {
	recs := e.jrn.Records()
	if len(recs) == 0 {
		return &journal.Error{Path: e.opts.StateDir, Record: -1,
			Reason: "no committed checkpoint to resume from (the run crashed before its first barrier; start it fresh)"}
	}
	if err := e.decodeManifest(recs[len(recs)-1]); err != nil {
		return err
	}
	return e.reconcile()
}

// engineMemLimit computes the internal-memory budget for one
// processor simulating groups of k VPs.
func engineMemLimit(cfg MachineConfig, k, mu, gamma int) int64 {
	return int64(cfg.memSlack()) * (int64(cfg.M) + int64(k)*int64(mu+6*gamma) + int64(cfg.D*cfg.B))
}

func (e *seqEngine) run() (*Result, error) {
	if e.opts.Resume {
		if err := e.resume(); err != nil {
			return nil, err
		}
	} else {
		// Reserve the context area: v·⌈µ/B⌉ blocks in standard
		// consecutive format, VP j's i-th context block at global block
		// index i + j·(µ/B), as the paper's Step 1(a)/1(e) details
		// prescribe. Under the checkpoint discipline a second area
		// double-buffers the contexts so the barrier state survives a
		// mid-superstep rollback or crash.
		sp := e.tr.Begin(obs.CatEngine, phSetup, 0, 0)
		e.ctxAreas[0] = disk.Reserve(e.dsk, e.v*e.muBlocks)
		if e.ckpt() {
			e.ctxAreas[1] = disk.Reserve(e.dsk, e.v*e.muBlocks)
		}

		e.noteLive(0)
		err := e.replayPhase(e.writeInitialContexts)
		sp.End()
		if err != nil {
			return nil, err
		}
		if err := e.redBarrier(); err != nil {
			return nil, err
		}
		e.setup = e.dsk.Stats()
		e.dsk.ResetStats()
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
	runStats := e.dsk.Stats()

	var vps []bsp.VP
	spFin := e.tr.Begin(obs.CatEngine, phFinish, 0, 0)
	err := e.replayPhase(func() error {
		var err error
		vps, err = e.readFinalContexts()
		return err
	})
	spFin.End()
	if err != nil {
		return nil, err
	}
	finish := e.dsk.Stats()
	finish.Ops -= runStats.Ops
	finish.ReadOps -= runStats.ReadOps
	finish.WriteOps -= runStats.WriteOps
	finish.BlocksRead -= runStats.BlocksRead
	finish.BlocksWritten -= runStats.BlocksWritten
	finish.PerDrive = nil

	res := &Result{VPs: vps, Costs: e.rec.Costs()}
	res.EM = EMStats{
		K:                  e.k,
		Groups:             e.groups,
		CtxBlocksPerVP:     e.muBlocks,
		Setup:              e.setup,
		Run:                runStats,
		Finish:             finish,
		PerProc:            []disk.Stats{runStats},
		IOTime:             e.cfg.G * float64(runStats.Ops),
		RouteOps:           e.routeOps,
		RaggedSlots:        e.ragged,
		MaxBucketSkew:      e.maxSkew,
		MemHigh:            e.acct.High(),
		LiveBlocksPerDrive: e.peakLive,
	}
	e.report(&res.EM, e.opts.Metrics)
	if e.fd != nil {
		res.EM.Replays = e.replays
		res.EM.RecoveryOps += e.recoveryOps
	}
	if e.bfile != nil {
		res.EM.Tiers = collectTierStats(e.bfile)
		publishTierStats(e.opts.Metrics, res.EM.Tiers)
	}
	publishEMStats(e.opts.Metrics, &res.EM)
	return res, nil
}

// seqSnapshot is the superstep checkpoint manifest: everything needed
// to roll the engine back to the last compound-superstep barrier.
type seqSnapshot struct {
	fd       *fault.Snapshot
	red      *redundancy.Snapshot
	rng      [4]uint64
	recMark  int
	acctMark int64
	opsMark  int64
	routeOps int64
	ragged   int64
	maxSkew  float64
	peakLive int64
}

func (e *seqEngine) snapshot() seqSnapshot {
	s := seqSnapshot{
		fd:       e.fd.Snapshot(),
		rng:      e.rng.State(),
		recMark:  e.rec.Mark(),
		acctMark: e.acct.Mark(),
		opsMark:  e.dsk.Stats().Ops,
		routeOps: e.routeOps,
		ragged:   e.ragged,
		maxSkew:  e.maxSkew,
		peakLive: e.peakLive,
	}
	if e.red != nil {
		s.red = e.red.Snapshot()
	}
	return s
}

func (e *seqEngine) restore(s seqSnapshot) {
	e.fd.Restore(s.fd) // rolls the shared allocator back first
	if e.red != nil {
		e.red.Restore(s.red)
	}
	e.rng.SetState(s.rng)
	e.rec.Rewind(s.recMark)
	e.acct.Rewind(s.acctMark)
	// The rolled-back attempt's charged operations were real work the
	// model paid for recovery.
	e.recoveryOps += e.dsk.Stats().Ops - s.opsMark
	e.routeOps = s.routeOps
	e.ragged = s.ragged
	e.maxSkew = s.maxSkew
	e.peakLive = s.peakLive
}

// replayPhase runs an idempotent whole-area phase (initial context
// distribution, final context collection), re-running it when a
// recoverable fault escapes the fault layer's own retries. The phases
// neither allocate tracks nor leave partial state, so re-running is
// the complete rollback.
func (e *seqEngine) replayPhase(phase func() error) error {
	err := phase()
	r := 0
	for ; err != nil && e.fd != nil && fault.Replayable(err) && r < maxReplays; r++ {
		e.replays++
		err = phase()
	}
	if err != nil && r >= maxReplays {
		return fmt.Errorf("core: phase unrecoverable after %d replays: %w", r, err)
	}
	return err
}

// runStep runs one compound superstep (plus its routing phase). In
// fault mode every recoverable fault that escaped the fault layer's
// own retries rolls the engine back to the barrier and replays.
func (e *seqEngine) runStep(step int) (halts, sends int, err error) {
	if e.fd == nil {
		return e.stepOnce(step)
	}
	for attempt := 0; ; attempt++ {
		snap := e.snapshot()
		halts, sends, err = e.stepOnce(step)
		if err == nil {
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

// stepOnce runs one attempt of superstep step: the compound superstep,
// then (when the program continues) the routing reorganization, then
// the barrier commit.
func (e *seqEngine) stepOnce(step int) (halts, sends int, err error) {
	halts, sends, dir, err := e.compoundSuperstep(step)
	if err != nil {
		return 0, 0, err
	}
	if e.opts.NoRouting {
		// Ablation: leave the blocks where the writing phase put
		// them; the next fetch reads them scattered.
		if halts == 0 {
			e.noteLive(dir.total)
			e.inDir = dir
			// Observe the balance the fetch will pay for (Lemma 2).
			for g := 0; g < e.groups; g++ {
				R, maxPer := 0, 0
				for d := 0; d < e.cfg.D; d++ {
					n := len(dir.q[g][d])
					R += n
					if n > maxPer {
						maxPer = n
					}
				}
				if R > 0 {
					if skew := float64(maxPer) * float64(e.cfg.D) / float64(R); skew > e.maxSkew {
						e.maxSkew = skew
					}
				}
			}
		}
		return halts, sends, nil
	}
	if halts != 0 {
		// Unanimous halt (or a split vote the caller will reject):
		// nothing left to route; commit the final contexts.
		e.commitCtx()
		return halts, sends, nil
	}
	// In normal operation the consumed input areas are freed before
	// routing (they are dead weight); under the checkpoint discipline
	// they are the replay/resume source, so their release waits for the
	// barrier commit below.
	if !e.ckpt() {
		for _, ar := range e.inAreas {
			if err := disk.FreeArea(e.dsk, ar); err != nil {
				return 0, 0, err
			}
		}
	}
	e.noteLive(e.inBlocks + dir.total)
	spRoute := e.tr.BeginStep(obs.CatEngine, phRoute, 0, 0, step, -1)
	route, err := simulateRouting(e.dsk, e.acct, &e.stepBufs, dir, func(m blockMeta) int { return groupOf(m.dst, e.k) }, e.groups)
	spRoute.End()
	if err != nil {
		return 0, 0, err
	}
	// Barrier commit: from here on the superstep is durable.
	if e.ckpt() {
		for _, ar := range e.inAreas {
			if err := disk.FreeArea(e.dsk, ar); err != nil {
				return 0, 0, err
			}
		}
	}
	e.routeOps += route.stats.ops
	e.ragged += route.stats.ragged
	if route.stats.maxSkew > e.maxSkew {
		e.maxSkew = route.stats.maxSkew
	}
	e.inRegions, e.inAreas, e.inBlocks = route.regions, route.areas, route.total
	e.noteLive(route.total)
	e.commitCtx()
	return halts, sends, nil
}

// commitCtx makes the contexts written by the superstep the committed
// generation (under the checkpoint discipline, by flipping the double
// buffer).
func (e *seqEngine) commitCtx() {
	if e.ckpt() {
		e.ctxCur ^= 1
	}
}

// ctxRead returns the area holding the committed contexts; ctxWrite
// the area the running superstep writes to. They coincide unless
// checkpoint double-buffering is on.
func (e *seqEngine) ctxRead() disk.Area { return e.ctxAreas[e.ctxCur] }
func (e *seqEngine) ctxWrite() disk.Area {
	if e.ckpt() {
		return e.ctxAreas[e.ctxCur^1]
	}
	return e.ctxAreas[e.ctxCur]
}

// writeInitialContexts marshals every VP's initial state to the
// context area, one group at a time (the input-distribution phase).
func (e *seqEngine) writeInitialContexts() error {
	bufWords := e.k * e.muBlocks * e.cfg.B
	if err := e.acct.Grab(int64(bufWords)); err != nil {
		return err
	}
	defer e.acct.Release(int64(bufWords))
	buf := fit(&e.ctx, bufWords)
	enc := words.NewEncoder(nil)
	for g := 0; g < e.groups; g++ {
		lo, hi := e.groupBounds(g)
		clear(buf[:(hi-lo)*e.muBlocks*e.cfg.B])
		for id := lo; id < hi; id++ {
			enc.Reset()
			e.p.NewVP(id).Save(enc)
			if enc.Len() > e.mu {
				return fmt.Errorf("core: VP %d initial context is %d words, exceeding µ=%d", id, enc.Len(), e.mu)
			}
			copy(buf[(id-lo)*e.muBlocks*e.cfg.B:], enc.Words())
		}
		if err := disk.WriteRange(e.dsk, e.ctxRead(), lo*e.muBlocks, hi*e.muBlocks, buf[:(hi-lo)*e.muBlocks*e.cfg.B]); err != nil {
			return err
		}
	}
	return nil
}

// readFinalContexts loads every VP from disk after the program halted.
func (e *seqEngine) readFinalContexts() ([]bsp.VP, error) {
	vps := make([]bsp.VP, e.v)
	bufWords := e.k * e.muBlocks * e.cfg.B
	if err := e.acct.Grab(int64(bufWords)); err != nil {
		return nil, err
	}
	defer e.acct.Release(int64(bufWords))
	buf := fit(&e.ctx, bufWords)
	for g := 0; g < e.groups; g++ {
		lo, hi := e.groupBounds(g)
		if err := disk.ReadRange(e.dsk, e.ctxRead(), lo*e.muBlocks, hi*e.muBlocks, buf[:(hi-lo)*e.muBlocks*e.cfg.B]); err != nil {
			return nil, err
		}
		for id := lo; id < hi; id++ {
			vp := e.p.NewVP(id)
			vp.Load(words.NewDecoder(buf[(id-lo)*e.muBlocks*e.cfg.B : (id-lo+1)*e.muBlocks*e.cfg.B]))
			vps[id] = vp
		}
	}
	return vps, nil
}

// compoundSuperstep simulates one compound superstep (Algorithm 1,
// Step 1): for each group, fetch contexts and messages, run the
// computation phase, and write generated blocks and changed contexts.
// It returns the number of halt votes, the number of messages sent,
// and the output directory for SimulateRouting.
//
// On error the cost recorder's current step stays open and buffers
// grabbed by the aborted attempt stay held; either the run aborts, or
// fault-mode restore rewinds both to the barrier.
func (e *seqEngine) compoundSuperstep(step int) (halts, sends int, dir *outDirectory, err error) {
	nbuckets := e.cfg.D
	bucketKey := func(m blockMeta) int { return bucketOf(m.dst, e.v, e.cfg.D) }
	if e.opts.NoRouting {
		nbuckets = e.groups
		bucketKey = func(m blockMeta) int { return groupOf(m.dst, e.k) }
	}
	dir = newOutDirectory(nbuckets, e.cfg.D)
	e.rec.BeginStep()

	ctxWords := e.k * e.muBlocks * e.cfg.B
	if err := e.acct.Grab(int64(ctxWords)); err != nil {
		return 0, 0, nil, err
	}
	defer e.acct.Release(int64(ctxWords))
	ctxBuf := fit(&e.ctx, ctxWords)

	// Scratch for one pending parallel write (D block images).
	flushWords := e.cfg.D * e.cfg.B
	if err := e.acct.Grab(int64(flushWords)); err != nil {
		return 0, 0, nil, err
	}
	defer e.acct.Release(int64(flushWords))
	var down func(int) bool
	if e.fd != nil {
		down = e.fd.Down
	}
	writer := newBlockWriter(e.dsk, dir, bucketKey, e.rng, e.opts.Deterministic, down, &e.stepBufs)

	enc := words.NewEncoder(nil)
	scratch := fit(&e.scratch, e.cfg.B)
	for g := 0; g < e.groups; g++ {
		lo, hi := e.groupBounds(g)
		n := hi - lo

		// Fetching phase: contexts (Step 1(a)).
		spFetch := e.tr.BeginStep(obs.CatEngine, phFetchCtx, 0, 0, step, g)
		if err := disk.ReadRange(e.dsk, e.ctxRead(), lo*e.muBlocks, hi*e.muBlocks, ctxBuf[:n*e.muBlocks*e.cfg.B]); err != nil {
			return 0, 0, nil, err
		}
		vps := make([]bsp.VP, n)
		for i := 0; i < n; i++ {
			vps[i] = e.p.NewVP(lo + i)
			vps[i].Load(words.NewDecoder(ctxBuf[i*e.muBlocks*e.cfg.B : (i+1)*e.muBlocks*e.cfg.B]))
		}
		spFetch.End()

		// Fetching phase: incoming messages (Step 1(b)).
		spMsg := e.tr.BeginStep(obs.CatEngine, phFetchMsg, 0, 0, step, g)
		var buf []uint64
		var metas []blockMeta
		var grabbed int64
		var err error
		if e.opts.NoRouting {
			if e.inDir != nil {
				buf, metas, grabbed, err = readScattered(e.dsk, e.acct, &e.stepBufs, e.inDir.q[g])
			}
		} else {
			var regions []groupRegion
			if g < len(e.inRegions) {
				regions = e.inRegions[g]
			}
			buf, metas, grabbed, err = readRegions(e.dsk, e.acct, &e.stepBufs, regions)
		}
		if err != nil {
			return 0, 0, nil, err
		}
		var inbox [][]bsp.Message
		if metas == nil {
			inbox = make([][]bsp.Message, n)
		} else {
			inbox, err = reassemble(buf, metas, e.cfg.B, lo, hi)
			if err != nil {
				return 0, 0, nil, err
			}
		}
		spMsg.End()

		// Computation phase (Step 1(c)) — collect generated messages
		// in internal memory, as the paper prescribes. The span covers
		// the pipeline's prefetch hint too: it is part of what overlaps
		// with this group's computation.
		spComp := e.tr.BeginStep(obs.CatEngine, phCompute, 0, 0, step, g)

		// Group pipeline: stage group g+1's context and message blocks
		// into the store's physical cache while group g computes (the
		// write-behind of group g-1 drains concurrently). Purely
		// physical — no accounting happens here (see pipeline.go).
		if e.pf != nil && g+1 < e.groups {
			e.pf.Prefetch(e.prefetchAddrs(g + 1))
		}
		var outs []outMsg
		var outWords int64
		for i := 0; i < n; i++ {
			id := lo + i
			recvWords, recvPkts := 0, 0
			for _, m := range inbox[i] {
				w := len(m.Payload) + 1
				recvWords += w
				recvPkts += e.rec.MsgPkts(w)
			}
			if recvWords > e.gamma {
				return 0, 0, nil, fmt.Errorf("core: VP %d received %d words in superstep %d, exceeding γ=%d", id, recvWords, step, e.gamma)
			}
			seq := 0
			sendPkts := 0
			env := bsp.NewEnv(id, e.v, step, e.opts.Seed, func(dst int, payload []uint64) {
				outs = append(outs, outMsg{dst: dst, src: id, seq: seq, payload: payload})
				seq++
				sendPkts += e.rec.MsgPkts(len(payload) + 1)
				outWords += int64(len(payload) + 1)
			})
			halt, err := bsp.SafeStep(vps[i], env, inbox[i])
			if err != nil {
				return 0, 0, nil, fmt.Errorf("core: VP %d superstep %d: %w", id, step, err)
			}
			sw, msgs, charge := env.SendTotals()
			if sw > e.gamma {
				return 0, 0, nil, fmt.Errorf("core: VP %d sent %d words in superstep %d, exceeding γ=%d", id, sw, step, e.gamma)
			}
			if halt {
				halts++
			}
			sends += msgs
			e.rec.RecordVP(bsp.VPTraffic{
				SendWords: sw,
				RecvWords: recvWords,
				SendPkts:  sendPkts,
				RecvPkts:  recvPkts,
				Messages:  msgs,
				Charge:    charge,
			})
		}
		if err := e.acct.Grab(outWords); err != nil {
			return 0, 0, nil, err
		}
		spComp.End()

		// Writing phase: generated messages (Step 1(d)).
		spWrite := e.tr.BeginStep(obs.CatEngine, phWriteMsg, 0, 0, step, g)
		for _, m := range outs {
			if err := cutMessage(m, e.cfg.B, scratch, writer.add); err != nil {
				return 0, 0, nil, err
			}
		}
		if err := writer.flush(); err != nil {
			return 0, 0, nil, err
		}
		e.acct.Release(outWords)
		if grabbed > 0 {
			e.acct.Release(grabbed)
		}
		spWrite.End()

		// Writing phase: changed contexts (Step 1(e)).
		spCtx := e.tr.BeginStep(obs.CatEngine, phWriteCtx, 0, 0, step, g)
		clear(ctxBuf[:n*e.muBlocks*e.cfg.B])
		for i := 0; i < n; i++ {
			enc.Reset()
			vps[i].Save(enc)
			if enc.Len() > e.mu {
				return 0, 0, nil, fmt.Errorf("core: VP %d context is %d words after superstep %d, exceeding µ=%d", lo+i, enc.Len(), step, e.mu)
			}
			copy(ctxBuf[i*e.muBlocks*e.cfg.B:], enc.Words())
		}
		if err := disk.WriteRange(e.dsk, e.ctxWrite(), lo*e.muBlocks, hi*e.muBlocks, ctxBuf[:n*e.muBlocks*e.cfg.B]); err != nil {
			return 0, 0, nil, err
		}
		spCtx.End()
	}
	e.rec.EndStep()
	return halts, sends, dir, nil
}
