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
	"embsp/internal/journal"
	"embsp/internal/words"
)

// This file is the superstep driver: the one place that knows the order
// of a run —
//
//	setup → [begin → rounds (compute, write) → totals → vote → finish →
//	prepare → decision record → commit] → final reports → assemble
//
// — with the abort-and-replay loop around everything that precedes a
// barrier's decision record, and the ledger of global accounting the
// order feeds. The rounds visit the batches in snake order (batchAt), so
// the batch a barrier ends with is the one the next superstep, or the
// finish phase, begins with (DESIGN.md §22.7). A round's computing phase
// reads the batch's input where it lies and delivers each block it
// writes to the processor that owns its destination; its writing phase
// writes the blocks that crossed. It reaches the machine's real
// processors through a Transport, of which there are two, over one node
// type (NodeEngine, cluster.go): the in-process engine at the end of this
// file (P nodes in one address space, blocks handed across by reference)
// and the cluster coordinator (internal/cluster: one node a worker
// process, the same blocks over the wire). Both present the step
// machine's outputs (node.go) in node order, so the runtimes agree bit
// for bit by construction.

// Transport is how the driver reaches the P real processors. Every
// method acts on all of them and returns their outputs in node order;
// what it returns is valid until its next call.
type Transport interface {
	// Setup writes every node's initial contexts and prepares the setup
	// barrier; it returns the nodes' setup-phase statistics.
	Setup() ([]disk.Stats, error)
	// Begin opens superstep step on every node.
	Begin(step int) error
	// Compute runs batch j's fetching and computing phases on every node:
	// each reads the batch's input from its own disks, hands the blocks
	// for its own VPs to its block writer, and returns those for other
	// nodes' VPs.
	Compute(j, step int) ([]*BatchOut, error)
	// Write hands node dst the blocks outs[src].Scatter[dst] and runs
	// batch j's writing phase.
	Write(j, step int, outs []*BatchOut) error
	// Totals returns every node's sleepers, sends and operations.
	Totals() ([]StepTotals, error)
	// Prepare makes every node's barrier state — with the directory the
	// superstep wrote as the next one's input, unless it halted —
	// durable, short of the decision; it returns the extra parallel I/O
	// the barrier itself cost each node (parity maintenance), which the
	// model charges.
	Prepare(step int, halted bool) ([]int64, error)
	// Commit tells the nodes that barrier step's decision record landed.
	Commit(step int) error
	// Rollback returns every node to the last barrier after attempt
	// failed with cause (step -1: the setup), or returns the error that
	// ends the run. It reports the slowest node's aborted operations,
	// which the model charges; a transport whose replays leave no trace
	// in the run's statistics reports 0.
	Rollback(step, attempt int, cause error) (aborted int64, err error)
	// Final reads the halted run's contexts and accounting.
	Final() ([]*NodeReport, error)
}

// StepTotals is one node's share of a superstep at the vote: its VPs
// that sleep — voted halt, in this superstep or in an earlier one with
// nothing arrived for them since — the messages its VPs sent, and its
// parallel I/O operations since Begin.
type StepTotals struct {
	Sleepers, Sends int
	Ops             int64
}

// ledger is the global half of a run: what no single processor knows.
// Its journal record is the barrier's decision.
type ledger struct {
	sh   *simShape
	kind uint64
	fpr  uint64
	dir  string
	jrn  *journal.Journal // nil: an in-process run without a StateDir
	enc  words.Encoder    // the decision record being written, reused
	// procs, when set, appends the processors' barrier state to the
	// decision record (in process they have no journals of their own).
	procs func(*words.Encoder)

	setup     disk.Stats // setup-phase statistics
	stepsDone int        // supersteps committed so far
	halted    bool       // every VP sleeps and the last superstep sent nothing (committed)

	pktX  [][]int64 // packets per channel this superstep
	wordX [][]int64 // words per channel this superstep

	ioTime    float64
	commTime  float64
	commPkts  int64
	commWords int64

	// In-process fault replays (the engine counts them; a cluster's
	// replays leave no trace).
	replays     int64
	recoveryOps int64 // I/O ops consumed by rolled-back attempts

	open bool // a superstep is begun and not yet decided
	mark struct {
		rec                 int
		ioTime, commTime    float64
		commPkts, commWords int64
	}
}

func newLedger(sh *simShape, kind, fpr uint64, dir string) ledger {
	l := ledger{sh: sh, kind: kind, fpr: fpr, dir: dir}
	P := sh.cfg.P
	l.pktX, l.wordX = make([][]int64, P), make([][]int64, P)
	for i := range l.pktX {
		l.pktX[i], l.wordX[i] = make([]int64, P), make([]int64, P)
	}
	return l
}

// openJournal opens (resume) or creates the decision journal under the
// ledger's directory. Its append spans go to a lane one past the last
// processor's.
func (l *ledger) openJournal(resume bool) (err error) {
	if resume {
		l.jrn, err = journal.Open(l.dir)
	} else {
		l.jrn, err = journal.Create(l.dir)
	}
	if err == nil {
		l.jrn.SetTracer(l.sh.tr, l.sh.cfg.P)
	}
	return err
}

func (l *ledger) close() error {
	if l.jrn == nil {
		return nil
	}
	return l.jrn.Close()
}

// Committed returns the number of committed decision records.
func (l *ledger) Committed() int {
	if l.jrn == nil {
		return 0
	}
	_, n := l.jrn.Records()
	return n
}

// StepsDone returns the committed superstep count.
func (l *ledger) StepsDone() int { return l.stepsDone }

// begin opens a superstep's accounting and marks where abort returns to.
func (l *ledger) begin() {
	l.mark.rec = l.sh.rec.Mark()
	l.mark.ioTime, l.mark.commTime, l.mark.commPkts, l.mark.commWords = l.ioTime, l.commTime, l.commPkts, l.commWords
	l.open = true
	l.sh.rec.BeginStep()
	for i := range l.pktX {
		clear(l.pktX[i])
		clear(l.wordX[i])
	}
}

// addBatch charges node src's computing phase: the packets it sent,
// and its VPs' traffic in the cost recorder (whose folds commute, so
// node order reproduces any order).
func (l *ledger) addBatch(src int, bo *BatchOut) {
	for t := range bo.Pkts {
		l.pktX[src][t] += bo.Pkts[t]
		l.wordX[src][t] += bo.Wrds[t]
	}
	for _, tr := range bo.Traffic {
		l.sh.rec.RecordVP(tr)
	}
}

// vote sums the nodes' totals: whether the run halts — every VP sleeps
// and the superstep sent nothing, the rule bsp.Run applies — and the
// slowest node's operations.
func (l *ledger) vote(step int, totals []StepTotals) (halted bool, maxOps int64, err error) {
	var sleepers, sends int
	for _, t := range totals {
		sleepers += t.Sleepers
		sends += t.Sends
		maxOps = max(maxOps, t.Ops)
	}
	if sleepers > l.sh.v {
		return false, 0, fmt.Errorf("core: %d of %d VPs sleep after superstep %d", sleepers, l.sh.v, step)
	}
	return sleepers == l.sh.v && sends == 0, maxOps, nil
}

// finish closes the superstep's model costs: I/O time is the slowest
// node's operations at G each; real communication is max(L, g·max_i(sent
// + received packets)).
func (l *ledger) finish(maxOps int64) {
	l.sh.rec.EndStep()
	l.ioTime += l.sh.cfg.G * float64(maxOps)
	ct, pkts, wrds := superstepCommCosts(l.sh.cfg, l.pktX, l.wordX)
	l.commTime += ct
	l.commPkts += pkts
	l.commWords += wrds
}

// superstepCommCosts folds one superstep's exchange matrices into the
// model's communication charges: the off-diagonal packet and word
// totals, and the superstep communication time max(L, g·max_i(sent_i +
// received_i packets)). A machine with no other processor has no
// communication superstep to charge.
func superstepCommCosts(cfg MachineConfig, pktX, wordX [][]int64) (ct float64, pkts, wrds int64) {
	P := cfg.P
	if P == 1 {
		return 0, 0, 0
	}
	var maxPkts int64
	for i := 0; i < P; i++ {
		var sent, recv int64
		for o := 0; o < P; o++ {
			if o != i {
				sent += pktX[i][o]
				recv += pktX[o][i]
				wrds += wordX[i][o]
				pkts += pktX[i][o]
			}
		}
		if sent+recv > maxPkts {
			maxPkts = sent + recv
		}
	}
	ct = cfg.Cost.GPkt * float64(maxPkts)
	if ct < cfg.Cost.L {
		ct = cfg.Cost.L
	}
	return ct, pkts, wrds
}

// abort rewinds the open superstep's accounting to its begin mark. The
// rolled-back attempt's operations were real work: the model pays for
// the slowest node's.
func (l *ledger) abort(aborted int64) {
	if !l.open {
		return
	}
	l.open = false
	l.sh.rec.Rewind(l.mark.rec)
	l.commTime, l.commPkts, l.commWords = l.mark.commTime, l.mark.commPkts, l.mark.commWords
	l.ioTime = l.mark.ioTime + l.sh.cfg.G*float64(aborted)
}

// decide commits barrier step (-1: the setup): with a journal, the
// appended record IS the decision — every node must have prepared.
func (l *ledger) decide(step int, halted bool) error {
	l.stepsDone, l.halted, l.open = step+1, halted, false
	if l.jrn == nil {
		return nil
	}
	l.enc.Reset()
	l.encode(&l.enc)
	if err := l.jrn.Append(l.enc.Words()); err != nil {
		return err
	}
	// Align trace durability with journal durability: a killed run's
	// trace then reaches the same barrier its resume starts from.
	l.sh.tr.Flush() //nolint:errcheck
	if l.sh.opts.OnCommit != nil {
		l.sh.opts.OnCommit(step)
	}
	return nil
}

// encode writes the decision record. An in-process record also carries
// the replay counters and the processors' state.
func (l *ledger) encode(enc *words.Encoder) {
	enc.PutUint(l.kind)
	enc.PutUint(l.fpr)
	enc.PutInt(int64(l.stepsDone))
	enc.PutBool(l.halted)
	encodeStats(enc, l.setup)
	enc.PutFloat(l.ioTime)
	enc.PutFloat(l.commTime)
	counts := []int64{l.commPkts, l.commWords}
	if l.procs != nil {
		counts = append(counts, l.replays, l.recoveryOps)
	}
	enc.PutInts(counts)
	encodeRecSteps(enc, l.sh.rec.Steps())
	if l.procs != nil {
		l.procs(enc)
	}
}

// load adopts the last committed decision record and returns its
// decoder, positioned at whatever follows the global accounting. It
// touches nothing but the journal, so a directory this run cannot
// continue — another program, machine or options, or one journaled
// under earlier model rules — is refused before a drive is opened.
func (l *ledger) load() (*words.Decoder, error) {
	last, n := l.jrn.Records()
	if n == 0 {
		return nil, &journal.Error{Path: l.dir, Record: -1,
			Reason: "no committed checkpoint to resume from (the run crashed before its first barrier; start it fresh)"}
	}
	dec := words.NewDecoder(last)
	if err := checkManifestHeader(dec, l.kind, l.fpr); err != nil {
		return nil, err
	}
	l.stepsDone = int(dec.Int())
	l.halted = dec.Bool()
	l.setup = decodeStats(dec)
	l.ioTime = dec.Float()
	l.commTime = dec.Float()
	t := dec.Ints()
	l.commPkts, l.commWords = t[0], t[1]
	if len(t) > 2 {
		l.replays, l.recoveryOps = t[2], t[3]
	}
	l.sh.rec.Restore(decodeRecSteps(dec))
	return dec, nil
}

// assemble builds the run's Result from the nodes' final reports.
// Store-layer counters (faults, parity, overlap) are not in the
// reports: they never cross a wire, and the in-process engine adds its
// own afterwards.
func (l *ledger) assemble(reports []*NodeReport) (*Result, error) {
	sh := l.sh
	if len(reports) != sh.cfg.P {
		return nil, fmt.Errorf("core: %d node reports for P = %d", len(reports), sh.cfg.P)
	}
	em := EMStats{
		K:              sh.k,
		Groups:         sh.batches,
		CtxBlocksPerVP: sh.muBlocks,
		Setup:          l.setup,
		PerProc:        make([]disk.Stats, len(reports)),
		IOTime:         l.ioTime,
		CommTime:       l.commTime,
		CommPkts:       l.commPkts,
		CommWords:      l.commWords,
		Replays:        l.replays,
		RecoveryOps:    l.recoveryOps,
	}
	vps := make([]bsp.VP, sh.v)
	for i, r := range reports {
		em.PerProc[i] = r.RunStats
		em.Run.Add(r.RunStats)
		em.Finish.Ops += r.FinishOps
		em.Finish.ReadOps += r.FinishReadOps
		em.Finish.BlocksRead += r.FinishBlocksRead
		em.MaxBucketSkew = max(em.MaxBucketSkew, r.MaxSkew)
		em.MemHigh = max(em.MemHigh, r.MemHigh)
		em.LiveBlocksPerDrive = max(em.LiveBlocksPerDrive, r.PeakLive)
		if r.Lo < 0 || r.Hi > sh.v || len(r.vps)+len(r.Ctx) != r.Hi-r.Lo {
			return nil, fmt.Errorf("core: node report covers %d contexts for VPs [%d, %d)", len(r.vps)+len(r.Ctx), r.Lo, r.Hi)
		}
		copy(vps[r.Lo:], r.vps)
		for idx, ctx := range r.Ctx {
			vp := sh.p.NewVP(r.Lo + idx)
			if err := bsp.SafeLoad(vp, words.NewDecoder(ctx), r.Lo+idx, l.stepsDone); err != nil {
				return nil, err
			}
			vps[r.Lo+idx] = vp
		}
	}
	if slices.Contains(vps, nil) {
		return nil, fmt.Errorf("core: node reports leave VPs uncovered")
	}
	res := &Result{VPs: vps, Costs: sh.rec.Costs(), EM: em}
	publishEMStats(sh.opts.Metrics, &res.EM)
	return res, nil
}

// driver runs a program's supersteps over a Transport.
type driver struct {
	ledger
	t Transport
}

// run drives the program from setup — or from the barrier a resumed
// run's journal records — to its Result.
func (d *driver) run() (*Result, error) {
	if d.Committed() == 0 {
		err := d.barrier(-1, func() (bool, error) {
			stats, err := d.t.Setup()
			if err != nil {
				return false, err
			}
			for _, s := range stats {
				d.setup.Add(s)
			}
			return false, nil
		})
		if err != nil {
			return nil, err
		}
	}
	for step := d.stepsDone; !d.halted; step++ {
		if step >= bsp.MaxSupersteps {
			return nil, fmt.Errorf("core: no convergence after %d supersteps", bsp.MaxSupersteps)
		}
		if err := d.barrier(step, func() (bool, error) { return d.superstep(step) }); err != nil {
			return nil, err
		}
	}
	reports, err := d.t.Final()
	if err != nil {
		return nil, err
	}
	return d.assemble(reports)
}

// barrier runs try — everything of barrier step that precedes its
// decision — as one recovery unit: a failure the transport can roll back
// replays it from the last barrier. Then it commits: the decision
// record first, the nodes after. Failures past the decision never change
// the outcome, only who learns of it when.
func (d *driver) barrier(step int, try func() (halted bool, err error)) error {
	halted, err := try()
	for attempt := 0; err != nil; attempt++ {
		aborted, rerr := d.t.Rollback(step, attempt, err)
		if rerr != nil {
			return rerr
		}
		d.abort(aborted)
		halted, err = try()
	}
	if err := d.decide(step, halted); err != nil {
		return err
	}
	return d.t.Commit(step)
}

// superstep runs compound superstep step up to its nodes' prepare. On
// error the cost recorder's step stays open and the nodes' superstep
// buffers stay grabbed; either the run ends, or Rollback and abort
// rewind both to the barrier.
func (d *driver) superstep(step int) (halted bool, err error) {
	d.begin()
	if err := d.t.Begin(step); err != nil {
		return false, err
	}
	for r := 0; r < d.sh.batches; r++ {
		j := d.sh.batchAt(step, r)
		outs, err := d.t.Compute(j, step)
		if err != nil {
			return false, err
		}
		for src, bo := range outs {
			d.addBatch(src, bo)
		}
		if err := d.t.Write(j, step, outs); err != nil {
			return false, err
		}
	}
	totals, err := d.t.Totals()
	if err != nil {
		return false, err
	}
	halted, maxOps, err := d.vote(step, totals)
	if err != nil {
		return false, err
	}
	d.finish(maxOps)
	barrierOps, err := d.t.Prepare(step, halted)
	if err != nil {
		return false, err
	}
	if len(barrierOps) > 0 {
		d.ioTime += d.sh.cfg.G * float64(slices.Max(barrierOps))
	}
	return halted, nil
}

// --- The in-process engine ---------------------------------------------

// The in-process engine is the driver's in-memory Transport: P nodes
// (NodeEngine, cluster.go) in one address space, which hand the blocks
// that leave a processor to their owners by reference. Its nodes have
// no journals: a node's record is its section of the decision record
// (encodeProcs). The set-up's context writes, Compute, Write and Final
// run the nodes as goroutines; the set-up barriers and Prepare run in
// node order. Under a fault plan a recoverable fault on any node returns
// every node to the barrier it kept, and the driver replays the
// superstep (DESIGN.md §8).

// maxReplays bounds how many times one compound superstep may be
// rolled back and replayed before the engine gives up. Each replay draws
// a fresh fault schedule, so the replay count is geometric in the
// probability of one clean attempt; the bound is a runaway backstop set
// far above anything a survivable plan produces (with retries disabled
// entirely, a large superstep can legitimately need dozens of attempts).
const maxReplays = 1000

type engine struct {
	simShape
	nodes []*NodeEngine
	goctx context.Context
	led   *ledger // the run's global accounting, which holds the replay counters

	// What the phases return, one entry per node, reused every round.
	outs   []*BatchOut
	totals []StepTotals
	ops    []int64
}

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

// run runs, then closes the journal and every node.
func (e *engine) run(d *driver) (*Result, error) {
	res, err := e.openAndRun(d)
	cerrs := []error{d.close()}
	for _, n := range e.nodes {
		if n != nil {
			cerrs = append(cerrs, n.Close())
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

// openAndRun opens the journal, then every node, and runs. A resumed run
// adopts its last decision record before it opens a single drive
// (ledger.load), so a state directory it cannot continue is refused
// untouched.
func (e *engine) openAndRun(d *driver) (*Result, error) {
	root := e.opts.StateDir
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
	P := e.cfg.P
	e.nodes, e.outs, e.totals, e.ops = make([]*NodeEngine, P), make([]*BatchOut, P), make([]StepTotals, P), make([]int64, P)
	for i := range e.nodes {
		var dir string
		if root != "" {
			dir = procDir(root, i) // the node's drives; the journal is the root's
		}
		n, err := newNode(&e.simShape, i, dir, e.opts.Resume)
		if err != nil {
			return nil, err
		}
		e.nodes[i], e.outs[i] = n, &n.ps.out
	}
	if manifest != nil {
		if err := e.decodeProcs(manifest, d.stepsDone); err != nil {
			return nil, err
		}
	}
	for _, n := range e.nodes {
		n.keep(manifest == nil) // the barrier the run starts from
	}
	res, err := d.run()
	if err != nil {
		return nil, err
	}
	// The store layers' counters, which no report carries.
	for _, n := range e.nodes {
		n.ps.report(&res.EM, e.opts.Metrics)
	}
	return res, nil
}

// parallel runs f once per node, concurrently, and joins errors. One
// node runs it on the calling goroutine.
func (e *engine) parallel(f func(n *NodeEngine) error) error {
	if len(e.nodes) == 1 {
		return f(e.nodes[0])
	}
	var wg sync.WaitGroup
	errs := make([]error, len(e.nodes))
	for i, n := range e.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(n)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Setup writes every node's initial contexts, then, once all have, runs
// the nodes' set-up barriers in node order: a recoverable fault in the
// contexts finds every node before its barrier commit, and the driver
// rolls them all back (Rollback at step -1).
func (e *engine) Setup() ([]disk.Stats, error) {
	contexts := func(n *NodeEngine) error { return e.writeInitialContexts(n.ps) }
	if err := e.parallel(contexts); err != nil {
		return nil, err
	}
	stats := make([]disk.Stats, len(e.nodes))
	for i, n := range e.nodes {
		var err error
		if stats[i], err = n.setupBarrier(); err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// Begin implements cooperative cancellation at barriers and opens the
// superstep on every node.
func (e *engine) Begin(step int) error {
	if err := e.goctx.Err(); err != nil {
		return fmt.Errorf("core: run cancelled at superstep barrier %d: %w", step, err)
	}
	for _, n := range e.nodes {
		n.BeginStep()
	}
	return nil
}

// Compute runs batch j on every node. One node runs it on this
// goroutine, with no closure to allocate.
func (e *engine) Compute(j, step int) ([]*BatchOut, error) {
	if len(e.nodes) == 1 {
		_, err := e.nodes[0].Compute(j, step)
		return e.outs, err
	}
	return e.outs, e.parallel(func(n *NodeEngine) error { _, err := n.Compute(j, step); return err })
}

// Write hands every node the blocks the others delivered to it, then
// runs its writing phase.
func (e *engine) Write(j, step int, outs []*BatchOut) error {
	for _, n := range e.nodes {
		in := grow(&n.ps.recv, len(outs))
		for src, bo := range outs {
			in[src] = bo.Scatter[n.ps.id]
		}
	}
	if len(e.nodes) == 1 {
		return e.nodes[0].Write(j, step, e.nodes[0].ps.recv)
	}
	return e.parallel(func(n *NodeEngine) error { return n.Write(j, step, n.ps.recv) })
}

func (e *engine) Totals() ([]StepTotals, error) {
	for i, n := range e.nodes {
		e.totals[i] = n.StepTotals()
	}
	return e.totals, nil
}

// Prepare runs every node's barrier commit, in node order.
func (e *engine) Prepare(step int, halted bool) ([]int64, error) {
	for i, n := range e.nodes {
		var err error
		if e.ops[i], err = n.Prepare(step, halted); err != nil {
			return nil, err
		}
	}
	return e.ops, nil
}

// Commit: the decision record, which carries the nodes' records, is all
// there is to a commit.
func (e *engine) Commit(int) error { return nil }

// Rollback returns every node to the barrier it kept (replay), unless a
// node began its barrier commit, which no replay undoes. It returns the
// slowest node's share of the aborted attempt's operations, which the
// run counts as recovery work too.
func (e *engine) Rollback(step, attempt int, cause error) (maxAborted int64, err error) {
	switch {
	case !fault.Replayable(cause) || slices.ContainsFunc(e.nodes, func(n *NodeEngine) bool { return n.rec.Len() == 0 }):
		return 0, cause
	case attempt >= maxReplays:
		return 0, fmt.Errorf("core: superstep %d unrecoverable after %d replays: %w", step, attempt, cause)
	}
	e.led.replays++
	for _, n := range e.nodes {
		aborted := n.ps.stepOps()
		e.led.recoveryOps += aborted
		maxAborted = max(maxAborted, aborted)
		if err := n.replay(step); err != nil {
			return 0, err
		}
	}
	return maxAborted, nil
}

// Final collects every node's report. The finish phase only reads, so a
// recoverable fault runs it again with nothing to return to.
func (e *engine) Final() ([]*NodeReport, error) {
	reports := make([]*NodeReport, len(e.nodes))
	phase := func(n *NodeEngine) (err error) {
		reports[n.ps.id], err = n.Final()
		return err
	}
	err := e.parallel(phase)
	r := 0
	for ; err != nil && e.nodes[0].faulty() && fault.Replayable(err) && r < maxReplays; r++ {
		e.led.replays++
		err = e.parallel(phase)
	}
	if err != nil && r >= maxReplays {
		return nil, fmt.Errorf("core: finish phase unrecoverable after %d replays: %w", r, err)
	}
	return reports, err
}
