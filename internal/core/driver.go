package core

import (
	"fmt"
	"slices"

	"embsp/internal/bsp"
	"embsp/internal/disk"
	"embsp/internal/journal"
	"embsp/internal/words"
)

// This file is the superstep driver: the one place that knows the order
// of a run —
//
//	setup → [begin → rounds (fetch, compute, write) → totals → vote →
//	finish → prepare → decision record → commit] → final reports →
//	assemble
//
// — with the abort-and-replay loop around everything that precedes a
// barrier's decision record, and the ledger of global accounting the
// order feeds. The rounds visit the batches in snake order (batchAt), so
// the batch a barrier ends with is the one the next superstep, or the
// finish phase, begins with (DESIGN.md §22.7). It reaches the machine's
// real processors through a Transport, of which there are two: the
// in-process engine (engine.go: goroutines over procState, rows handed
// across by reference) and the cluster coordinator (internal/cluster:
// the same rows over the wire). Both present the step machine's outputs
// (node.go) in node order, so the runtimes agree bit for bit by
// construction.

// Transport is how the driver reaches the P real processors. Every
// method acts on all of them and returns their outputs in node order;
// what it returns is valid until its next call.
type Transport interface {
	// Setup writes every node's initial contexts and prepares the setup
	// barrier; it returns the nodes' setup-phase statistics.
	Setup() ([]disk.Stats, error)
	// Begin opens superstep step on every node.
	Begin(step int) error
	// Fetch runs batch j's fetching phase: rows[src][dst] are the blocks
	// src read for the VPs dst simulates (a nil row: no input), nwords
	// their word counts.
	Fetch(j, step int) (rows [][]BlockBatch, nwords [][]int64, err error)
	// Compute hands node dst column dst of rows and runs batch j's
	// computing phase.
	Compute(j, step int, rows [][]BlockBatch) ([]*BatchOut, error)
	// Write hands node dst the packets outs[src].Scatter[dst] and runs
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

// addFetch charges the words node src's fetching phase addressed to
// other nodes, combined into size-b packets per channel.
func (l *ledger) addFetch(src int, nwords []int64) {
	for o, w := range nwords {
		if o == src || w == 0 {
			continue
		}
		l.wordX[src][o] += w
		l.pktX[src][o] += l.sh.fetchPkts(w)
	}
}

// addBatch charges node src's computing phase: its scattered packets,
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
// Store-layer counters (faults, parity, overlap, tiers) are not in the
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
		if step >= d.sh.opts.MaxSupersteps {
			return nil, fmt.Errorf("core: no convergence after %d supersteps", d.sh.opts.MaxSupersteps)
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
		rows, nwords, err := d.t.Fetch(j, step)
		if err != nil {
			return false, err
		}
		for src, nw := range nwords {
			d.addFetch(src, nw)
		}
		outs, err := d.t.Compute(j, step, rows)
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
