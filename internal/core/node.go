package core

import (
	"fmt"
	"math/bits"
	"path/filepath"
	"slices"

	"embsp/internal/bsp"
	"embsp/internal/disk"
	"embsp/internal/fault"
	"embsp/internal/mem"
	"embsp/internal/obs"
	"embsp/internal/prng"
)

// This file is the step machine: every phase of the compound superstep
// (Algorithm 3, of which Algorithm 1 is the p = 1 case) that touches
// exactly one real processor's state, as a method on simShape taking
// the processor's procState. The machine owns the superstep's I/O,
// accounting, checks and trace spans; what it does not own is the order
// of the phases (the driver, driver.go) or how blocks travel between
// processors.
//
// Virtual processors are assigned in blocks: real processor i owns
// VPs [i·⌈v/p⌉, (i+1)·⌈v/p⌉). A compound superstep runs in ⌈(v/p)/k⌉
// rounds; in each, one batch j — the j-th group of k VPs of every real
// processor — is simulated, the batches in ascending order in odd
// supersteps and descending order in even ones (snake order, batchAt),
// so the batch that ends a barrier begins the next superstep and its
// contexts never leave internal memory.
//
//   - Fetching phase: each processor reads the blocks pertaining to
//     batch j from its local disks: every message block for its k
//     current VPs lies there.
//   - Computing phase: each processor simulates its k current VPs.
//   - Writing phase: generated messages are packed into blocks of size
//     B, and each block is delivered to the processor that owns its
//     destination VP — its own straight into its block writer, the others
//     by a Transport, in packets of size b in one real communication
//     superstep — and every processor writes its blocks to its local
//     disks under a random drive permutation, maintaining a directory
//     keyed by destination batch, whose counts place each block on the
//     free drive where its batch holds fewest.
//
// The paper sends each packet to a randomly chosen processor instead,
// to balance the disks, and routes the blocks to their owners at the
// next fetch; delivering them where they are read leaves that second
// crossing out, and the h-relation bounds every receiver's words
// (DESIGN.md §5). The next superstep reads a processor's received blocks
// where they lie, by that directory: a batch's scattered read is within
// an operation of fully D-parallel, so the local SimulateRouting
// (Algorithm 2) the paper runs here is shown by DemoRouting and run by
// nobody (DESIGN.md §7). All deliveries are sorted canonically, so
// results are bitwise deterministic and identical to the in-memory
// reference runner.
//
// A NodeEngine (cluster.go) is one processor of this machine, in both
// runtimes: the in-process engine (driver.go) runs P of them in one
// address space, and a cluster worker runs one.

// wireBlock is a message block in flight between real processors. Its
// image aliases a buffer of the processor that produced it (stepBufs):
// a block from the computing phase is valid until that processor next
// runs it, by which time the receiver has copied it into its pending
// parallel write.
type wireBlock struct {
	meta blockMeta
	img  []uint64
}

// procState is one real processor of the machine: its VP range, store
// chain, internal memory, and the barrier state the manifest journals.
//
// Under the checkpoint discipline (ckptOn: a fault plan or a journal)
// the contexts of the previous superstep and its input blocks stay on
// disk untouched while the next superstep runs — its contexts go to
// tracks of their own, the generation ctxWrite, and every release waits
// for the barrier commit — so a recoverable fault, or a crash, rolls back
// to the barrier and replays the superstep from identical inputs. The
// contexts of the turnaround batch never go to disk under either
// discipline: they are held in ctx across the barrier, whose record —
// journaled, and kept for a replay — carries them.
//
// A batch whose VPs all sleep and which has no input is skipped: its
// contexts stay on the tracks the context directory lists, and the
// generation being written carries them over (DESIGN.md §24).
type procState struct {
	id int
	lo int // first owned VP
	hi int // one past last owned VP

	storeStack      // the store chain
	stepBufs        // the superstep loop's internal memory
	ckptOn     bool // barrier checkpoint discipline active
	acct       *mem.Accountant
	rng        *prng.Rand // the block writer's drive permutations

	down     func(d int) bool // the fault layer's dead drives; nil without one
	ctxDir   [][]disk.Addr    // the context directory: per batch, the tracks its committed contexts fill, in block order
	ctxWrite [][]disk.Addr    // the generation being written: ctxDir itself, but a checkpointed superstep's own until it commits
	ctxGens  [2][][]disk.Addr // under the checkpoint discipline, the two tables ctxDir and ctxWrite take in turn
	inDir    *outDirectory    // the input's blocks where their writer left them, per batch; nil before the first superstep
	held     int              // the turnaround batch, whose packed records ctx holds until the next round 0 loads them; -1: none
	heldLen  int              // the words of those records
	sleep    []uint64         // one bit an owned VP: it voted halt and nothing has arrived for it since

	// Superstep-scoped scratch.
	sends   int
	skipped []bool        // per batch: skipped, its committed contexts carried into the generation written
	dir     *outDirectory // the directory being written: the next input from the commit on
	spare   *outDirectory // the directory the last superstep consumed, emptied for the next one's
	writer  blockWriter
	batchOf func(dst int) int // sh.batchOf, the writer's key, bound once
	pack    streamPacker      // the superstep's message streams, their tails open across its rounds
	final   *NodeReport       // the finish phase's report, begun at its first attempt

	// The VPs' emitter (emit, bound once as emitFn): a batch's generated
	// messages go to msgs and their words to outWords; sender is the VP
	// stepping, seq its next message's number and sendPkts the packets it
	// has sent.
	emitFn                func(dst int, payload []uint64)
	rec                   *bsp.CostRecorder // emit's packet arithmetic
	outWords              int64
	sender, seq, sendPkts int

	// Accounting.
	opsMark int64
	maxSkew float64
}

func (ps *procState) ownCount() int { return ps.hi - ps.lo }

// asleep reports whether owned VP id sleeps.
func (ps *procState) asleep(id int) bool {
	i := id - ps.lo
	return ps.sleep[i/64]>>(i%64)&1 != 0
}

// vote records owned VP id's halt vote: a VP that votes halt sleeps.
func (ps *procState) vote(id int, halt bool) {
	i := id - ps.lo
	ps.sleep[i/64] &^= 1 << (i % 64)
	if halt {
		ps.sleep[i/64] |= 1 << (i % 64)
	}
}

// sleepers counts the owned VPs that sleep.
func (ps *procState) sleepers() int {
	n := 0
	for _, w := range ps.sleep {
		n += bits.OnesCount64(w)
	}
	return n
}

// heldGrab is what the accountant keeps across a barrier for the held
// batch: the blocks its records fill.
func (ps *procState) heldGrab() int64 {
	if ps.held < 0 {
		return 0
	}
	B := ps.chain.Config().B
	return int64((ps.heldLen + B - 1) / B * B)
}

// stepOps returns the parallel I/O operations consumed since beginStep,
// or since the set-up attempt began.
func (ps *procState) stepOps() int64 { return ps.ops() - ps.opsMark }

// simShape is the derived shape of a run — everything that follows
// deterministically from (program, machine config, options) — plus the
// tracer and a cost recorder. The recorder is authoritative only on
// the driver that owns global cost aggregation; node-local phases use
// just its pure packet arithmetic.
type simShape struct {
	p    bsp.Program
	cfg  MachineConfig
	opts Options

	v        int
	mu       int
	gamma    int
	k        int
	vpp      int // VPs per real processor (ceiling)
	batches  int // rounds per compound superstep
	muBlocks int // blocks reserved per context: ⌈(µ+1)/B⌉, a record's length word included
	pktBlk   int // blocks per packet: max(1, ⌊b/B⌋)

	rec *bsp.CostRecorder
	tr  *obs.Tracer // trace sink; nil-safe no-op when tracing is off
}

func newSimShape(p bsp.Program, cfg MachineConfig, opts Options) simShape {
	v := p.NumVPs()
	mu := p.MaxContextWords()
	gamma := p.MaxCommWords()
	k := cfg.M / mu
	if k < 1 {
		k = 1
	}
	vpp := (v + cfg.P - 1) / cfg.P
	if k > vpp {
		k = vpp
	}
	return simShape{
		p: p, cfg: cfg, opts: opts,
		v: v, mu: mu, gamma: gamma, k: k, vpp: vpp,
		batches:  (vpp + k - 1) / k,
		muBlocks: mu/cfg.B + 1,
		pktBlk:   max(1, cfg.Cost.Pkt/cfg.B),
		rec:      bsp.NewCostRecorder(cfg.Cost.Pkt),
		tr:       opts.Trace,
	}
}

// owner returns the real processor owning VP id.
func (sh *simShape) owner(id int) int { return id / sh.vpp }

// batchOf returns the batch (round index) in which VP id is simulated:
// its group of k within its owner's VPs.
func (sh *simShape) batchOf(id int) int { return groupOf(id%sh.vpp, sh.k) }

// batchAt returns the batch simulated in round r of superstep step: odd
// supersteps and the set-up (step -1) visit the batches in ascending
// order, even supersteps in descending order, so the last batch of every
// barrier — the turnaround batch — is the first batch of the next
// superstep and of the finish phase. The order is its own inverse:
// batchAt(step, j) is also the round in which batch j is simulated.
func (sh *simShape) batchAt(step, r int) int {
	if step%2 == 0 {
		return sh.batches - 1 - r
	}
	return r
}

// batchBounds returns the VP range [lo, hi) of processor ps's batch j.
func (sh *simShape) batchBounds(ps *procState, j int) (lo, hi int) {
	lo = ps.lo + j*sh.k
	hi = lo + sh.k
	if hi > ps.hi {
		hi = ps.hi
	}
	if lo > ps.hi {
		lo = ps.hi
	}
	return lo, hi
}

// engineMemLimit computes the internal-memory budget for one
// processor simulating groups of k VPs. The theorems assume γ = O(µ) (a
// VP's messages fit in its local memory), so the footprint is Θ(k·µ) =
// Θ(M); the budget makes that concrete — M plus the group's contexts
// and physically encoded messages (6γ words per VP for both ways: a
// message of w ≥ 1 counted words is a record of w + 1, so a VP's
// records are ≤ 2γ words each way, and a superstep's streams end in one
// partial block per cell where its tails fit one, of which a sending
// processor holds at most ⌈(µ+1)/B⌉ open — one context's blocks) and
// one block per drive — scaled by the slack constant memSlack, the
// Θ(kµ) = O(M) constant of the theorems. Programs honouring γ = O(µ)
// stay within O(M); others are still tracked and bounded.
func engineMemLimit(cfg MachineConfig, k, mu, gamma int) int64 {
	const memSlack = 8
	return memSlack * (int64(cfg.M) + int64(k)*int64(mu+6*gamma) + int64(cfg.D*cfg.B))
}

// newProcState builds processor i's state: VP range, accountant, the
// block writer's RNG, and the store chain (file-backed under dir, or
// in-memory when dir is empty). The RNG stream is keyed per processor
// exactly when there is more than one (the same rule as the fault seed
// in openStack), which keeps a one-processor machine on Algorithm 1's
// stream.
func (sh *simShape) newProcState(i int, dir string, resume bool) (*procState, error) {
	lo := i * sh.vpp
	hi := lo + sh.vpp
	if lo > sh.v {
		lo = sh.v
	}
	if hi > sh.v {
		hi = sh.v
	}
	stream := prng.Derive(sh.opts.Seed, 0xE19)
	if sh.cfg.P > 1 {
		stream = prng.Derive(sh.opts.Seed, 0xFA12, uint64(i))
	}
	ps := &procState{
		id: i, lo: lo, hi: hi, held: -1,
		acct:    mem.NewAccountant(engineMemLimit(sh.cfg, sh.k, sh.mu, sh.gamma)),
		rng:     prng.New(stream),
		ctxDir:  make([][]disk.Addr, sh.batches),
		sleep:   make([]uint64, (hi-lo+63)/64),
		skipped: make([]bool, sh.batches),
	}
	var err error
	if ps.storeStack, err = openStack(dir, sh.cfg, sh.opts, resume, sh.k, sh.mu, sh.gamma, i); err != nil {
		return nil, err
	}
	if fd := disk.Find[*fault.Disk](ps.chain); fd != nil {
		ps.down = fd.Down
	}
	// The barrier checkpoint discipline is on under a fault plan (a replay
	// needs a rollback source) and on durable drives (the state the last
	// record references must not be overwritten before the next record is
	// committed).
	ps.ckptOn = dir != "" || ps.down != nil
	ps.ctxWrite = ps.ctxDir
	if ps.ckptOn {
		ps.ctxGens = [2][][]disk.Addr{ps.ctxDir, make([][]disk.Addr, sh.batches)}
	}
	ps.batchOf, ps.emitFn, ps.rec = sh.batchOf, ps.emit, sh.rec
	return ps, nil
}

// emit is the VPs' emitter in the computing phase: it takes the stepping
// VP's next message, whose payload stays in the Env's send memory until
// scatter has packed it.
func (ps *procState) emit(dst int, payload []uint64) {
	ps.msgs = append(ps.msgs, outMsg{dst: dst, src: ps.sender, seq: ps.seq, payload: payload})
	ps.seq++
	ps.sendPkts += ps.rec.MsgPkts(len(payload) + 1)
	ps.outWords += int64(len(payload) + 1)
}

// procDir is the per-processor drive directory under a state root.
func procDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("proc-%02d", i))
}

// ctxSpan returns the context buffer cut to w words, of which the first
// keep — the records already packed — are kept (fitUpTo, to the bound of
// k contexts, k·⌈(µ+1)/B⌉·B words). The accountant is charged apart, for
// the blocks the records fill.
func (sh *simShape) ctxSpan(ps *procState, keep, w int) []uint64 {
	return fitUpTo(&ps.ctx, keep, w, sh.k*sh.muBlocks*sh.cfg.B)
}

// saveContexts is Step 1(e): the contexts of batch j's VPs are packed
// end to end as records [length, words…] and handed, block by block, to
// the block writer w, which allocates their tracks at its flush — placed
// as it places message blocks, under the batch's bound (DESIGN.md §7) —
// and enters them, in block order, in the generation being written. So
// the batch's blocks share parallel operations with every other block
// the processor writes in the superstep. The accountant holds grab words
// for the batch, what its load filled; as each record is appended the
// grab is topped up to the blocks the records fill, and the buffer grows
// with it. A record may not exceed µ + 1 words, so neither exceeds the
// bound of k contexts. The grab is returned: the writer's operation
// buffer, charged apart, holds what is not yet written. The records of
// the turnaround batch, the superstep's last, stay where they are packed:
// the next round 0 loads them from the buffer, so they get no track and
// the batch's entry in the generation is empty. The tracks of a batch
// whose VPs all sleep may outlive the superstep's other writes — the
// next superstep may skip the batch — so under redundancy they go to
// stripes of their own: the writer is flushed and the stripes sealed on
// both sides of them.
func (sh *simShape) saveContexts(ps *procState, w *blockWriter, j, step int, grab int64, vp func(id int) bsp.VP) (int64, error) {
	lo, hi := sh.batchBounds(ps, j)
	B, pos := sh.cfg.B, 0
	buf := sh.ctxSpan(ps, 0, int(grab))
	for id := lo; id < hi; id++ {
		ps.enc.Reset()
		if err := bsp.SafeSave(vp(id), &ps.enc, id, step); err != nil {
			return grab, err
		}
		n := ps.enc.Len()
		if n > sh.mu {
			return grab, fmt.Errorf("core: VP %d context is %d words after superstep %d, exceeding µ=%d", id, n, step, sh.mu)
		}
		if w := (pos + n + B) / B * B; int64(w) > grab {
			if err := ps.acct.Grab(int64(w) - grab); err != nil {
				return grab, err
			}
			grab, buf = int64(w), sh.ctxSpan(ps, pos, w)
		}
		buf[pos] = uint64(n)
		pos += 1 + copy(buf[pos+1:], ps.enc.Words())
	}
	if sh.batchAt(step, j) == sh.batches-1 {
		ps.ctxWrite[j] = ps.ctxWrite[j][:0]
		if pos > 0 { // an empty batch holds nothing
			ps.held, ps.heldLen = j, pos
		}
		return grab, nil
	}
	blocks := (pos + B - 1) / B
	clear(buf[pos : blocks*B])
	ps.ctxWrite[j] = slices.Grow(ps.ctxWrite[j][:0], blocks) // the writer's flushes fill it
	sealed := ps.redundant() && sh.batchSleeps(ps, j)
	if sealed {
		if err := w.flush(); err != nil {
			return grab, err
		}
		ps.seal()
	}
	for i := 0; i < blocks; i++ {
		if err := w.addContext(j, buf[i*B:(i+1)*B]); err != nil {
			return grab, err
		}
	}
	if !sealed {
		return grab, nil
	}
	err := w.flush()
	ps.seal()
	return grab, err
}

// fetchBlocks is the read of batch j (Steps 1(a) and 1(b)): the tracks
// the context directory lists for its committed contexts, into the
// context buffer, and the message blocks in lists per drive, into the
// region buffer, in one scattered read (readBatch). The held batch's
// contexts are read from nowhere: its records are the buffer's first
// words, and the accountant kept their blocks across the barrier. The
// batchIn's ctx holds the records and ctxGrab the words the accountant
// holds for them; on an error nothing the read grabbed stays grabbed.
func (sh *simShape) fetchBlocks(ps *procState, j int, in [][]blockRef) (batchIn, error) {
	lo, hi := sh.batchBounds(ps, j)
	var tracks []disk.Addr
	var ctx []uint64
	var grab int64
	switch used := len(ps.ctxDir[j]); {
	case ps.held == j:
		ctx, grab = ps.ctx[:ps.heldLen], ps.heldGrab()
		ps.held = -1
	case ps.held >= 0:
		return batchIn{}, &engineError{msg: fmt.Sprintf("batch %d is read over the held contexts of batch %d", j, ps.held)}
	case used > (hi-lo)*sh.muBlocks:
		return batchIn{}, &engineError{msg: fmt.Sprintf("batch %d records %d context blocks for %d VPs of at most %d", j, used, hi-lo, sh.muBlocks)}
	default:
		w := used * sh.cfg.B
		if err := ps.acct.Grab(int64(w)); err != nil {
			return batchIn{}, err
		}
		tracks, ctx, grab = ps.ctxDir[j], sh.ctxSpan(ps, 0, w), int64(w)
	}
	b, err := readBatch(ps.chain, ps.acct, &ps.stepBufs, tracks, ctx, in)
	if err != nil {
		ps.acct.Release(grab)
		return batchIn{}, err
	}
	b.ctx, b.ctxGrab = ctx, grab
	return b, nil
}

// loadContexts hands each VP of batch j its words of the records ctx,
// which fetchBlocks read, to emit, in VP order. The slices alias ctx. A
// record that runs past the words read is an engine error, not a read of
// somebody else's data.
func (sh *simShape) loadContexts(ps *procState, j int, ctx []uint64, emit func(id int, ctx []uint64) error) error {
	lo, hi := sh.batchBounds(ps, j)
	for id, pos := lo, 0; id < hi; id++ {
		if pos >= len(ctx) || ctx[pos] > uint64(len(ctx)-pos-1) {
			return &engineError{msg: fmt.Sprintf("context record of VP %d runs past the %d words of batch %d", id, len(ctx), j)}
		}
		n := int(ctx[pos])
		if err := emit(id, ctx[pos+1:pos+1+n]); err != nil {
			return err
		}
		pos += 1 + n
	}
	return nil
}

// releaseContexts gives back the tracks of batch j's committed contexts,
// last first, so the allocator hands them out again in block order. The
// entry keeps its memory: in place, where the generation written is the
// one read, the batch's save lists its new tracks in it.
func (ps *procState) releaseContexts(j int) (err error) {
	for i := len(ps.ctxDir[j]) - 1; i >= 0 && err == nil; i-- {
		err = ps.chain.Release(ps.ctxDir[j][i].Disk, ps.ctxDir[j][i].Track)
	}
	ps.ctxDir[j] = ps.ctxDir[j][:0]
	return err
}

// writeInitialContexts is the set-up, in ascending batch order: its last
// batch is held for superstep 0's first round. The contexts go through a
// block writer of the set-up's own, which breaks placement ties by
// rotation, not by the processor's PRNG, so a replay of the set-up
// (after a Rollback at step -1), which starts from the allocator it
// found and rewrites every entry of the directory, places them as the
// first attempt did. The writer's operation buffer is held until its
// last flush.
func (sh *simShape) writeInitialContexts(ps *procState) error {
	sp := sh.tr.Begin(obs.CatEngine, phSetup, ps.id, 0)
	defer sp.End()
	// A held batch's records are written over: their blocks start the grab.
	grab := ps.heldGrab()
	ps.held = -1
	ps.opsMark = ps.ops() // a rolled-back attempt charges its own operations
	if err := ps.acct.Grab(sh.opWords()); err != nil {
		return err
	}
	w := &ps.writer
	w.init(ps.chain, nil, ps.ctxWrite, ps.batchOf, nil, true, ps.down, &ps.stepBufs)
	var err error
	for r := 0; r < sh.batches && err == nil; r++ {
		grab, err = sh.saveContexts(ps, w, sh.batchAt(-1, r), -1, grab, sh.p.NewVP)
	}
	if err == nil {
		err = w.flush()
	}
	ps.acct.Release(grab - ps.heldGrab() + sh.opWords())
	return err
}

// finalReport is the finish phase, after step supersteps: it reads
// processor ps's final contexts in the order of a next superstep's rounds
// — the held batch first, from memory — loading the VPs from them where
// they are (load, in process), or copying them out for the wire, and
// completes the processor's report. The run-phase statistics are taken
// once, before the first read, and the report keeps what an attempt
// loaded: a replayed finish phase (faults) reads the batches left, the
// held one never again, and charges its re-reads to Finish.
func (sh *simShape) finalReport(ps *procState, step int, load bool) (*NodeReport, error) {
	sp := sh.tr.Begin(obs.CatEngine, phFinish, ps.id, 0)
	defer sp.End()
	if ps.final == nil {
		ps.final = &NodeReport{Lo: ps.lo, Hi: ps.hi, RunStats: ps.chain.Stats()}
		if load {
			ps.final.vps = make([]bsp.VP, ps.ownCount())
		} else {
			ps.final.Ctx = make([][]uint64, ps.ownCount())
		}
	}
	r := ps.final
	loaded := func(id int) bool {
		if load {
			return r.vps[id-ps.lo] != nil
		}
		return r.Ctx[id-ps.lo] != nil
	}
	for i := 0; i < sh.batches; i++ {
		j := sh.batchAt(step, i)
		if lo, hi := sh.batchBounds(ps, j); lo == hi || loaded(lo) {
			continue
		}
		in, err := sh.fetchBlocks(ps, j, nil)
		if err != nil {
			return nil, err
		}
		err = sh.loadContexts(ps, j, in.ctx, func(id int, ctx []uint64) error {
			if !load {
				r.Ctx[id-ps.lo] = slices.Clone(ctx)
				return nil
			}
			vp := sh.p.NewVP(id)
			r.vps[id-ps.lo] = vp
			// No arena: the VPs go to the Result with what they decode.
			ps.dec.Reset(ctx, nil)
			return bsp.SafeLoad(vp, &ps.dec, id, step)
		})
		ps.acct.Release(in.ctxGrab)
		if err != nil {
			return nil, err
		}
	}
	s := ps.chain.Stats()
	r.FinishOps = s.Ops - r.RunStats.Ops
	r.FinishReadOps = s.ReadOps - r.RunStats.ReadOps
	r.FinishBlocksRead = s.BlocksRead - r.RunStats.BlocksRead
	r.MaxSkew, r.MemHigh, r.PeakLive = ps.maxSkew, ps.acct.High(), int64(slices.Max(ps.chain.State().Next))
	return r, nil
}

// syncStore makes the processor's data durable, ahead of the barrier
// record that will reference it. An in-memory chain has no such record.
func (sh *simShape) syncStore(ps *procState, step int) error {
	if !ps.durable() {
		return nil
	}
	sp := sh.tr.BeginStep(obs.CatEngine, phBarrier, ps.id, 0, step, -1)
	defer sp.End()
	return ps.chain.Sync()
}

// beginStep resets the processor's superstep-scoped scratch for
// superstep step: the send tally and the skipped batches, the outgoing
// directory (keyed by destination batch) — the spare, emptied, unless
// that is the input — the ops watermark, under the checkpoint discipline
// the context generation to write, the block writer over the processor's
// operation buffer, and the stream packer with no tail open. The writer
// counts the contexts of every batch the superstep will skip where they
// lie — the generation carries them into the batch's next read — so that
// it places the batch's messages around them; the rule (skips) reads
// only what the barrier left.
func (sh *simShape) beginStep(ps *procState, step int) {
	ps.sends = 0
	clear(ps.skipped)
	if ps.spare == nil || ps.spare == ps.inDir {
		ps.spare = newOutDirectory(sh.batches, sh.cfg.D)
	} else {
		ps.spare.reset()
	}
	ps.dir = ps.spare
	ps.opsMark = ps.ops()
	if ps.ckptOn {
		ps.nextGeneration()
	}
	ps.writer.init(ps.chain, ps.dir, ps.ctxWrite, ps.batchOf, ps.rng, sh.opts.Deterministic, ps.down, &ps.stepBufs)
	for j := range ps.ctxDir {
		if sh.skips(ps, j, step, !ps.inDir.holds(j)) {
			ps.writer.carry(j, ps.ctxDir[j])
		}
	}
	ps.pack.reset(sh, ps.lo, ps.acct, &ps.stepBufs)
}

// nextGeneration makes ctxWrite, under the checkpoint discipline, the
// table ctxDir is not: the generation before the committed one, whose
// tracks the commit released — or an aborted attempt's, which wrote to
// tracks the rollback freed. Its lists keep their memory for the
// superstep's saves to fill, but for a batch the committed generation
// carried over from it, whose list is the committed one's.
func (ps *procState) nextGeneration() {
	ps.ctxWrite = ps.ctxGens[0]
	if len(ps.ctxDir) > 0 && &ps.ctxWrite[0] == &ps.ctxDir[0] {
		ps.ctxWrite = ps.ctxGens[1]
	}
	for j, tracks := range ps.ctxWrite {
		if sameMemory(tracks, ps.ctxDir[j]) {
			tracks = nil
		}
		ps.ctxWrite[j] = tracks[:0]
	}
}

// sameMemory reports whether two lists end their capacity at the same
// element: one list, cut differently.
func sameMemory(a, b []disk.Addr) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// batchIn is what one batch's fetch read: its incoming message blocks —
// the block images concatenated in buf, their directory entries in
// metas, and the words held for them, which simulateBatch releases when
// the batch is done — and its packed context records, ctx, with the
// words held for those.
type batchIn struct {
	buf     []uint64
	metas   []blockMeta
	grab    int64
	ctx     []uint64
	ctxGrab int64
}

// opWords is one parallel operation's worth of blocks: the block
// writer's pending buffer, which a processor holds from its first fetch
// of a superstep (fetchBatch) to its last flush (flushBatch).
func (sh *simShape) opWords() int64 { return int64(sh.cfg.D * sh.cfg.B) }

// fetchBatch is the fetching phase of batch j: unless the batch is
// skipped (skips), which it reports, it reads the batch's committed
// contexts and its message blocks from the local disks, from where the
// last writing phase left them — every block for the batch's VPs,
// whichever processor sent it — in one scattered read (fetchBlocks).
// The first round sizes the region buffer for the superstep's largest
// batch at once, so that it does not grow again at every larger batch,
// and the streams reassembled from it with it.
func (sh *simShape) fetchBatch(ps *procState, j, step int) (in batchIn, skip bool, err error) {
	if sh.batchAt(step, j) == 0 {
		if err := ps.acct.Grab(sh.opWords()); err != nil {
			return batchIn{}, false, err
		}
		if ps.inDir != nil {
			n := 0
			for _, perDrive := range ps.inDir.q {
				blocks := 0
				for _, refs := range perDrive {
					blocks += len(refs)
				}
				n = max(n, blocks)
			}
			grow(&ps.region, n*sh.cfg.B)
			grow(&ps.msgMem, n*sh.cfg.B)
		}
	}
	if sh.skips(ps, j, step, !ps.inDir.holds(j)) {
		return batchIn{}, true, nil
	}
	var q [][]blockRef
	if ps.inDir != nil {
		q = ps.inDir.q[j]
	}
	in, err = sh.fetchBlocks(ps, j, q)
	return in, false, err
}

// BatchOut is one processor's output from a computing phase: the per-VP
// traffic records for the cost recorder (in VP order), the blocks that
// leave the processor per destination processor — its own entry stays
// empty — and the packet and word tallies of those, which the
// communication model charges.
type BatchOut struct {
	Scatter []BlockBatch
	Pkts    []int64
	Wrds    []int64
	Traffic []bsp.VPTraffic
}

// reset empties the output for the next batch of a P-processor machine.
func (bo *BatchOut) reset(P int) {
	grow(&bo.Scatter, P)
	grow(&bo.Pkts, P)
	grow(&bo.Wrds, P)
	for t := range bo.Scatter {
		bo.Scatter[t].blocks, bo.Pkts[t], bo.Wrds[t] = bo.Scatter[t].blocks[:0], 0, 0
	}
	bo.Traffic = bo.Traffic[:0]
}

// computeBatch is the computing phase: batch j is reassembled from the
// blocks its fetch read, and the blocks its generated messages fill are
// delivered to their owners (scatter). What leaves the processor is left
// in ps.out, which is the processor's own (its images alias the scatter
// slab) and valid until its next computing phase. An empty batch — the
// last processor's ragged tail — has no input and scatters too, in the
// last round, where the open tails leave.
func (sh *simShape) computeBatch(ps *procState, j, step int) error {
	ps.out.reset(sh.cfg.P)
	if lo, hi := sh.batchBounds(ps, j); lo == hi {
		in, _, err := sh.fetchBatch(ps, j, step)
		if err != nil {
			return err
		}
		if len(in.metas) != 0 {
			return fmt.Errorf("core: processor %d received %d blocks for an empty batch %d", ps.id, len(in.metas), j)
		}
		return sh.scatter(ps, j, step, nil)
	}
	return sh.simulateBatch(ps, j, step)
}

// skips reports whether batch j, whose input is empty when noInput, is
// skipped in step: its VPs all sleep, and it is neither the held batch
// nor the superstep's last, the turnaround batch. The next superstep
// reads that one first anyway, so skipping it would only move the read
// while its contexts stayed on disk instead of in memory.
func (sh *simShape) skips(ps *procState, j, step int, noInput bool) bool {
	return noInput && sh.batchAt(step, j) < sh.batches-1 && sh.batchSleeps(ps, j)
}

// batchSleeps reports whether every VP of batch j sleeps and the batch
// is not the held one, which is never skipped.
func (sh *simShape) batchSleeps(ps *procState, j int) bool {
	if ps.held == j {
		return false
	}
	lo, hi := sh.batchBounds(ps, j)
	for id := lo; id < hi; id++ {
		if !ps.asleep(id) {
			return false
		}
	}
	return true
}

// loadBatch Loads the context records ctx of batch j into its slot
// objects, which NewVP made once, for the first VP each slot held
// (bsp.VP's contract), and returns them. The Loads' arrays are carved
// from vpMem, sized for ctx and the most any batch decoded beyond its
// words (arrays saved in half words unpack to up to twice their words).
func (sh *simShape) loadBatch(ps *procState, j, step int, ctx []uint64) ([]bsp.VP, error) {
	lo, hi := sh.batchBounds(ps, j)
	bound := sh.k * sh.muBlocks * sh.cfg.B
	ps.arena.Reset(fitUpTo(&ps.vpMem, 0, min(len(ctx)+ps.vpExtra, 2*len(ctx), bound), bound))
	vps := grow(&ps.vps, hi-lo)
	err := sh.loadContexts(ps, j, ctx, func(id int, ctx []uint64) error {
		if vps[id-lo] == nil {
			vps[id-lo] = sh.p.NewVP(id)
		}
		ps.dec.Reset(ctx, &ps.arena)
		return bsp.SafeLoad(vps[id-lo], &ps.dec, id, step)
	})
	ps.vpExtra = max(ps.vpExtra, ps.arena.Asked()-len(ctx))
	return vps, err
}

// simulateBatch simulates the (non-empty) batch j of processor ps:
// reassemble the messages its fetch reads, load the k current VPs, run
// their computation supersteps, write their contexts back, and hand the
// generated messages to scatter, which packs them into their cells'
// streams. Every VP of the batch is stepped, a sleeper with no input too
// (bsp.VP's sleep contract); the votes go to ps's sleep bits, the send
// tally to ps and the per-VP traffic records to ps.out. A batch of
// sleepers with no input is skipped: scatter still runs, with nothing,
// for the streams a last round closes.
func (sh *simShape) simulateBatch(ps *procState, j, step int) error {
	lo, hi := sh.batchBounds(ps, j)
	n := hi - lo

	// The batch's one read, contexts and messages, is under fetch-msg;
	// decoding the contexts and loading the VPs under fetch-ctx.
	spMsg := sh.tr.BeginStep(obs.CatEngine, phFetchMsg, ps.id, 0, step, j)
	in, skip, err := sh.fetchBatch(ps, j, step)
	if err != nil {
		return err
	}
	if skip {
		spMsg.End()
		ps.skipped[j] = true
		ps.ctxWrite[j] = ps.ctxDir[j] // in place they are one table
		sh.prefetchNext(ps, j, step)
		return sh.scatter(ps, j, step, nil)
	}
	inbox, err := sh.reassemble(in.buf, in.metas, lo, hi, &ps.stepBufs)
	if err != nil {
		return err
	}
	spMsg.End()

	// Contexts of the current k VPs, decoded from the words they were
	// loaded as: the held records, or the blocks the directory lists.
	spFetch := sh.tr.BeginStep(obs.CatEngine, phFetchCtx, ps.id, 0, step, j)
	vps, err := sh.loadBatch(ps, j, step, in.ctx)
	if err == nil && !ps.ckptOn {
		// Nothing rolls back to them: the batch's save gets them back.
		err = ps.releaseContexts(j)
	}
	if err != nil {
		return err
	}
	spFetch.End()

	// The compute span also covers the pipeline's prefetch hint, so
	// the engine phases tile this processor's lane with no gap.
	spComp := sh.tr.BeginStep(obs.CatEngine, phCompute, ps.id, 0, step, j)
	sh.prefetchNext(ps, j, step)

	// Simulate the computation supersteps, collecting the generated
	// messages in internal memory, as the paper prescribes: each payload
	// is copied once, into the processor's Env, where it stays until
	// scatter has packed it.
	ps.msgs, ps.outWords = ps.msgs[:0], 0
	ps.env.ClearSent()
	for i := 0; i < n; i++ {
		id := lo + i
		ps.sender, ps.seq, ps.sendPkts = id, 0, 0
		recvWords, recvPkts := 0, 0
		for _, m := range inbox[i] {
			w := len(m.Payload) + 1
			recvWords += w
			recvPkts += sh.rec.MsgPkts(w)
		}
		if recvWords > sh.gamma {
			return fmt.Errorf("core: VP %d received %d words in superstep %d, exceeding γ=%d", id, recvWords, step, sh.gamma)
		}
		env := &ps.env
		env.Reset(id, sh.v, step, sh.opts.Seed, ps.emitFn)
		halt, err := bsp.SafeStep(vps[i], env, inbox[i])
		if err != nil {
			return fmt.Errorf("core: VP %d superstep %d: %w", id, step, err)
		}
		sw, msgs, charge := env.SendTotals()
		if sw > sh.gamma {
			return fmt.Errorf("core: VP %d sent %d words in superstep %d, exceeding γ=%d", id, sw, step, sh.gamma)
		}
		ps.vote(id, halt)
		ps.sends += msgs
		ps.out.Traffic = append(ps.out.Traffic, bsp.VPTraffic{
			SendWords: sw, RecvWords: recvWords,
			SendPkts: ps.sendPkts, RecvPkts: recvPkts,
			Messages: msgs, Charge: charge,
		})
	}
	spComp.End()

	// Write contexts back.
	spCtx := sh.tr.BeginStep(obs.CatEngine, phWriteCtx, ps.id, 0, step, j)
	ctxGrab, err := sh.saveContexts(ps, &ps.writer, j, step, in.ctxGrab, func(id int) bsp.VP { return vps[id-lo] })
	if err != nil {
		return err
	}
	ps.acct.Release(ctxGrab - ps.heldGrab())
	spCtx.End()

	if err := ps.acct.Grab(ps.outWords); err != nil {
		return err
	}
	if err := sh.scatter(ps, j, step, ps.msgs); err != nil {
		return err
	}
	ps.acct.Release(ps.outWords)
	ps.acct.Release(in.grab)
	return nil
}

// scatter is the computing phase's sink: append the batch's messages to
// the processor's streams (and in its last round close them), and
// deliver every block that leaves one to the processor that owns its
// destination VP. A block for one of this processor's own VPs goes
// straight into the block writer (Step 1(d) of Algorithm 1); any other
// is copied into the scatter slab and left in ps.out for its owner's
// writing phase, counted in packets of ⌊b/B⌋ consecutive blocks of one
// stream, which the communication model charges. A tail the close lets
// go for one of this processor's own VPs that may share a block (shares)
// waits for the writing phase where it is, in the packer's slot, which
// nothing reuses before the next superstep; its B words stay held until
// that phase has packed it. The close releases each slot as its tail
// leaves and grabs nothing, so grabbing the held tails' words after it
// never raises the high-water mark.
func (sh *simShape) scatter(ps *procState, j, step int, outs []outMsg) error {
	sp := sh.tr.BeginStep(obs.CatEngine, phScatter, ps.id, 0, step, j)
	defer sp.End()
	B := sh.cfg.B
	bo := &ps.out
	last := sh.batchAt(step, j) == sh.batches-1
	words, cells := sh.sortByCell(outs)
	var slab []uint64 // cut at the first block that leaves the processor
	var run blockMeta
	pktLeft := 0
	emit := func(meta blockMeta, img []uint64) error {
		to := sh.owner(meta.dst)
		if to == ps.id {
			return ps.writer.add(meta, img)
		}
		if slab == nil {
			slab = fit(&ps.slab, ps.pack.maxBlocks(words, cells, last)*B)
		}
		if pktLeft == 0 || meta.dst != run.dst || meta.seq != run.seq {
			run, pktLeft = meta, sh.pktBlk
			bo.Pkts[to]++
		}
		pktLeft--
		cp := slab[:B:B]
		slab = slab[B:]
		copy(cp, img)
		bo.Scatter[to].blocks = append(bo.Scatter[to].blocks, wireBlock{meta: meta, img: cp})
		bo.Wrds[to] += int64(B)
		return nil
	}
	if err := ps.pack.add(outs, emit); err != nil || !last {
		return err
	}
	ps.lastTails = ps.lastTails[:0]
	if err := ps.pack.close(func(meta blockMeta, img []uint64) error {
		if sh.owner(meta.dst) == ps.id && shares(img) {
			ps.lastTails = append(ps.lastTails, wireBlock{meta: meta, img: img})
			return nil
		}
		return emit(meta, img)
	}); err != nil {
		return err
	}
	return ps.acct.Grab(int64(len(ps.lastTails) * B))
}

// receiveWrite is the writing phase: the blocks other processors
// delivered for this one's VPs in batch j's round (one batch per source
// processor) join its own in the block writer, which writes them to the
// local disks D blocks per parallel operation under a random drive
// permutation, maintaining the directory. A block for a VP this
// processor does not own is refused before it reaches the writer, so
// the superstep aborts before its barrier; so is one that is not B
// words, or whose header is not its directory entry. In the superstep's
// last round every sender has closed its streams, so the tails that may
// share a block are here — the others' in the delivered batches, this
// processor's own closed ones in its packer — and they go to the writer
// packed into shared blocks (shareTails), after which the processor's
// own are released.
func (sh *simShape) receiveWrite(ps *procState, j, step int, in []BlockBatch) error {
	sp := sh.tr.BeginStep(obs.CatEngine, phWriteMsg, ps.id, 0, step, j)
	defer sp.End()
	last, own := sh.batchAt(step, j) == sh.batches-1, len(ps.lastTails)
	for src, b := range in {
		for _, wb := range b.blocks {
			if d := wb.meta.dst; d < 0 || d >= sh.v || sh.owner(d) != ps.id {
				return &engineError{msg: fmt.Sprintf("processor %d sent processor %d a block for VP %d, which it does not own", src, ps.id, d)}
			}
			if len(wb.img) != sh.cfg.B {
				return &engineError{msg: fmt.Sprintf("processor %d sent processor %d a block of %d words, not B = %d", src, ps.id, len(wb.img), sh.cfg.B)}
			}
			if hdr, _, _ := parseBlock(wb.img); hdr != wb.meta {
				return &engineError{msg: fmt.Sprintf("processor %d sent processor %d a block whose header %v is not its directory entry %v", src, ps.id, hdr, wb.meta)}
			}
			if last && shares(wb.img) {
				ps.lastTails = append(ps.lastTails, wb)
				continue
			}
			if err := ps.writer.add(wb.meta, wb.img); err != nil {
				return err
			}
		}
	}
	if last {
		if err := shareTails(ps.lastTails, &ps.stepBufs, ps.writer.next, ps.writer.addNext); err != nil {
			return err
		}
		ps.acct.Release(int64(own * sh.cfg.B))
		clear(ps.lastTails) // they alias other processors' buffers
		ps.lastTails = ps.lastTails[:0]
	}
	return sh.flushBatch(ps, j, step)
}

// flushBatch ends batch j's writing phase. Blocks short of a full
// operation stay pending for the next round's to fill it; after the
// superstep's last round the writer makes its one partial parallel
// write and gives up its operation buffer. By then every batch has read
// its input, and without the checkpoint discipline nothing returns to
// it: it is freed, in a halting superstep too, as the contexts written
// with it were (their stripes leave whole).
func (sh *simShape) flushBatch(ps *procState, j, step int) error {
	if sh.batchAt(step, j) < sh.batches-1 {
		return nil
	}
	if err := ps.writer.flush(); err != nil {
		return err
	}
	ps.acct.Release(sh.opWords())
	if ps.ckptOn {
		return nil
	}
	return sh.freeInput(ps)
}

// freeInput releases the input the superstep consumed: the scattered
// tracks of its directory.
func (sh *simShape) freeInput(ps *procState) error {
	if ps.inDir == nil {
		return nil
	}
	return ps.inDir.each(func(_ int, ref blockRef) error { return ps.chain.Release(ref.disk, ref.track) })
}

// commitProc is the processor's share of the barrier commit. The
// directory the superstep wrote is the next one's input from here on —
// the blocks stay where the writer placed them (DESIGN.md §7) — unless
// the superstep halted, which has no next. Under the checkpoint
// discipline everything before this point could still be rolled back, so
// it is also where the consumed input and the context generation the
// superstep read are released (in place, the last flush and each batch's
// load already did) — but for a skipped batch's, which the generation it
// wrote carries over — and the generation it wrote becomes current. A
// halting superstep frees nothing and is followed by no write: its stale
// contexts keep their tracks beside its input. The directory the
// superstep consumed is kept as the spare the next one writes.
func (sh *simShape) commitProc(ps *procState, halted bool) error {
	if !halted {
		if ps.ckptOn {
			err := sh.freeInput(ps)
			for j := 0; j < len(ps.ctxDir) && err == nil; j++ {
				if !ps.skipped[j] {
					err = ps.releaseContexts(j)
				}
			}
			if err != nil {
				return err
			}
		}
		ps.spare, ps.inDir = ps.inDir, ps.dir
		ps.maxSkew = max(ps.maxSkew, ps.writer.skew())
	}
	ps.ctxDir = ps.ctxWrite
	return nil
}
