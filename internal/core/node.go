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
	"embsp/internal/words"
)

// This file is the step machine: every phase of the compound superstep
// (Algorithm 3, of which Algorithm 1 is the p = 1 case) that touches
// exactly one real processor's state, as a method on simShape taking
// the processor's procState. The machine owns the superstep's I/O,
// accounting, checks and trace spans; what it does not own is the order
// of the phases (the driver, driver.go) or how blocks travel between
// processors. A Transport supplies that:
//
//   - the in-process engine (engine.go) keeps all p processors in one
//     address space. With p > 1 it hands rows of blocks across by
//     reference; with p = 1 there is nobody to exchange with, so the
//     batch is reassembled from the region buffer its fetch filled and
//     its messages are packed straight into the block writer;
//   - NodeEngine (cluster.go) wraps a single processor for the
//     multi-process cluster runtime, which carries the same rows over
//     the wire.

// wireBlock is a message block in flight between real processors. Its
// image aliases a buffer of the processor that produced it (stepBufs):
// a block from the fetching or computing phase is valid until that
// processor next runs the same phase, by which time the receiver has
// copied it — into its inbox buffer or its pending parallel write.
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
// discipline: they are held in ctx across the barrier, which journals
// them in the processor's record and snapshots them for a replay.
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
	pktRng     *prng.Rand // scatter's packet targets: one stream per superstep, seeded in its first round

	down     func(d int) bool // the fault layer's dead drives; nil without one
	ctxDir   [][]disk.Addr    // the context directory: per batch, the tracks its committed contexts fill, in block order
	ctxWrite [][]disk.Addr    // the generation being written: ctxDir itself, but a checkpointed superstep's own until it commits
	ctxAt    int              // the drive the next batch's context tracks start at
	inDir    *outDirectory    // the input's blocks where their writer left them, per batch; nil before the first superstep
	held     int              // the turnaround batch, whose packed records ctx holds until the next round 0 loads them; -1: none
	heldLen  int              // the words of those records
	sleep    []uint64         // one bit an owned VP: it voted halt and nothing has arrived for it since

	// Superstep-scoped scratch.
	sends   int
	skipped []bool        // per batch: skipped, its committed contexts carried into the generation written
	dir     *outDirectory // the directory being written: the next input from the commit on
	writer  *blockWriter
	pack    streamPacker // the superstep's message streams, their tails open across its rounds
	final   *NodeReport  // the finish phase's report, begun at its first attempt

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

// stepOps returns the parallel I/O operations consumed since beginStep.
func (ps *procState) stepOps() int64 { return ps.chain.Stats().Ops - ps.opsMark }

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
// message of w ≥ 1 counted words is a record of w + 3, so a VP's
// records are ≤ 4γ words each way, and a superstep's streams end in one
// partial block per (sending processor, cell), of which a processor
// holds at most ⌈(µ+1)/B⌉ open — one context's blocks) and one block per
// drive — scaled by the configured slack constant. Programs honouring γ
// = O(µ) stay within O(M); others are still tracked and bounded.
func engineMemLimit(cfg MachineConfig, k, mu, gamma int) int64 {
	return int64(cfg.memSlack()) * (int64(cfg.M) + int64(k)*int64(mu+6*gamma) + int64(cfg.D*cfg.B))
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
		pktRng:  prng.New(0),
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
	ps.ctxWrite = ps.ctxDir
	return ps, nil
}

// procDir is the per-processor drive directory under a state root.
func procDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("proc-%02d", i))
}

// grabCtx holds the words of n VPs' contexts at the µ bound — what they
// may be, whatever they are — and returns the buffer for them. With a
// batch held, the grab tops up what the accountant kept for it and the
// buffer keeps its records in front (grow, not fit, whose canary would
// poison them; the buffer already has room for k contexts, so grow does
// not move them).
func (sh *simShape) grabCtx(ps *procState, n int) ([]uint64, int64, error) {
	w := n * sh.muBlocks * sh.cfg.B
	if ps.held < 0 {
		return fit(&ps.ctx, w), int64(w), ps.acct.Grab(int64(w))
	}
	return grow(&ps.ctx, w), int64(w), ps.acct.Grab(int64(w) - ps.heldGrab())
}

// moveContexts writes (or reads) the blocks of buf to (from) tracks,
// block i at tracks[i]: one parallel operation for every run of tracks on
// distinct drives, which is a stripe's period — D while every drive lives.
func (ps *procState) moveContexts(tracks []disk.Addr, buf []uint64, write bool) error {
	D, B := ps.chain.Config().D, ps.chain.Config().B
	for lo, hi := 0, 0; lo < len(tracks); lo = hi {
		reads, writes := grow(&ps.reads, D)[:0], grow(&ps.writes, D)[:0]
		for hi = lo; hi < len(tracks) && (hi == lo || tracks[hi].Disk != tracks[lo].Disk); hi++ {
			a, blk := tracks[hi], buf[hi*B:(hi+1)*B]
			if write {
				writes = append(writes, disk.WriteReq{Disk: a.Disk, Track: a.Track, Src: blk})
			} else {
				reads = append(reads, disk.ReadReq{Disk: a.Disk, Track: a.Track, Dst: blk})
			}
		}
		// One of the lists is empty, and an empty operation is none.
		err := ps.chain.ReadOp(reads)
		if err == nil {
			err = ps.chain.WriteOp(writes)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// saveContexts is Step 1(e): the contexts of batch j's VPs are packed
// end to end as records [length, words…] and written to exactly the
// tracks they fill, allocated here — striped over the live drives from
// where the superstep's previous batch stopped, no draw from the block
// writer's PRNG — and entered in the generation being written. A record
// may not exceed µ + 1 words, so the k of them fit grabCtx's buffer.
// The records of the turnaround batch, the superstep's last, stay where
// they are packed: the next round 0 loads them from buf, so they get no
// track and the batch's entry in the generation is empty. The tracks of
// a batch whose VPs all sleep may outlive the superstep's other writes —
// the next superstep may skip the batch — so under parity they go to
// stripes of their own.
func (sh *simShape) saveContexts(ps *procState, j, step int, buf []uint64, vp func(id int) bsp.VP) error {
	lo, hi := sh.batchBounds(ps, j)
	D, B, pos := sh.cfg.D, sh.cfg.B, 0
	for id := lo; id < hi; id++ {
		ps.enc.Reset()
		if err := bsp.SafeSave(vp(id), &ps.enc, id, step); err != nil {
			return err
		}
		n := ps.enc.Len()
		if n > sh.mu {
			return fmt.Errorf("core: VP %d context is %d words after superstep %d, exceeding µ=%d", id, n, step, sh.mu)
		}
		buf[pos] = uint64(n)
		pos += 1 + copy(buf[pos+1:], ps.enc.Words())
	}
	if sh.batchAt(step, j) == sh.batches-1 {
		ps.ctxWrite[j] = ps.ctxWrite[j][:0]
		if pos > 0 { // an empty batch holds nothing
			ps.held, ps.heldLen = j, pos
		}
		return nil
	}
	tracks := grow(&ps.ctxWrite[j], (pos+B-1)/B)
	clear(buf[pos : len(tracks)*B])
	for i := range tracks {
		for n := 0; n < D && ps.down != nil && ps.down(ps.ctxAt); n++ {
			ps.ctxAt = (ps.ctxAt + 1) % D
		}
		tracks[i] = disk.Addr{Disk: ps.ctxAt, Track: ps.chain.Alloc(ps.ctxAt)}
		ps.ctxAt = (ps.ctxAt + 1) % D
	}
	ps.ctxWrite[j] = tracks
	if !sh.batchSleeps(ps, j) {
		return ps.moveContexts(tracks, buf, true)
	}
	ps.seal()
	err := ps.moveContexts(tracks, buf, true)
	ps.seal()
	return err
}

// loadContexts is Step 1(a): read the blocks batch j's committed
// contexts fill, by the context directory, and hand each VP's words to
// emit, in VP order. The slices alias buf. The held batch is read from
// nowhere: its records are buf's first words, which grabCtx kept.
func (sh *simShape) loadContexts(ps *procState, j int, buf []uint64, emit func(id int, ctx []uint64) error) error {
	lo, hi := sh.batchBounds(ps, j)
	switch used := len(ps.ctxDir[j]); {
	case ps.held == j:
		buf, ps.held = buf[:ps.heldLen], -1
	case ps.held >= 0:
		return &engineError{msg: fmt.Sprintf("batch %d is read over the held contexts of batch %d", j, ps.held)}
	case used > (hi-lo)*sh.muBlocks:
		return &engineError{msg: fmt.Sprintf("batch %d records %d context blocks for %d VPs of at most %d", j, used, hi-lo, sh.muBlocks)}
	default:
		buf = buf[:used*sh.cfg.B]
		if err := ps.moveContexts(ps.ctxDir[j], buf, false); err != nil {
			return err
		}
	}
	for id, pos := lo, 0; id < hi; id++ {
		if pos >= len(buf) || buf[pos] > uint64(len(buf)-pos-1) {
			return &engineError{msg: fmt.Sprintf("context record of VP %d runs past the %d words of batch %d", id, len(buf), j)}
		}
		n := int(buf[pos])
		if err := emit(id, buf[pos+1:pos+1+n]); err != nil {
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
// batch is held for superstep 0's first round. A replay of it
// (engine.Setup) starts from the allocator it found and rewrites every
// entry of the directory.
func (sh *simShape) writeInitialContexts(ps *procState) error {
	sp := sh.tr.Begin(obs.CatEngine, phSetup, ps.id, 0)
	defer sp.End()
	buf, grab, err := sh.grabCtx(ps, sh.k)
	if err != nil {
		return err
	}
	ps.ctxAt = 0
	for r := 0; r < sh.batches && err == nil; r++ {
		err = sh.saveContexts(ps, sh.batchAt(-1, r), -1, buf, sh.p.NewVP)
	}
	ps.acct.Release(grab - ps.heldGrab())
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
	buf, grab, err := sh.grabCtx(ps, sh.k)
	if err != nil {
		return nil, err
	}
	defer ps.acct.Release(grab)
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
		err := sh.loadContexts(ps, j, buf, func(id int, ctx []uint64) error {
			if !load {
				r.Ctx[id-ps.lo] = slices.Clone(ctx)
				return nil
			}
			vp := sh.p.NewVP(id)
			r.vps[id-ps.lo] = vp
			return bsp.SafeLoad(vp, words.NewDecoder(ctx), id, step)
		})
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

// beginStep resets the processor's superstep-scoped scratch: the send
// tally and the skipped batches, the outgoing directory (keyed by
// destination batch), the ops watermark, the block writer over the
// processor's operation buffer, the stream packer with no tail open, and
// under the checkpoint discipline the context generation to write.
func (sh *simShape) beginStep(ps *procState) {
	ps.sends, ps.ctxAt = 0, 0
	clear(ps.skipped)
	ps.dir = newOutDirectory(sh.batches, sh.cfg.D)
	ps.opsMark = ps.chain.Stats().Ops
	ps.writer = newBlockWriter(ps.chain, ps.dir, sh.batchOf, ps.rng, sh.opts.Deterministic, ps.down, &ps.stepBufs)
	ps.pack.reset(sh, ps.lo, ps.acct, &ps.stepBufs)
	if ps.ckptOn {
		ps.ctxWrite = make([][]disk.Addr, sh.batches)
	}
}

// fetchPkts is the packet count for w words combined into size-b
// packets on one channel.
func (sh *simShape) fetchPkts(w int64) int64 {
	return (w + int64(sh.rec.PktSize()) - 1) / int64(sh.rec.PktSize())
}

// batchIn is one batch's incoming message blocks: the block images
// concatenated in buf, their directory entries in metas, and the words
// held for them, which computeBatch releases when the batch is done.
type batchIn struct {
	buf   []uint64
	metas []blockMeta
	grab  int64
}

// opWords is one parallel operation's worth of blocks: the block
// writer's pending buffer, which a processor holds from its first fetch
// of a superstep (fetchBatch) to its last flush (flushBatch).
func (sh *simShape) opWords() int64 { return int64(sh.cfg.D * sh.cfg.B) }

// fetchBatch reads the blocks of batch j from the local disks into the
// processor's region buffer, from where the last writing phase left
// them. The first round sizes the region buffer for the superstep's
// largest batch at once, so that it does not grow again at every larger
// batch. On one processor the region is the batch's whole inbox, so
// the streams reassembled from it are sized with it; on more, the inbox
// is gathered from every processor and reassemble sizes them from it.
func (sh *simShape) fetchBatch(ps *procState, j, step int) (batchIn, error) {
	if sh.batchAt(step, j) == 0 {
		if err := ps.acct.Grab(sh.opWords()); err != nil {
			return batchIn{}, err
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
			if sh.cfg.P == 1 {
				grow(&ps.msgMem, n*sh.cfg.B)
			}
		}
	}
	if ps.inDir == nil {
		return batchIn{}, nil
	}
	return readScattered(ps.chain, ps.acct, &ps.stepBufs, ps.inDir.q[j])
}

// fetchForward is the fetching phase of a machine with an exchange:
// fetchBatch, then each block grouped under the processor simulating
// its destination VP. out is indexed by destination processor (self
// included); nwords counts the words per destination, of which the
// model charges those addressed to others. A nil out means the batch
// had no input. The images alias the processor's region buffer and out
// and nwords are its own rows: all are valid until its next fetching
// phase.
func (sh *simShape) fetchForward(ps *procState, j, step int) (out []BlockBatch, nwords []int64, err error) {
	sp := sh.tr.BeginStep(obs.CatEngine, phFetchMsg, ps.id, 0, step, j)
	defer sp.End()
	in, err := sh.fetchBatch(ps, j, step)
	if err != nil || in.metas == nil {
		return nil, nil, err
	}
	B := sh.cfg.B
	out, nwords = grow(&ps.fetched, sh.cfg.P), grow(&ps.nwords, sh.cfg.P)
	for o := range out {
		out[o].blocks, nwords[o] = out[o].blocks[:0], 0
	}
	for i, m := range in.metas {
		o := sh.owner(m.dst)
		out[o].blocks = append(out[o].blocks, wireBlock{meta: m, img: in.buf[i*B : (i+1)*B]})
		nwords[o] += int64(B)
	}
	ps.acct.Release(in.grab)
	return out, nwords, nil
}

// gather copies the blocks a processor received for its batch (one
// batch per source processor, self included) into its inbox buffer.
func (sh *simShape) gather(ps *procState, in []BlockBatch) (batchIn, error) {
	B := sh.cfg.B
	total := 0
	for _, b := range in {
		total += len(b.blocks)
	}
	grab := int64(total * B)
	if err := ps.acct.Grab(grab); err != nil {
		return batchIn{}, err
	}
	buf := fit(&ps.inbox, total*B)
	metas := grow(&ps.metas, total)[:0]
	for _, b := range in {
		for _, wb := range b.blocks {
			copy(buf[len(metas)*B:], wb.img)
			metas = append(metas, wb.meta)
		}
	}
	return batchIn{buf: buf, metas: metas, grab: grab}, nil
}

// BatchOut is one processor's output from a computing phase: the per-VP
// traffic records for the cost recorder (in VP order) and, on a machine
// with an exchange, the scattered packet blocks per destination
// processor with the off-processor packet/word tallies the
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

// computeBatch is the computing phase of a machine with an exchange:
// batch j is reassembled from the inbox (one batch per source processor,
// self included) and the blocks its generated messages fill are
// scattered to randomly chosen processors. Everything addressed to other
// processors is left in ps.out, which is the processor's own (its images
// alias the scatter slab) and valid until its next computing phase. The
// packet targets are one random stream per processor and superstep,
// which a replay of the superstep draws again; an empty batch scatters
// too, in the last round, where the open tails leave.
func (sh *simShape) computeBatch(ps *procState, j, step int, in []BlockBatch) error {
	ps.out.reset(sh.cfg.P)
	if sh.batchAt(step, j) == 0 {
		ps.pktRng.Seed(prng.Derive(sh.opts.Seed, 0x5CA7, uint64(ps.id), uint64(step)))
	}
	if lo, hi := sh.batchBounds(ps, j); lo == hi {
		total := 0
		for _, b := range in {
			total += len(b.blocks)
		}
		if total != 0 {
			return fmt.Errorf("core: processor %d received %d blocks for an empty batch %d", ps.id, total, j)
		}
		return sh.scatter(ps, j, step, nil)
	}
	return sh.simulateBatch(ps, j, step,
		func() (batchIn, error) { return sh.gather(ps, in) },
		func(outs []outMsg) error { return sh.scatter(ps, j, step, outs) })
}

// computeLocal is the whole round of a one-processor machine. With no
// other processor there is no exchange (Algorithm 1): batch j is
// reassembled straight from the region buffer its fetch filled, and its
// generated messages are packed straight into the block writer.
func (sh *simShape) computeLocal(ps *procState, j, step int) error {
	ps.out.reset(sh.cfg.P)
	return sh.simulateBatch(ps, j, step,
		func() (batchIn, error) { return sh.fetchBatch(ps, j, step) },
		func(outs []outMsg) error { return sh.writeLocal(ps, j, step, outs) })
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

// simulateBatch simulates the (non-empty) batch j of processor ps:
// reassemble the messages the driver's source delivers, load the k
// current VPs, run their computation supersteps, write their contexts
// back, and hand the generated messages to the driver's sink, which
// packs them into their cells' streams. Every VP of the batch is
// stepped, a sleeper with no input too (bsp.VP's sleep contract); the
// votes go to ps's sleep bits, the send tally to ps and the per-VP
// traffic records to ps.out. A batch of sleepers with no input is
// skipped: the sink still runs, with nothing, for the streams a last
// round closes.
func (sh *simShape) simulateBatch(ps *procState, j, step int, source func() (batchIn, error), sink func(outs []outMsg) error) error {
	lo, hi := sh.batchBounds(ps, j)
	n := hi - lo
	B := sh.cfg.B

	spMsg := sh.tr.BeginStep(obs.CatEngine, phFetchMsg, ps.id, 0, step, j)
	in, err := source()
	if err != nil {
		return err
	}
	if sh.skips(ps, j, step, len(in.metas) == 0) {
		spMsg.End()
		ps.skipped[j] = true
		ps.ctxWrite[j] = ps.ctxDir[j] // in place they are one table
		sh.prefetchNext(ps, j, step)
		return sink(nil)
	}
	inbox, err := sh.reassemble(in.buf, in.metas, lo, hi, &ps.stepBufs)
	if err != nil {
		return err
	}
	spMsg.End()

	// Contexts of the current k VPs, decoded into the words they were
	// loaded as: the held records, or the blocks the directory lists.
	spFetch := sh.tr.BeginStep(obs.CatEngine, phFetchCtx, ps.id, 0, step, j)
	ctxBuf, ctxGrab, err := sh.grabCtx(ps, n)
	if err != nil {
		return err
	}
	loaded := len(ps.ctxDir[j]) * B
	if ps.held == j {
		loaded = ps.heldLen
	}
	ps.arena.Reset(fit(&ps.vpMem, min(loaded, len(ctxBuf))))
	// Each context is Loaded into its slot's VP object, which NewVP made
	// once, for the first VP the slot held (bsp.VP's contract).
	vps := grow(&ps.vps, n)
	err = sh.loadContexts(ps, j, ctxBuf, func(id int, ctx []uint64) error {
		if vps[id-lo] == nil {
			vps[id-lo] = sh.p.NewVP(id)
		}
		ps.dec.Reset(ctx, &ps.arena)
		return bsp.SafeLoad(vps[id-lo], &ps.dec, id, step)
	})
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
	// is copied once, into the processor's Env, where it stays until the
	// sink has packed it.
	outs := ps.msgs[:0]
	ps.env.ClearSent()
	var outWords int64
	var id, seq, sendPkts int
	emit := func(dst int, payload []uint64) {
		outs = append(outs, outMsg{dst: dst, src: id, seq: seq, payload: payload})
		seq++
		sendPkts += sh.rec.MsgPkts(len(payload) + 1)
		outWords += int64(len(payload) + 1)
	}
	for i := 0; i < n; i++ {
		id, seq, sendPkts = lo+i, 0, 0
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
		env.Reset(id, sh.v, step, sh.opts.Seed, emit)
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
			SendPkts: sendPkts, RecvPkts: recvPkts,
			Messages: msgs, Charge: charge,
		})
	}
	spComp.End()

	// Write contexts back.
	spCtx := sh.tr.BeginStep(obs.CatEngine, phWriteCtx, ps.id, 0, step, j)
	if err := sh.saveContexts(ps, j, step, ctxBuf, func(id int) bsp.VP { return vps[id-lo] }); err != nil {
		return err
	}
	ps.acct.Release(ctxGrab - ps.heldGrab())
	spCtx.End()

	if err := ps.acct.Grab(outWords); err != nil {
		return err
	}
	if err := sink(outs); err != nil {
		return err
	}
	ps.msgs = outs
	ps.acct.Release(outWords)
	ps.acct.Release(in.grab)
	return nil
}

// scatter is the exchange's sink: append the batch's messages to the
// processor's streams (and in its last round close them), group the
// blocks that leave — ⌊b/B⌋ consecutive blocks of one stream — into
// packets, and send every packet to a uniformly random processor (the
// paper's disk-load balancing step). In deterministic (CGM) mode a
// packet goes straight to a rotation determined by its stream's identity
// and its place in the stream, which is balanced for predetermined
// communication.
func (sh *simShape) scatter(ps *procState, j, step int, outs []outMsg) error {
	sp := sh.tr.BeginStep(obs.CatEngine, phScatter, ps.id, 0, step, j)
	defer sp.End()
	B, P := sh.cfg.B, sh.cfg.P
	bo := &ps.out
	last := sh.batchAt(step, j) == sh.batches-1
	words, cells := sh.sortByCell(outs)
	slab := fit(&ps.slab, ps.pack.maxBlocks(words, cells, last)*B)
	var run blockMeta
	pktLeft, target := 0, 0
	emit := func(meta blockMeta, img []uint64) error {
		if pktLeft == 0 || meta.dst != run.dst || meta.seq != run.seq {
			if sh.opts.Deterministic {
				target = (meta.dst + meta.src + meta.seq + meta.chunk/sh.pktBlk) % P
			} else {
				target = ps.pktRng.Intn(P)
			}
			run, pktLeft = meta, sh.pktBlk
			if target != ps.id {
				bo.Pkts[target]++
			}
		}
		pktLeft--
		cp := slab[:B:B]
		slab = slab[B:]
		copy(cp, img)
		bo.Scatter[target].blocks = append(bo.Scatter[target].blocks, wireBlock{meta: meta, img: cp})
		if target != ps.id {
			bo.Wrds[target] += int64(B)
		}
		return nil
	}
	if err := ps.pack.add(outs, emit); err != nil || !last {
		return err
	}
	return ps.pack.close(emit)
}

// writeLocal is the one-processor sink, Step 1(d) of Algorithm 1: append
// the batch's messages to the processor's streams, whose blocks leave
// straight into the block writer, and in the last round close them.
func (sh *simShape) writeLocal(ps *procState, j, step int, outs []outMsg) error {
	sp := sh.tr.BeginStep(obs.CatEngine, phWriteMsg, ps.id, 0, step, j)
	defer sp.End()
	sh.sortByCell(outs)
	if err := ps.pack.add(outs, ps.writer.add); err != nil {
		return err
	}
	if sh.batchAt(step, j) == sh.batches-1 {
		if err := ps.pack.close(ps.writer.add); err != nil {
			return err
		}
	}
	return sh.flushBatch(ps, j, step)
}

// receiveWrite is the writing phase of a machine with an exchange: the
// scattered packets this processor received for batch j (one batch per
// source processor, self included) go to its local disks, D blocks per
// parallel operation under a random drive permutation, maintaining the
// directory.
func (sh *simShape) receiveWrite(ps *procState, j, step int, in []BlockBatch) error {
	sp := sh.tr.BeginStep(obs.CatEngine, phWriteMsg, ps.id, 0, step, j)
	defer sp.End()
	for _, b := range in {
		for _, wb := range b.blocks {
			if err := ps.writer.add(wb.meta, wb.img); err != nil {
				return err
			}
		}
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
// contexts keep their tracks beside its input.
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
		ps.inDir = ps.dir
		ps.maxSkew = max(ps.maxSkew, ps.dir.skew())
	}
	ps.ctxDir = ps.ctxWrite
	return nil
}
