package core

import (
	"fmt"
	"path/filepath"

	"embsp/internal/bsp"
	"embsp/internal/disk"
	"embsp/internal/mem"
	"embsp/internal/obs"
	"embsp/internal/prng"
	"embsp/internal/words"
)

// This file is the per-node extraction of the parallel engine: every
// phase of Algorithm 3 that touches exactly one real processor's state
// lives here as a method on simShape, taking the processor's procState
// plus explicit inbox/outbox slices instead of the engine's shared
// exchange matrices. Two drivers run these phases:
//
//   - parEngine (par.go) keeps all p processors in one address space
//     and exchanges blocks through in-memory matrices — the reference
//     oracle;
//   - NodeEngine (cluster.go) wraps a single processor for the
//     multi-process cluster runtime, which exchanges the same blocks
//     over the wire.
//
// The phase bodies are shared verbatim, so the two runtimes are
// bitwise-identical by construction wherever the same (config,
// options, program) tuple is presented.

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
	muBlocks int
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
		muBlocks: (mu + cfg.B - 1) / cfg.B,
		pktBlk:   maxInt(1, cfg.Cost.Pkt/cfg.B),
		rec:      bsp.NewCostRecorder(cfg.Cost.Pkt),
		tr:       opts.Trace,
	}
}

// owner returns the real processor owning VP id.
func (sh *simShape) owner(id int) int { return id / sh.vpp }

// batchOf returns the batch (round index) in which VP id is simulated.
func (sh *simShape) batchOf(id int) int { return (id % sh.vpp) / sh.k }

// bucketKey maps a block to its bucket: each bucket covers
// ⌈batches/D⌉ consecutive batches, as Algorithm 3 prescribes.
func (sh *simShape) bucketKey(m blockMeta) int {
	per := (sh.batches + sh.cfg.D - 1) / sh.cfg.D
	return sh.batchOf(m.dst) / per
}

// batchBounds returns the VP range [lo, hi) of processor ps in round j.
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

// newProcState builds processor i's state: VP range, accountant,
// per-processor RNG, and the store chain (file-backed under dir, or
// in-memory when dir is empty).
func (sh *simShape) newProcState(i int, dir string, resume bool) (*procState, error) {
	lo := i * sh.vpp
	hi := lo + sh.vpp
	if lo > sh.v {
		lo = sh.v
	}
	if hi > sh.v {
		hi = sh.v
	}
	ps := &procState{
		id: i, lo: lo, hi: hi,
		acct: mem.NewAccountant(engineMemLimit(sh.cfg, sh.k, sh.mu, sh.gamma)),
		rng:  prng.New(prng.Derive(sh.opts.Seed, 0xFA12, uint64(i))),
	}
	var err error
	if ps.storeStack, err = openStack(dir, sh.cfg, sh.opts, resume, sh.k, sh.mu, sh.gamma, i); err != nil {
		return nil, err
	}
	return ps, nil
}

// procDir is the per-processor drive directory under a state root.
func procDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("proc-%02d", i))
}

// setupReserve reserves the processor's context area(s).
func (sh *simShape) setupReserve(ps *procState) {
	ps.ctxAreas[0] = disk.Reserve(ps.dsk, ps.ownCount()*sh.muBlocks)
	if ps.ckptOn {
		ps.ctxAreas[1] = disk.Reserve(ps.dsk, ps.ownCount()*sh.muBlocks)
	}
	ps.noteLive(sh.muBlocks, 0)
}

func (sh *simShape) writeInitialContexts(ps *procState) error {
	if ps.ownCount() == 0 {
		return nil
	}
	bufWords := sh.k * sh.muBlocks * sh.cfg.B
	if err := ps.acct.Grab(int64(bufWords)); err != nil {
		return err
	}
	defer ps.acct.Release(int64(bufWords))
	buf := fit(&ps.ctx, bufWords)
	enc := words.NewEncoder(nil)
	for j := 0; j < sh.batches; j++ {
		lo, hi := sh.batchBounds(ps, j)
		if lo == hi {
			continue
		}
		clear(buf[:(hi-lo)*sh.muBlocks*sh.cfg.B])
		for id := lo; id < hi; id++ {
			enc.Reset()
			sh.p.NewVP(id).Save(enc)
			if enc.Len() > sh.mu {
				return fmt.Errorf("core: VP %d initial context is %d words, exceeding µ=%d", id, enc.Len(), sh.mu)
			}
			copy(buf[(id-lo)*sh.muBlocks*sh.cfg.B:], enc.Words())
		}
		cl, ch := (lo-ps.lo)*sh.muBlocks, (hi-ps.lo)*sh.muBlocks
		if err := disk.WriteRange(ps.dsk, ps.ctxRead(), cl, ch, buf[:(hi-lo)*sh.muBlocks*sh.cfg.B]); err != nil {
			return err
		}
	}
	return nil
}

// readFinalContexts streams the committed context words of every owned
// VP to emit in VP order. The slice passed to emit aliases an internal
// buffer; emit must consume or copy it before returning.
func (sh *simShape) readFinalContexts(ps *procState, emit func(id int, ctx []uint64) error) error {
	if ps.ownCount() == 0 {
		return nil
	}
	bufWords := sh.k * sh.muBlocks * sh.cfg.B
	if err := ps.acct.Grab(int64(bufWords)); err != nil {
		return err
	}
	defer ps.acct.Release(int64(bufWords))
	buf := fit(&ps.ctx, bufWords)
	for j := 0; j < sh.batches; j++ {
		lo, hi := sh.batchBounds(ps, j)
		if lo == hi {
			continue
		}
		cl, ch := (lo-ps.lo)*sh.muBlocks, (hi-ps.lo)*sh.muBlocks
		if err := disk.ReadRange(ps.dsk, ps.ctxRead(), cl, ch, buf[:(hi-lo)*sh.muBlocks*sh.cfg.B]); err != nil {
			return err
		}
		for id := lo; id < hi; id++ {
			if err := emit(id, buf[(id-lo)*sh.muBlocks*sh.cfg.B:(id-lo+1)*sh.muBlocks*sh.cfg.B]); err != nil {
				return err
			}
		}
	}
	return nil
}

// beginStep resets the processor's superstep-scoped scratch: halt/send
// tallies, the outgoing bucket directory, the ops watermark, and the
// block writer over the processor's operation buffer.
func (sh *simShape) beginStep(ps *procState) {
	ps.halts, ps.sends = 0, 0
	ps.dir = newOutDirectory(sh.cfg.D, sh.cfg.D)
	ps.opsMark = ps.dsk.Stats().Ops
	var down func(int) bool
	if ps.fd != nil {
		down = ps.fd.Down
	}
	ps.writer = newBlockWriter(ps.dsk, ps.dir, sh.bucketKey, ps.rng, sh.opts.Deterministic, down, &ps.stepBufs)
}

// fetchPkts is the packet count for w words combined into size-b
// packets on one channel.
func (sh *simShape) fetchPkts(w int64) int64 {
	return (w + int64(sh.rec.PktSize()) - 1) / int64(sh.rec.PktSize())
}

// fetchForward reads the blocks of batch j from the local disks and
// groups each under the processor simulating its destination VP. out
// is indexed by destination processor (self included); nwords counts
// the words per destination. A nil out means the batch had no input.
// The images alias the processor's region buffer and out and nwords are
// its own rows: all are valid until its next fetching phase.
func (sh *simShape) fetchForward(ps *procState, j int) (out [][]wireBlock, nwords []int64, err error) {
	var regions []groupRegion
	if j < len(ps.inRegions) {
		regions = ps.inRegions[j]
	}
	buf, metas, grabbed, err := readRegions(ps.dsk, ps.acct, &ps.stepBufs, regions)
	if err != nil || metas == nil {
		return nil, nil, err
	}
	B := sh.cfg.B
	out, nwords = grow(&ps.fetched, sh.cfg.P), grow(&ps.nwords, sh.cfg.P)
	for o := range out {
		out[o], nwords[o] = out[o][:0], 0
	}
	for i, m := range metas {
		o := sh.owner(m.dst)
		out[o] = append(out[o], wireBlock{meta: m, img: buf[i*B : (i+1)*B]})
		nwords[o] += int64(B)
	}
	ps.acct.Release(grabbed)
	return out, nwords, nil
}

// batchOut is one processor's output from a computing phase: the
// scattered packet blocks per destination processor, the off-processor
// packet/word tallies the communication model charges, and the per-VP
// traffic records for the cost recorder (in VP order).
type batchOut struct {
	scatter [][]wireBlock
	pkts    []int64
	wrds    []int64
	traffic []bsp.VPTraffic
}

// reset empties the output for the next batch of a P-processor machine.
func (bo *batchOut) reset(P int) {
	grow(&bo.scatter, P)
	grow(&bo.pkts, P)
	grow(&bo.wrds, P)
	for t := range bo.scatter {
		bo.scatter[t], bo.pkts[t], bo.wrds[t] = bo.scatter[t][:0], 0, 0
	}
	bo.traffic = bo.traffic[:0]
}

// computeBatch reassembles the batch's messages from the inbox (one
// slice per source processor, self included), simulates the k current
// VPs, and scatters the generated messages — as packets of ⌊b/B⌋
// blocks — to randomly chosen processors. Halt and send tallies
// accumulate on ps; everything addressed to other processors is
// returned in the batchOut, which is the processor's own (its images
// alias the scatter slab) and valid until its next computing phase.
func (sh *simShape) computeBatch(ps *procState, j, step int, in [][]wireBlock) (*batchOut, error) {
	lo, hi := sh.batchBounds(ps, j)
	n := hi - lo
	B := sh.cfg.B
	P := sh.cfg.P

	bo := &ps.out
	bo.reset(P)

	// Gather the wire blocks addressed to this processor.
	var total int
	for src := 0; src < P; src++ {
		total += len(in[src])
	}
	if n == 0 {
		if total != 0 {
			return nil, fmt.Errorf("core: processor %d received %d blocks for an empty batch %d", ps.id, total, j)
		}
		return bo, nil
	}
	spMsg := sh.tr.BeginStep(obs.CatEngine, phFetchMsg, ps.id, 0, step, j)
	inGrab := int64(total * B)
	if err := ps.acct.Grab(inGrab); err != nil {
		return nil, err
	}
	buf := fit(&ps.inbox, total*B)
	metas := grow(&ps.metas, total)[:0]
	for src := 0; src < P; src++ {
		for _, wb := range in[src] {
			copy(buf[len(metas)*B:], wb.img)
			metas = append(metas, wb.meta)
		}
	}
	var inbox [][]bsp.Message
	var err error
	if total == 0 {
		inbox = make([][]bsp.Message, n)
	} else {
		inbox, err = reassemble(buf, metas, B, lo, hi)
		if err != nil {
			return nil, err
		}
	}
	spMsg.End()

	// Contexts of the current k VPs.
	spFetch := sh.tr.BeginStep(obs.CatEngine, phFetchCtx, ps.id, 0, step, j)
	ctxWords := n * sh.muBlocks * B
	if err := ps.acct.Grab(int64(ctxWords)); err != nil {
		return nil, err
	}
	ctxBuf := fit(&ps.ctx, ctxWords)
	cl, ch := (lo-ps.lo)*sh.muBlocks, (hi-ps.lo)*sh.muBlocks
	if err := disk.ReadRange(ps.dsk, ps.ctxRead(), cl, ch, ctxBuf); err != nil {
		return nil, err
	}
	vps := make([]bsp.VP, n)
	for i := 0; i < n; i++ {
		vps[i] = sh.p.NewVP(lo + i)
		vps[i].Load(words.NewDecoder(ctxBuf[i*sh.muBlocks*B : (i+1)*sh.muBlocks*B]))
	}
	spFetch.End()

	// The compute span also covers the pipeline's prefetch hint, so
	// the engine phases tile this processor's lane with no gap.
	spComp := sh.tr.BeginStep(obs.CatEngine, phCompute, ps.id, 0, step, j)

	// Group pipeline: stage batch j+1's context and message blocks
	// into the local store's physical cache while this batch computes
	// (purely physical, no accounting — see pipeline.go).
	if ps.pf != nil && j+1 < sh.batches {
		ps.pf.Prefetch(sh.prefetchBatch(ps, j+1))
	}

	// Simulate the computation supersteps.
	var outs []outMsg
	var outWords int64
	outBlocks := 0
	for i := 0; i < n; i++ {
		id := lo + i
		recvWords, recvPkts := 0, 0
		for _, m := range inbox[i] {
			w := len(m.Payload) + 1
			recvWords += w
			recvPkts += sh.rec.MsgPkts(w)
		}
		if recvWords > sh.gamma {
			return nil, fmt.Errorf("core: VP %d received %d words in superstep %d, exceeding γ=%d", id, recvWords, step, sh.gamma)
		}
		seq := 0
		sendPkts := 0
		env := bsp.NewEnv(id, sh.v, step, sh.opts.Seed, func(dst int, payload []uint64) {
			outs = append(outs, outMsg{dst: dst, src: id, seq: seq, payload: payload})
			seq++
			sendPkts += sh.rec.MsgPkts(len(payload) + 1)
			outWords += int64(len(payload) + 1)
			outBlocks += numChunks(len(payload), B)
		})
		halt, err := bsp.SafeStep(vps[i], env, inbox[i])
		if err != nil {
			return nil, fmt.Errorf("core: VP %d superstep %d: %w", id, step, err)
		}
		sw, msgs, charge := env.SendTotals()
		if sw > sh.gamma {
			return nil, fmt.Errorf("core: VP %d sent %d words in superstep %d, exceeding γ=%d", id, sw, step, sh.gamma)
		}
		if halt {
			ps.halts++
		}
		ps.sends += msgs
		bo.traffic = append(bo.traffic, bsp.VPTraffic{
			SendWords: sw, RecvWords: recvWords,
			SendPkts: sendPkts, RecvPkts: recvPkts,
			Messages: msgs, Charge: charge,
		})
	}
	spComp.End()

	// Write contexts back.
	spCtx := sh.tr.BeginStep(obs.CatEngine, phWriteCtx, ps.id, 0, step, j)
	clear(ctxBuf)
	enc := words.NewEncoder(nil)
	for i := 0; i < n; i++ {
		enc.Reset()
		vps[i].Save(enc)
		if enc.Len() > sh.mu {
			return nil, fmt.Errorf("core: VP %d context is %d words after superstep %d, exceeding µ=%d", lo+i, enc.Len(), step, sh.mu)
		}
		copy(ctxBuf[i*sh.muBlocks*B:], enc.Words())
	}
	if err := disk.WriteRange(ps.dsk, ps.ctxWrite(), cl, ch, ctxBuf); err != nil {
		return nil, err
	}
	ps.acct.Release(int64(ctxWords))
	spCtx.End()

	spScatter := sh.tr.BeginStep(obs.CatEngine, phScatter, ps.id, 0, step, j)
	// Scatter: cut each message into blocks, group ⌊b/B⌋ consecutive
	// blocks of one message into a packet, and send every packet to a
	// uniformly random processor. In deterministic (CGM) mode the
	// packet goes straight to a rotation determined by its message
	// identity, which is balanced for predetermined communication.
	if err := ps.acct.Grab(outWords); err != nil {
		return nil, err
	}
	rng := prng.New(prng.Derive(sh.opts.Seed, 0x5CA7, uint64(ps.id), uint64(step)))
	slab, scratch := fit(&ps.slab, outBlocks*B), fit(&ps.scratch, B)
	for _, m := range outs {
		pktLeft := 0
		target := 0
		npkt := 0
		err := cutMessage(m, B, scratch, func(meta blockMeta, img []uint64) error {
			if pktLeft == 0 {
				if sh.opts.Deterministic {
					target = (meta.dst + meta.src + npkt) % P
				} else {
					target = rng.Intn(P)
				}
				npkt++
				pktLeft = sh.pktBlk
				if target != ps.id {
					bo.pkts[target]++
				}
			}
			pktLeft--
			cp := slab[:B:B]
			slab = slab[B:]
			copy(cp, img)
			bo.scatter[target] = append(bo.scatter[target], wireBlock{meta: meta, img: cp})
			if target != ps.id {
				bo.wrds[target] += int64(B)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	ps.acct.Release(outWords)
	ps.acct.Release(inGrab)
	spScatter.End()
	return bo, nil
}

// receiveWrite writes the scattered packets this processor received
// (one slice per source processor, self included) to its local disks,
// D blocks per parallel operation under a random drive permutation,
// maintaining the bucket directory.
func (sh *simShape) receiveWrite(ps *procState, in [][]wireBlock) error {
	for src := 0; src < sh.cfg.P; src++ {
		for _, wb := range in[src] {
			if err := ps.writer.add(wb.meta, wb.img); err != nil {
				return err
			}
		}
	}
	return ps.writer.flush()
}

// routeLocal is Step 2 of Algorithm 3: reorganize this processor's
// received blocks so each batch is evenly distributed over the local
// disks in standard consecutive format. In normal operation the result
// is installed immediately; under the checkpoint discipline it is
// parked until the engine-level barrier commit, because a fault on
// another processor (or a crash before the journal record lands) can
// still roll this superstep back.
func (sh *simShape) routeLocal(ps *procState) error {
	if !ps.ckptOn {
		for _, ar := range ps.inAreas {
			if err := disk.FreeArea(ps.dsk, ar); err != nil {
				return err
			}
		}
	}
	ps.noteLive(sh.muBlocks, ps.inBlocks+ps.dir.total)
	route, err := simulateRouting(ps.dsk, ps.acct, &ps.stepBufs, ps.dir, func(m blockMeta) int { return sh.batchOf(m.dst) }, sh.batches)
	if err != nil {
		return err
	}
	if ps.ckptOn {
		ps.pendingRoute = route
		return nil
	}
	ps.routeOps += route.stats.ops
	ps.ragged += route.stats.ragged
	if route.stats.maxSkew > ps.maxSkew {
		ps.maxSkew = route.stats.maxSkew
	}
	ps.inRegions, ps.inAreas, ps.inBlocks = route.regions, route.areas, route.total
	ps.noteLive(sh.muBlocks, route.total)
	return nil
}

// commitProc is the processor's share of the barrier commit: free the
// consumed input areas, install the parked routing result, and flip
// the context double buffer.
func (sh *simShape) commitProc(ps *procState) error {
	if ps.pendingRoute != nil {
		for _, ar := range ps.inAreas {
			if err := disk.FreeArea(ps.dsk, ar); err != nil {
				return err
			}
		}
		route := ps.pendingRoute
		ps.pendingRoute = nil
		ps.routeOps += route.stats.ops
		ps.ragged += route.stats.ragged
		if route.stats.maxSkew > ps.maxSkew {
			ps.maxSkew = route.stats.maxSkew
		}
		ps.inRegions, ps.inAreas, ps.inBlocks = route.regions, route.areas, route.total
		ps.noteLive(sh.muBlocks, route.total)
	}
	ps.ctxCur ^= 1
	return nil
}

// superstepCommCosts folds one superstep's exchange matrices into the
// model's communication charges: the off-diagonal packet and word
// totals, and the superstep communication time max(L, g·max_i(sent_i +
// received_i packets)). Shared by the in-process driver and the
// cluster coordinator so both charge bitwise-identical costs.
func superstepCommCosts(cfg MachineConfig, pktX, wordX [][]int64) (ct float64, pkts, wrds int64) {
	P := cfg.P
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
