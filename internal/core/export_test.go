package core

import (
	"context"
	"errors"
	"reflect"
	"slices"

	"embsp/internal/bsp"
	"embsp/internal/disk"
	"embsp/internal/fault"
	"embsp/internal/redundancy"
	"embsp/internal/words"
)

// CanaryWord is the word the test binary poisons reused buffers with.
const CanaryWord = canaryWord

// RunOver is Run with the engine's in-memory Transport wrapped by wrap,
// so a test can watch — or fail — the driver's calls.
func RunOver(wrap func(Transport) Transport, p bsp.Program, cfg MachineConfig, opts Options) (*Result, error) {
	return RunOverContext(context.Background(), wrap, p, cfg, opts)
}

// RunOverContext is RunOver under ctx, which the engine checks at every
// superstep barrier.
func RunOverContext(ctx context.Context, wrap func(Transport) Transport, p bsp.Program, cfg MachineConfig, opts Options) (*Result, error) {
	e, d := newEngine(ctx, p, cfg, opts)
	d.t = wrap(e)
	return e.run(d)
}

// procs are the processors of the engine RunOver hands to wrap.
func procs(t Transport) (ps []*procState) {
	for _, n := range t.(*engine).nodes {
		ps = append(ps, n.ps)
	}
	return ps
}

// MessageBlocks counts, on the engine RunOver hands to wrap, the message
// blocks the open superstep's writing phases have left in the
// processors' directories, and the streams its senders' packers wrote.
func MessageBlocks(t Transport) (blocks, streams int) {
	for _, ps := range procs(t) {
		for _, perDrive := range ps.dir.q {
			for _, refs := range perDrive {
				blocks += len(refs)
			}
		}
		for _, tl := range ps.pack.tails {
			streams += tl.seq
		}
	}
	return blocks, streams
}

// JoinedTails counts, on the engine RunOver hands to wrap, the tails that
// batch j's writing phase, about to be handed outs, will write into
// another tail's shared block: it packs, as receiveWrite will, each
// processor's own held tails and the delivered ones that may share,
// into scratch images.
func JoinedTails(t Transport, j, step int, outs []*BatchOut) (joined int) {
	e := t.(*engine)
	if e.batchAt(step, j) != e.batches-1 {
		return 0
	}
	img := make([]uint64, e.cfg.B)
	for _, ps := range procs(t) {
		tails := slices.Clone(ps.lastTails)
		for _, bo := range outs {
			for _, wb := range bo.Scatter[ps.id].blocks {
				if shares(wb.img) {
					tails = append(tails, wb)
				}
			}
		}
		joined += len(tails)
		shareTails(tails, new(stepBufs), func() []uint64 { return img }, func(blockMeta) error { joined--; return nil }) //nolint:errcheck // emit never fails
	}
	return joined
}

// Scattered lists, for every block one computing phase's output sends
// another processor, the first VP of its destination cell and the
// processor it is sent to.
func Scattered(bo *BatchOut) (dsts, targets []int) {
	for target, b := range bo.Scatter {
		for _, wb := range b.blocks {
			dsts, targets = append(dsts, wb.meta.dst), append(targets, target)
		}
	}
	return dsts, targets
}

// Tails reports, on the engine RunOver hands to wrap, each processor's
// open stream tails and the most it may hold open: its packer's slots.
func Tails(t Transport) (open, slots []int) {
	for _, ps := range procs(t) {
		open, slots = append(open, ps.pack.open), append(slots, len(ps.pack.slots))
	}
	return open, slots
}

// LoadBatch Loads ctx, batch j's context records (each a length word,
// then the context), into processor 0's slot objects as a batch's load
// does, from the arena it sizes, and returns the slot objects.
func LoadBatch(t Transport, j int, ctx []uint64) ([]bsp.VP, error) {
	n := t.(*engine).nodes[0]
	return n.sh.loadBatch(n.ps, j, 0, ctx)
}

// CtxBuffers reports, on the engine RunOver hands to wrap, each
// processor's context buffer: the first word of its backing array (nil
// before it has one) and its capacity in words.
func CtxBuffers(t Transport) (addrs []*uint64, caps []int) {
	for _, ps := range procs(t) {
		var a *uint64
		if cap(ps.ctx) > 0 {
			a = &ps.ctx[:1][0]
		}
		addrs, caps = append(addrs, a), append(caps, cap(ps.ctx))
	}
	return addrs, caps
}

// VPMemBuffers reports, like CtxBuffers, each processor's buffer of the
// words its batch's VPs decode (stepBufs.vpMem).
func VPMemBuffers(t Transport) (addrs []*uint64, caps []int) {
	for _, ps := range procs(t) {
		var a *uint64
		if cap(ps.vpMem) > 0 {
			a = &ps.vpMem[:1][0]
		}
		addrs, caps = append(addrs, a), append(caps, cap(ps.vpMem))
	}
	return addrs, caps
}

// EvictedStreams counts the streams of the open superstep that an
// eviction started: past the first a sender wrote a cell.
func EvictedStreams(t Transport) (n int) {
	for _, ps := range procs(t) {
		for _, tl := range ps.pack.tails {
			n += max(tl.seq-1, 0)
		}
	}
	return n
}

// MemLimit is the engine's internal-memory budget for a processor of cfg
// simulating batches of k VPs.
func MemLimit(cfg MachineConfig, k, mu, gamma int) int64 { return engineMemLimit(cfg, k, mu, gamma) }

// ContextOps is the number of parallel operations it takes to write —
// or to read back — the contexts the open superstep has saved so far:
// over processors and batches, ⌈used/D⌉ for the tracks the batch's
// packed records fill in the generation being written. A skipped batch's
// entry, which the generation carries over, was not written.
func ContextOps(t Transport) (ops int) {
	e := t.(*engine)
	for _, ps := range procs(t) {
		for j, tracks := range ps.ctxWrite {
			if !ps.skipped[j] {
				ops += (len(tracks) + e.cfg.D - 1) / e.cfg.D
			}
		}
	}
	return ops
}

// DriveClock is, on the engine RunOver hands to wrap, the fault layer's
// attempt clock of one drive of one processor: what a plan's FailDriveOp
// is measured on, so a test can aim a drive death at a superstep of the
// run as it is, whatever the engine's counts have become.
func DriveClock(t Transport, proc, drive int) int64 {
	return disk.Find[*fault.Disk](procs(t)[proc].chain).Clock(drive)
}

// DeadDriveLoad reads, from the journaled form of one processor's
// redundancy layer, what a dead drive still holds at a barrier: striped
// members and parity tracks (or copies); and whether the fault layer has
// killed the drive at all.
func DeadDriveLoad(t Transport, proc, drive int) (members, parity int, down bool) {
	chain := procs(t)[proc].chain
	red := disk.Find[*redundancy.Store](chain)
	enc := words.NewEncoder(nil)
	red.EncodeState(enc)
	dec := words.NewDecoder(enc.Words())
	D := int(dec.Int())
	for d := 0; d < D; d++ {
		dec.Bool()
	}
	dec.Int()
	dec.Ints()
	for n := dec.Int(); n > 0; n-- {
		dec.Int()
		if pd := int(dec.Int()); dec.Int() >= 0 && pd == drive {
			parity++
		}
		for d := 0; d < D; d++ {
			if tr := int(dec.Int()); tr >= 0 && d == drive {
				members++
			}
		}
	}
	return members, parity, disk.Find[*fault.Disk](chain).Down(drive)
}

// ForgeInputTrack rewrites one track of processor 0's unrouted input to
// lie beyond every allocator's mark, as a damaged or forged journal
// record might name it; it reports whether there was a block to forge.
func ForgeInputTrack(t Transport) bool {
	ps := procs(t)[0]
	if ps.inDir == nil {
		return false
	}
	for _, perDrive := range ps.inDir.q {
		for _, refs := range perDrive {
			if len(refs) > 0 {
				refs[0].track = 1 << 40
				return true
			}
		}
	}
	return false
}

// IsEngineError reports whether err is the engine's typed refusal.
func IsEngineError(err error) bool {
	var ee *engineError
	return errors.As(err, &ee)
}

// Placement is what one processor's block writer left the next fetch to
// pay in the open superstep, a batch's contexts and messages together:
// Scattered, the sum over batches of the fullest drive's share; Ideal,
// Σ_g⌈R_g/L⌉ over the L live drives; Multi, the batches holding two
// blocks or more; Worst, the furthest a batch lies above its own ideal;
// and Floor, the least Algorithm 1 could have cost to read the same
// batches had Algorithm 2 routed their messages first, and their
// contexts been read apart.
type Placement struct{ Scattered, Ideal, Multi, Worst, Floor int }

// PlacementCosts reads every processor's Placement.
func PlacementCosts(t Transport) (ps []Placement) {
	for _, proc := range procs(t) {
		D := len(proc.dir.q[0])
		L, load, p := D, make([]int, D), Placement{}
		for d := 0; d < D; d++ {
			if proc.down != nil && proc.down(d) {
				L--
			}
		}
		for g, perDrive := range proc.dir.q {
			// The batch's next fetch reads its messages and the contexts
			// the generation lists: those the superstep wrote, or those
			// a skip carried over.
			ctx := make([]int, D)
			for _, a := range proc.ctxWrite[g] {
				ctx[a.Disk]++
			}
			fullest, Rg, Mg := 0, 0, 0
			for d, refs := range perDrive {
				n := len(refs) + ctx[d]
				fullest, Rg, Mg, load[d] = max(fullest, n), Rg+n, Mg+len(refs), load[d]+len(refs)
			}
			p.Scattered, p.Ideal, p.Worst = p.Scattered+fullest, p.Ideal+(Rg+L-1)/L, max(p.Worst, fullest-(Rg+L-1)/L)
			if Rg >= 2 {
				p.Multi++
			}
			// Routed, the batch's messages are read in ⌈M_g/D⌉
			// operations, after Step 1 moved every block (at least the
			// fullest drive's load, at least ⌈M/D⌉ moves) and Step 2's
			// ⌈M/D⌉ moves, two operations a move; its contexts in
			// ⌈C_g/L⌉ more, from the live drives.
			p.Floor += (Mg+D-1)/D + (Rg-Mg+L-1)/L
		}
		even := (proc.dir.total + D - 1) / D
		p.Floor += 2*max(even, slices.Max(load)) + 2*even
		ps = append(ps, p)
	}
	return ps
}

// AllocatorMarks returns, per processor of the engine RunOver hands to
// wrap, its drives' bump marks: the tracks each drive file holds.
func AllocatorMarks(t Transport) [][]int {
	var marks [][]int
	for _, ps := range procs(t) {
		marks = append(marks, ps.chain.State().Next)
	}
	return marks
}

// Holdings is what one processor holds at a barrier: on disk, the tracks
// of its current contexts per batch, the blocks of its next input, and the
// tracks its allocator has handed out and not got back; in internal
// memory, the batch whose records it holds (-1: none) and their words;
// and the batches the superstep the barrier ends skipped.
type Holdings struct {
	Contexts         []int
	Input, Allocated int
	Held, HeldWords  int
	Skipped          []int
}

// HoldingsOf reports every processor's holdings.
func HoldingsOf(t Transport) []Holdings {
	var hs []Holdings
	for _, ps := range procs(t) {
		h := Holdings{Held: ps.held, HeldWords: ps.heldLen}
		if ps.inDir != nil {
			h.Input = ps.inDir.total
		}
		for j, tracks := range ps.ctxDir {
			h.Contexts = append(h.Contexts, len(tracks))
			if ps.skipped[j] {
				h.Skipped = append(h.Skipped, j)
			}
		}
		st := ps.chain.State()
		for d := range st.Next {
			h.Allocated += st.Next[d] - len(st.Free[d])
		}
		hs = append(hs, h)
	}
	return hs
}

// Replays is the replay count of the run the engine is in, so far.
func Replays(t Transport) int64 { return t.(*engine).led.replays }

// RecoveryOps is the I/O the rolled-back attempts of the run the engine
// is in have cost so far, as the driver's ledger charges it.
func RecoveryOps(t Transport) int64 { return t.(*engine).led.recoveryOps }

// Ops is the parallel I/O operations processor 0 of the engine has
// performed since its statistics were last reset.
func Ops(t Transport) int64 { return procs(t)[0].chain.Stats().Ops }

// StopApply makes every apply of a snapshot to a node directory
// (AdoptNode, ApplyDelta) ask stop after each step it completes — an
// ImportTrack, the Sync, the seeded record, the prepare, the commit —
// and stop there, as a crash would, when stop returns an error. nil
// lets applies run through.
func StopApply(stop func(step string) error) { applyStep = stop }

// ChainStates are the states of the chains of the processors of the
// engine RunOver hands to wrap, as a processor's record carries them.
func ChainStates(t Transport) (sts [][]uint64) {
	for _, ps := range procs(t) {
		enc := words.NewEncoder(nil)
		ps.encodeState(enc)
		sts = append(sts, enc.Words())
	}
	return sts
}

// MemUsed is every processor's internal memory in use.
func MemUsed(t Transport) (used []int64) {
	for _, ps := range procs(t) {
		used = append(used, ps.acct.Used())
	}
	return used
}

// FaultLayer is processor proc's fault layer.
func FaultLayer(t Transport, proc int) *fault.Disk {
	return disk.Find[*fault.Disk](procs(t)[proc].chain)
}

// WithoutHistory is a copy of ws, the words of one D-drive chain's state
// (ChainStates), with every field a superstep replay keeps instead of
// adopting zeroed (DESIGN.md §8): the store's statistics and access
// chains; the fault layer's clocks, injection streams, dead drives and
// counters; the redundancy layer's dead drives and counters but its two
// gauges.
func WithoutHistory(ws []uint64, D int) []uint64 {
	ws = slices.Clone(ws)
	at := 0
	zero := func(n int) { clear(ws[at : at+n]); at += n }
	skip := func(n int) { at += n }
	zero(words.SizeUints(5))
	zero(1 + int(ws[at])*words.SizeUints(4)) // the drives' statistics
	skip(1)
	for d := 0; d < D; d++ {
		skip(1)               // the bump mark
		zero(1)               // the last track
		skip(1 + int(ws[at])) // the free list
		skip(1 + int(ws[at])) // the fresh list
	}
	if skip(1); ws[at-1] != 0 { // the fault layer
		skip(1)
		zero(D + 4*D)            // clocks and streams
		zero(D)                  // dead drives
		zero(words.SizeUints(8)) // counters
	}
	if skip(1); ws[at-1] != 0 { // the redundancy layer
		skip(1)
		zero(D)     // dead drives
		skip(1)     // the next stripe
		zero(1 + 4) // counters, up to the gauges
		skip(2)
		zero(1)
	}
	return ws
}

// WithoutHistory is the record with every field a superstep replay keeps
// instead of adopting zeroed: the high-water mark of the processor's
// memory, and its chain's history (WithoutHistory).
func (r ProcRecord) WithoutHistory() []uint64 {
	ws := slices.Clone(r.Words)
	ws[5] = 0 // after the four words of the PRNG's state and the skew
	copy(ws[r.Store:], WithoutHistory(ws[r.Store:], r.sh.cfg.D))
	return ws
}

// ProcRecord is one processor's barrier record as encodeProcManifest
// wrote it, with the positions of the track words of its two directories
// — the input's, then the contexts' — so a test can forge exactly those,
// and of the sections the decoder checks before the store adopts anything:
// Dir is the input directory's first word, Held the held section's (the
// batch), Sleep the sleep bits' (their count of words), Store the
// allocator state's (the statistics' totals), Layers the first word after
// it. HeldVPs is the count of the VPs whose records the
// held section carries, Mu the bound on each.
type ProcRecord struct {
	Words                   []uint64
	Input                   []int // indexes into Words: one per block of the input directory
	Contexts                []int // one per block of the context directory
	Dir, Held, Sleep, Store int
	Layers                  int
	HeldVPs, Mu             int
	sh                      simShape
	id, step                int
}

func procRecord(sh simShape, ps *procState, step int) ProcRecord {
	enc, tail, store := words.NewEncoder(nil), words.NewEncoder(nil), words.NewEncoder(nil)
	sh.encodeProcManifest(enc, ps)
	encodeDirectory(tail, ps.inDir)
	encodeContexts(tail, ps.ctxDir, sh.cfg.D)
	dirs := tail.Len()
	sh.encodeHeld(tail, ps)
	held := tail.Len()
	tail.PutUint(uint64(len(ps.sleep)))
	tail.PutWords(ps.sleep)
	sleep := tail.Len()
	ps.encodeState(tail)
	encodeStoreState(store, ps.chain.State())
	r := ProcRecord{Words: slices.Clone(enc.Words()), Mu: sh.mu, sh: sh, id: ps.id, step: step}
	if ps.held >= 0 {
		lo, hi := sh.batchBounds(ps, ps.held)
		r.HeldVPs = hi - lo
	}
	base := len(r.Words) - tail.Len()
	r.Dir, r.Held, r.Sleep, r.Store, r.Layers = base, base+dirs, base+held, base+sleep, base+sleep+store.Len()
	dec := words.NewDecoder(r.Words[base:])
	list := func(into *[]int) {
		for n := dec.Int(); n > 0; n-- {
			*into = append(*into, base+dec.Offset())
			dec.Int()
		}
	}
	for n := dec.Int() * int64(sh.cfg.D); n > 0; n-- {
		list(&r.Input)
	}
	for range ps.ctxDir {
		list(&r.Contexts)
	}
	return r
}

// ProcRecords are the records of the processors of the engine RunOver
// hands to wrap, as its next decision record would carry them.
func ProcRecords(t Transport) []ProcRecord {
	e := t.(*engine)
	var rs []ProcRecord
	for _, ps := range procs(t) {
		rs = append(rs, procRecord(e.simShape, ps, e.led.stepsDone))
	}
	return rs
}

// ProcRecord is the node's record, the body of its NODE manifest.
func (n *NodeEngine) ProcRecord() ProcRecord { return procRecord(*n.sh, n.ps, n.stepsDone) }

// Prepared is the node's prepared record, nil when none is pending.
func (n *NodeEngine) Prepared() []uint64 { return n.jrn.Pending() }

// Decode decodes ws, the record or a forgery of it, into a fresh processor
// of the same shape over an in-memory chain with the same layers. It
// returns the decoder's verdict and whether it refused with the store's
// state what it was before the attempt; otherwise — the record accepted,
// or its own sections accepted and adopted and a layer's section refused
// after them — the tracks both directories name with the allocator state
// they were checked against, and the lengths in words of the held
// records adopted.
func (r ProcRecord) Decode(ws []uint64) (err error, untouched bool, named []disk.Addr, st disk.StoreState, held []int) {
	opts := r.sh.opts
	opts.StateDir, opts.MappedStore = "", false
	sh := r.sh
	sh.opts = opts
	ps, err := sh.newProcState(r.id, "", false)
	if err != nil {
		return err, false, nil, st, nil
	}
	defer ps.chain.Close()
	before := ps.chain.State()
	err = sh.decodeProcManifest(words.NewDecoder(ws), ps, r.step)
	st = ps.chain.State()
	if err != nil && reflect.DeepEqual(before, st) {
		return err, true, nil, st, nil
	}
	for pos := 0; pos < ps.heldLen; pos += 1 + int(ps.ctx[pos]) {
		held = append(held, 1+int(ps.ctx[pos]))
	}
	if ps.inDir != nil {
		ps.inDir.each(func(_ int, ref blockRef) error { //nolint:errcheck // f returns none
			named = append(named, disk.Addr{Disk: ref.disk, Track: ref.track})
			return nil
		})
	}
	for _, tracks := range ps.ctxDir {
		named = append(named, tracks...)
	}
	return err, false, named, st, held
}

// Writes is what one processor's block writer has written since the
// set-up or the open superstep began: Blocks, its message and context
// blocks, and Sealed, the batches it wrote between flushes of their own
// (a batch of sleepers under redundancy, saveContexts); Stats is the
// processor's chain statistics and ParityOps its redundancy layer's
// operations so far.
type Writes struct {
	Blocks, Sealed int
	Stats          disk.Stats
	ParityOps      int64
}

// WritesOf reports every processor's Writes.
func WritesOf(t Transport) []Writes {
	var ws []Writes
	for _, ps := range procs(t) {
		w := Writes{Stats: ps.chain.Stats()}
		if ps.dir != nil {
			w.Blocks = ps.dir.total
		}
		for j, tracks := range ps.ctxWrite {
			if ps.skipped[j] || len(tracks) == 0 {
				continue
			}
			w.Blocks += len(tracks)
			if ps.redundant() && t.(*engine).batchSleeps(ps, j) {
				w.Sealed++
			}
		}
		if red := disk.Find[*redundancy.Store](ps.chain); red != nil {
			w.ParityOps = red.Counters().ParityOps
		}
		ws = append(ws, w)
	}
	return ws
}
