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
	e, d := newEngine(context.Background(), p, cfg, opts)
	d.t = wrap(e)
	return e.run(d)
}

// MessageBlocks counts, on the engine RunOver hands to wrap, the message
// blocks the open superstep's writing phases have left in the
// processors' directories, and the streams they form.
func MessageBlocks(t Transport) (blocks, streams int) {
	for _, ps := range t.(*engine).procs {
		for _, perDrive := range ps.dir.q {
			for _, refs := range perDrive {
				for _, ref := range refs {
					blocks++
					if ref.meta.chunk == 0 {
						streams++
					}
				}
			}
		}
	}
	return blocks, streams
}

// PacketTargets lists the processor each block of one computing phase's
// output was sent to, the blocks in stream order: by destination cell,
// stream and chunk.
func PacketTargets(bo *BatchOut) []int {
	type sent struct {
		meta   blockMeta
		target int
	}
	var all []sent
	for target, b := range bo.Scatter {
		for _, wb := range b.blocks {
			all = append(all, sent{wb.meta, target})
		}
	}
	slices.SortFunc(all, func(a, b sent) int { return metaCmp(a.meta, b.meta) })
	targets := make([]int, len(all))
	for i, s := range all {
		targets[i] = s.target
	}
	return targets
}

// Tails reports, on the engine RunOver hands to wrap, each processor's
// open stream tails and the most it may hold open: its packer's slots.
func Tails(t Transport) (open, slots []int) {
	for _, ps := range t.(*engine).procs {
		open, slots = append(open, ps.pack.open), append(slots, len(ps.pack.slots))
	}
	return open, slots
}

// EvictedStreams counts the streams of the open superstep's directories
// that an eviction started: those numbered above 0.
func EvictedStreams(t Transport) (n int) {
	for _, ps := range t.(*engine).procs {
		ps.dir.each(func(_ int, ref blockRef) error { //nolint:errcheck // f never fails
			if ref.meta.chunk == 0 && ref.meta.seq > 0 {
				n++
			}
			return nil
		})
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
	for _, ps := range e.procs {
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
	return disk.Find[*fault.Disk](t.(*engine).procs[proc].chain).Clock(drive)
}

// DeadDriveLoad reads, from the journaled form of one processor's
// redundancy layer, what a dead drive still holds at a barrier: striped
// members with no copy on a survivor, and parity tracks (or copies); and
// whether the fault layer has killed the drive at all.
func DeadDriveLoad(t Transport, proc, drive int) (members, parity int, down bool) {
	chain := t.(*engine).procs[proc].chain
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
	dec.Ints()
	var lost []disk.Addr
	for n := dec.Int(); n > 0; n-- {
		dec.Int()
		if pd := int(dec.Int()); dec.Int() >= 0 && pd == drive {
			parity++
		}
		for d := 0; d < D; d++ {
			if tr := int(dec.Int()); tr >= 0 && d == drive {
				lost = append(lost, disk.Addr{Disk: d, Track: tr})
			}
		}
	}
	for n := dec.Int(); n > 0; n-- {
		dec.Int()
		dec.Int()
		dec.Uint()
	}
	remapped := make(map[disk.Addr]bool)
	for n := dec.Int(); n > 0; n-- {
		remapped[disk.Addr{Disk: int(dec.Int()), Track: int(dec.Int())}] = true
		dec.Int()
		dec.Int()
	}
	for _, k := range lost {
		if !remapped[k] {
			members++
		}
	}
	return members, parity, disk.Find[*fault.Disk](chain).Down(drive)
}

// ForgeInputTrack rewrites one track of processor 0's unrouted input to
// lie beyond every allocator's mark, as a damaged or forged journal
// record might name it; it reports whether there was a block to forge.
func ForgeInputTrack(t Transport) bool {
	ps := t.(*engine).procs[0]
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
// pay in the open superstep's directory: Scattered, the sum over batches
// of the fullest drive's share; Ideal, Σ_g⌈R_g/L⌉ over the L live drives;
// Multi, the batches holding two blocks or more; Worst, the furthest a
// batch lies above its own ideal; and Floor, the least Algorithm 2 could
// have cost before the same batches were read from its regions.
type Placement struct{ Scattered, Ideal, Multi, Worst, Floor int }

// PlacementCosts reads every processor's Placement.
func PlacementCosts(t Transport) (ps []Placement) {
	for _, proc := range t.(*engine).procs {
		D := len(proc.dir.q[0])
		L, load, p := D, make([]int, D), Placement{}
		for d := 0; d < D; d++ {
			if proc.down != nil && proc.down(d) {
				L--
			}
		}
		for _, perDrive := range proc.dir.q {
			fullest, Rg := 0, 0
			for d, refs := range perDrive {
				fullest, Rg, load[d] = max(fullest, len(refs)), Rg+len(refs), load[d]+len(refs)
			}
			p.Scattered, p.Ideal, p.Worst = p.Scattered+fullest, p.Ideal+(Rg+L-1)/L, max(p.Worst, fullest-(Rg+L-1)/L)
			if Rg >= 2 {
				p.Multi++
			}
			// Routed, the batch is read in ⌈R_g/D⌉ operations, after
			// Step 1 moved every block (at least the fullest drive's
			// load, at least ⌈R/D⌉ moves) and Step 2's ⌈R/D⌉ moves, two
			// operations a move.
			p.Floor += (Rg + D - 1) / D
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
	for _, ps := range t.(*engine).procs {
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
	for _, ps := range t.(*engine).procs {
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
	tail.PutUints(ps.sleep)
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
	for _, ps := range e.procs {
		rs = append(rs, procRecord(e.simShape, ps, e.led.stepsDone))
	}
	return rs
}

// ProcRecord is the node's record, the body of its NODE manifest.
func (n *NodeEngine) ProcRecord() ProcRecord { return procRecord(n.sh, n.ps, n.stepsDone) }

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
	opts.StateDir, opts.Tiers, opts.MappedStore = "", nil, false
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
