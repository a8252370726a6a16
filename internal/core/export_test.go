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

// ContextOps is the number of parallel operations it takes to write —
// or to read back — the contexts the open superstep has saved so far:
// over processors and batches, ⌈used/D⌉ for the tracks the batch's
// packed records fill in the generation being written.
func ContextOps(t Transport) (ops int) {
	e := t.(*engine)
	for _, ps := range e.procs {
		for _, tracks := range ps.ctxWrite {
			ops += (len(tracks) + e.cfg.D - 1) / e.cfg.D
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

// DeadDriveLoad reads, from the journaled form of one processor's parity
// layer, what a dead drive still holds at a barrier: striped members with
// no copy on a survivor, and parity tracks; whether the online rebuild is
// still scanning; and whether the fault layer has killed the drive at all.
func DeadDriveLoad(t Transport, proc, drive int) (members, parity int, rebuilding, down bool) {
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
	return members, parity, red.Rebuilding(), disk.Find[*fault.Disk](chain).Down(drive)
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

// PlacementCosts reports what the routing rule sees in the open
// superstep's directories, per processor: the scattered sum, its ideal
// Σ_g⌈R_g/D⌉, and over all of them the worst batch's distance from its
// own ideal.
func PlacementCosts(t Transport) (scattered, ideal []int, worst int) {
	for _, ps := range t.(*engine).procs {
		s, _, _ := ps.dir.routeCosts()
		sum := 0
		for _, perDrive := range ps.dir.q {
			fullest, Rg, D := 0, 0, len(perDrive)
			for _, refs := range perDrive {
				fullest, Rg = max(fullest, len(refs)), Rg+len(refs)
			}
			sum += (Rg + D - 1) / D
			worst = max(worst, fullest-(Rg+D-1)/D)
		}
		scattered, ideal = append(scattered, s), append(ideal, sum)
	}
	return scattered, ideal, worst
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

// Holdings is what one processor holds on disk at a barrier: the tracks
// of its current contexts per batch, the blocks of its next input, and the
// tracks its allocator has handed out and not got back.
type Holdings struct {
	Contexts         []int
	Input, Allocated int
}

// HoldingsOf reports every processor's holdings.
func HoldingsOf(t Transport) []Holdings {
	var hs []Holdings
	for _, ps := range t.(*engine).procs {
		h := Holdings{Input: ps.inBlocks}
		for _, tracks := range ps.ctxDir {
			h.Contexts = append(h.Contexts, len(tracks))
		}
		st := ps.chain.State()
		for d := range st.Next {
			h.Allocated += st.Next[d] - len(st.Free[d])
		}
		hs = append(hs, h)
	}
	return hs
}

// SetupReplays is the replay count of the run the engine is in.
func SetupReplays(t Transport) int64 { return t.(*engine).led.replays }

// ProcRecord is one processor's barrier record as encodeProcManifest
// wrote it, with the positions of the track words of its two directories
// — the input's, then the contexts' — so a test can forge exactly those.
type ProcRecord struct {
	Words    []uint64
	Input    []int // indexes into Words: one per block of the input directory
	Contexts []int // one per block of the context directory
	sh       simShape
	id       int
}

func procRecord(sh simShape, ps *procState) ProcRecord {
	enc, tail := words.NewEncoder(nil), words.NewEncoder(nil)
	encodeProcManifest(enc, ps)
	encodeDirectory(tail, ps.inDir)
	encodeContexts(tail, ps.ctxDir, sh.cfg.D)
	ps.encodeState(tail)
	r := ProcRecord{Words: slices.Clone(enc.Words()), sh: sh, id: ps.id}
	dec := words.NewDecoder(r.Words[len(r.Words)-tail.Len():])
	base := len(r.Words) - tail.Len()
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
		rs = append(rs, procRecord(e.simShape, ps))
	}
	return rs
}

// ProcRecord is the node's record, the body of its NODE manifest.
func (n *NodeEngine) ProcRecord() ProcRecord { return procRecord(n.sh, n.ps) }

// Decode decodes ws, the record or a forgery of it, into a fresh processor
// of the same shape over an in-memory chain with the same layers. It
// returns the decoder's verdict, whether the store's state is what it was
// before the attempt, and after a success the tracks both directories name
// with the allocator state they were checked against.
func (r ProcRecord) Decode(ws []uint64) (err error, untouched bool, named []disk.Addr, st disk.StoreState) {
	opts := r.sh.opts
	opts.StateDir, opts.Tiers, opts.MappedStore = "", nil, false
	sh := r.sh
	sh.opts = opts
	ps, err := sh.newProcState(r.id, "", false)
	if err != nil {
		return err, false, nil, st
	}
	defer ps.chain.Close()
	before := ps.chain.State()
	err = decodeProcManifest(words.NewDecoder(ws), ps)
	st = ps.chain.State()
	if err != nil {
		return err, reflect.DeepEqual(before, st), nil, st
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
	return nil, true, named, st
}
