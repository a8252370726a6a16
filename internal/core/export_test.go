package core

import (
	"context"
	"errors"

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
// over processors and batches, ⌈used/D⌉ for the blocks the batch's
// packed records fill in the area being written.
func ContextOps(t Transport) (ops int) {
	e := t.(*engine)
	for _, ps := range e.procs {
		for _, used := range ps.ctxUsed[ps.ctxNext()] {
			ops += (used + e.cfg.D - 1) / e.cfg.D
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
