package embsp_test

// The issue's acceptance property over the public API: every Table 1
// workload, run with parity redundancy and a permanent single-drive
// death mid-run, at P = 1 and P = 3, produces VP states bitwise
// identical to RunReference — degraded reads, scrub and online rebuild
// included — and EMStats shows the parity machinery actually worked.

import (
	"fmt"
	"testing"

	"embsp"
)

func TestParityPropertyTable1(t *testing.T) {
	const seed = 17
	for name, prog := range table1Programs(t) {
		t.Run(name, func(t *testing.T) {
			ref, err := embsp.RunReference(prog, seed)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]uint64, len(ref.VPs))
			for i, vp := range ref.VPs {
				want[i] = vpImage(vp)
			}
			for _, p := range []int{1, 3} {
				cfg := embsp.MachineConfig{
					P: p, M: 4 * prog.MaxContextWords(), D: 3, B: 32, G: 100,
					Cost: embsp.CostParams{GUnit: 1, GPkt: 64, Pkt: 64, L: 10},
				}
				// A death that never fires tests nothing, and the shortest
				// runs (permute, transpose at P = 3) touch a drive a handful
				// of times, fewer with every engine change that saves I/O. So
				// the death is aimed by the run itself: a clean run counts the
				// blocks processor 0 moves on drive 0 — one a fault-clock tick,
				// an operation touching a drive once — and the drive dies half
				// way through them (the clock also ticks through the setup,
				// so that index is always reached). A drive that holds nothing
				// live when it dies leaves no work to see — every later write
				// goes to a survivor — and since PR 25 a processor that owns
				// one batch keeps every context in memory, so a drive of its
				// holds message blocks between a write and the next
				// superstep's read alone; the aim moves on a tick at a time
				// until the death finds some.
				clean, err := embsp.Run(prog, cfg, embsp.Options{Seed: seed})
				if err != nil {
					t.Fatalf("P=%d clean: %v", p, err)
				}
				drive0 := clean.EM.PerProc[0].PerDrive[0]
				half, seen := max(1, (drive0.BlocksRead+drive0.BlocksWritten)/2), false
				for op := half; op < half+8 && !seen; op++ {
					plan := &embsp.FaultPlan{Seed: 23, FailDriveOp: op, FailDrive: 0}
					res, err := embsp.Run(prog, cfg, embsp.Options{
						Seed:       seed,
						FaultPlan:  plan,
						Redundancy: embsp.RedundancyParity,
						Scrub:      true,
					})
					if err != nil {
						t.Fatalf("P=%d: %v", p, err)
					}
					for i, vp := range res.VPs {
						got := vpImage(vp)
						if fmt.Sprint(got) != fmt.Sprint(want[i]) {
							t.Fatalf("P=%d: VP %d context differs from reference after drive loss under parity", p, i)
						}
					}
					em := res.EM
					if em.DriveFailures != 1 {
						t.Errorf("P=%d: DriveFailures=%d, want 1", p, em.DriveFailures)
					}
					if em.ParityOps == 0 {
						t.Errorf("P=%d: parity enabled but ParityOps=0", p)
					}
					if em.ScrubbedBlocks == 0 {
						t.Errorf("P=%d: scrub enabled but ScrubbedBlocks=0", p)
					}
					// Post-death activity: the drive's committed tracks are
					// reconstructed or rebuilt, or writes under way at the
					// death are remapped and charge degraded work.
					seen = em.ReconstructedBlocks+em.RebuiltBlocks+em.DegradedOps > 0
				}
				if !seen {
					t.Errorf("P=%d: the drive died at each of clock ticks %d to %d and no degraded or rebuild work is visible", p, half, half+7)
				}
			}
		})
	}
}
