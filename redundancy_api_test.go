package embsp_test

// The acceptance property of the redundancy layer over the public API:
// every Table 1 workload, run with mirror or parity redundancy and a
// permanent single-drive death mid-run, at P = 1 and P = 3, produces VP
// states bitwise identical to RunReference — degraded reads included —
// and EMStats shows the layer actually worked.

import (
	"fmt"
	"testing"

	"embsp"
	"embsp/internal/workload"
)

func TestParityPropertyTable1(t *testing.T) {
	const seed = 17
	for _, name := range workload.Table1Names() {
		t.Run(name, func(t *testing.T) {
			prog := table1Program(t, name)
			ref, err := embsp.RunReference(prog, seed)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]uint64, len(ref.VPs))
			for i, vp := range ref.VPs {
				want[i] = vpImage(vp)
			}
			for _, p := range []int{1, 2, 3} {
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
				half := max(1, (drive0.BlocksRead+drive0.BlocksWritten)/2)
				for _, mode := range []embsp.Redundancy{embsp.RedundancyMirror, embsp.RedundancyParity} {
					label, seen := fmt.Sprintf("%v P=%d", mode, p), false
					for op := half; op < half+8 && !seen; op++ {
						plan := &embsp.FaultPlan{Seed: 23, FailDriveOp: op, FailDrive: 0}
						res, err := embsp.Run(prog, cfg, embsp.Options{
							Seed:       seed,
							FaultPlan:  plan,
							Redundancy: mode,
						})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						for i, vp := range res.VPs {
							got := vpImage(vp)
							if fmt.Sprint(got) != fmt.Sprint(want[i]) {
								t.Fatalf("%s: VP %d context differs from reference after drive loss", label, i)
							}
						}
						em := res.EM
						if em.DriveFailures != 1 {
							t.Errorf("%s: DriveFailures=%d, want 1", label, em.DriveFailures)
						}
						if em.ParityOps == 0 {
							t.Errorf("%s: redundancy enabled but ParityOps=0", label)
						}
						// Post-death activity: the drive's live tracks are
						// reconstructed, which charges degraded work.
						seen = em.ReconstructedBlocks+em.DegradedOps > 0
					}
					if !seen {
						t.Errorf("%s: the drive died at each of clock ticks %d to %d and no degraded work is visible", label, half, half+7)
					}
				}
			}
		})
	}
}
