package core_test

import (
	"slices"
	"testing"

	"embsp/internal/bsp"
	"embsp/internal/core"
	"embsp/internal/fault"
	"embsp/internal/redundancy"
	"embsp/internal/workload"
)

// placementMeter collects, per superstep that has a next one and per
// processor, what the block writer's placement leaves the next fetch to
// pay: it reads the directories as the barrier is about to make them the
// input.
type placementMeter struct {
	core.Transport
	at []core.Placement
}

func (m *placementMeter) Prepare(step int, halted bool) ([]int64, error) {
	if !halted {
		m.at = append(m.at, core.PlacementCosts(m.Transport)...)
	}
	return m.Transport.Prepare(step, halted)
}

// measurePlacement runs prog under the meter.
func measurePlacement(t *testing.T, prog bsp.Program, cfg core.MachineConfig, opts core.Options) (*placementMeter, *core.Result) {
	t.Helper()
	var m *placementMeter
	res, err := core.RunOver(func(inner core.Transport) core.Transport {
		m = &placementMeter{Transport: inner}
		return m
	}, prog, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

// TestPlacementByCount pins what the block writer's placement leaves the
// next fetch to pay on the golden instances and the benchmark's sort:
// per superstep (and processor), the exact scattered sum beside its
// ideal Σ_g⌈R_g/D⌉ (at P = 2, processor 0's then processor 1's). A batch
// is never more than one operation from its own ideal here, and a run's
// total within 10% of the ideal's; the golden instances sit on it, and
// the bare random permutation read sort_mem's large superstep in 107
// operations where this reads it in 88 against an ideal of 86 (90 until
// PR 25: the batches are written in snake order, so the writer's PRNG
// breaks other ties). listrank's list is 17 supersteps long where it was
// 22, since the Ranker splices local maxima (DESIGN.md §23); its splice
// rounds and expansion steps write fewer message blocks since a
// subscriber adds its own weight and notifications go one message a
// destination (§23.1). Since a processor keeps one stream a cell for the
// superstep (§21), every row reads fewer blocks — sort_mem's large
// superstep 81 operations against an ideal of 76 — and the last blocks
// of all streams are written together in the last round (sort at P = 2
// reads 85 where it read 86). Since every block goes to the processor
// that owns its destination VP (§5), sort at P = 2 places
// [2 1 2 3 34 43] → [3 0 2 2 36 40]. Since the sort stores no index word
// (DESIGN.md §5) it sends half the blocks — sort [75] → [40], at P = 2
// [36 40] → [20 21], sort_mem's large superstep 48 operations against an
// ideal of 47 — and the writer matches each operation's blocks to drives
// (§7): placed greedily in arrival order, that superstep read 51, a
// batch 2 operations above its ideal (and superstep 1 read 12 against 11
// before). Since the writer places context blocks too and a batch's
// contexts and messages are read together (§22.1), the sums count both:
// sort [3 3 40] → [25 29 42], at P = 2 [3 0 2 2 20 21] → [8 5 15 15 20
// 22], sort_mem [5 11 48] → [44 41 53] beside ideals [5 11 47] → [44 41
// 53], where the contexts alone took Σ⌈used_j/D⌉ reads of their own
// besides; every row sits on its ideal. Since a message record's header
// is two words, the tails of a superstep's last round share blocks
// (§21.1) and the sort saves no splitters past phase 2, the all-to-all
// superstep writes fewer message and context blocks: sort [25 29 42] →
// [25 29 39], at P = 2 [20 22] → [18 20], sort_mem [44 41 53] → [44 41
// 50], and listrank [35 42 24 37 17 35 15 34 …] → [34 40 22 36 16 34 14
// 33 …]. Since the Ranker packs its arrays two values a word (DESIGN.md
// §23.1), listrank reads fewer context blocks: [34 40 22 36 16 34 14 33
// …] → [31 31 19 24 12 21 9 18 …]. Same seed, same placement, twice.
func TestPlacementByCount(t *testing.T) {
	sort := workload.Spec{Alg: "sort", N: 8192, V: 16, Seed: 7}
	listrank := workload.Spec{Alg: "listrank", N: 2048, V: 8, Seed: 7}
	for _, row := range []struct {
		name             string
		spec             workload.Spec
		p, b             int
		seed             uint64
		scattered, ideal []int
	}{
		{"sort", sort, 1, 64, 7, []int{25, 29, 39}, []int{25, 29, 39}},
		{"sort P=2", sort, 2, 64, 7, []int{8, 5, 15, 15, 18, 20}, []int{8, 5, 15, 15, 18, 20}},
		{"listrank", listrank, 1, 64, 7,
			[]int{31, 31, 19, 24, 12, 21, 9, 18, 7, 18, 12, 22, 12, 15, 6, 11, 5},
			[]int{31, 31, 19, 24, 12, 21, 9, 18, 7, 18, 12, 22, 12, 15, 6, 11, 5}},
		{"sort_mem", workload.Spec{Alg: "sort", N: 65536, V: 64, Seed: 1}, 1, 512, 1, []int{44, 41, 50}, []int{44, 41, 50}},
	} {
		inst, err := row.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		run := func() (scattered, ideal []int, got, want, worst int) {
			m, _ := measurePlacement(t, inst.Program, workload.Machine(inst.Program, row.p, 4, row.b, 6, 1000), core.Options{Seed: row.seed})
			for _, p := range m.at {
				scattered, ideal = append(scattered, p.Scattered), append(ideal, p.Ideal)
				got, want, worst = got+p.Scattered, want+p.Ideal, max(worst, p.Worst)
			}
			return scattered, ideal, got, want, worst
		}
		scattered, ideal, got, want, worst := run()
		if !slices.Equal(scattered, row.scattered) || !slices.Equal(ideal, row.ideal) {
			t.Errorf("%s: scattered sums %v beside ideals %v, want %v beside %v", row.name, scattered, ideal, row.scattered, row.ideal)
		}
		if 10*got > 11*want {
			t.Errorf("%s: the run's scattered reads take %d operations, more than 10%% above the ideal %d", row.name, got, want)
		}
		if worst > 1 {
			t.Errorf("%s: a batch lies %d operations above its ideal", row.name, worst)
		}
		if again, _, _, _, _ := run(); !slices.Equal(again, scattered) {
			t.Errorf("%s: the same seed placed differently: %v then %v", row.name, scattered, again)
		}
	}
}

// TestPlacementPropertyTable1 is what every run relies on now that no
// superstep is reorganized before it is read (DESIGN.md §7), on the 13
// Table 1 workloads, few drives and many, one processor and three, every
// drive alive and one dying half way under mirroring: per superstep and
// processor, no batch lies more than one operation above its own ideal
// ⌈R_g/L⌉ over the L live drives, so the scattered fetch takes at most
// Σ_g⌈R_g/L⌉ and one more for every batch of two blocks or more; and it
// never takes more than routing the superstep by Algorithm 2 would have
// at the least — the inequality that keeps Theorem 1's bound standing
// without it.
func TestPlacementPropertyTable1(t *testing.T) {
	const seed = 17
	for _, name := range workload.Table1Names() {
		t.Run(name, func(t *testing.T) {
			inst, err := workload.Spec{Alg: name, N: 512, V: 16, Seed: seed}.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []int{3, 8, 32} {
				for _, p := range []int{1, 3} {
					cfg := workload.Machine(inst.Program, p, d, 16, 4, 100)
					cfg.M = max(cfg.M, d*cfg.B)
					clean, res := measurePlacement(t, inst.Program, cfg, core.Options{Seed: seed})
					// The death is aimed by the run itself, as in the root
					// package's TestParityPropertyTable1: half way through
					// the blocks processor 0 moves on drive 1.
					drive := res.EM.PerProc[0].PerDrive[1]
					plan := &fault.Plan{Seed: 23, FailDriveOp: max(1, (drive.BlocksRead+drive.BlocksWritten)/2), FailDrive: 1}
					dead, res := measurePlacement(t, inst.Program, cfg, core.Options{Seed: seed, FaultPlan: plan, Redundancy: redundancy.Mirror})
					if res.EM.DriveFailures != 1 {
						t.Errorf("D=%d P=%d: %d drives died, want 1", d, p, res.EM.DriveFailures)
					}
					for label, m := range map[string]*placementMeter{"clean": clean, "drive death": dead} {
						for i, pl := range m.at {
							if pl.Worst > 1 || pl.Scattered > pl.Ideal+pl.Multi || pl.Scattered > pl.Floor {
								t.Errorf("D=%d P=%d %s, superstep %d processor %d: the scattered fetch takes %d operations (a batch %d above its own ideal), want at most %d + %d and at most Algorithm 2's floor %d",
									d, p, label, i/p, i%p, pl.Scattered, pl.Worst, pl.Ideal, pl.Multi, pl.Floor)
							}
						}
					}
				}
			}
		})
	}
}
