package core_test

import (
	"slices"
	"testing"

	"embsp/internal/core"
	"embsp/internal/workload"
)

// placementMeter collects, per superstep and processor, what the rule
// saw: the scattered sum, its ideal Σ_g⌈R_g/L⌉ over the L live drives,
// and the worst batch's distance from its own ideal.
type placementMeter struct {
	core.Transport
	scattered, ideal []int
	worst            int
}

func (m *placementMeter) Route(step int) ([]int64, error) {
	scattered, ideal, worst := core.PlacementCosts(m.Transport)
	m.scattered, m.ideal, m.worst = append(m.scattered, scattered...), append(m.ideal, ideal...), max(m.worst, worst)
	return m.Transport.Route(step)
}

// TestPlacementByCount pins what the block writer's placement leaves the
// next fetch to pay on the golden instances and the benchmark's sort:
// per superstep (and processor), the exact scattered sum beside its
// ideal Σ_g⌈R_g/D⌉ (at P = 2, processor 0's then processor 1's). A batch
// is never more than one operation from its own ideal here, and a run's
// total within 10% of the ideal's; the golden instances sit on it, and
// the bare random permutation read sort_mem's large superstep in 107
// operations where this reads it in 90 against an ideal of 86. Same
// seed, same placement, twice.
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
		{"sort", sort, 1, 64, 7, []int{3, 3, 76}, []int{3, 3, 76}},
		{"sort P=2", sort, 2, 64, 7, []int{3, 1, 2, 2, 37, 41}, []int{3, 1, 2, 2, 37, 41}},
		{"listrank", listrank, 1, 64, 7,
			[]int{28, 27, 20, 16, 13, 10, 9, 6, 6, 5, 3, 3, 15, 19, 15, 8, 4, 2, 2, 2, 2, 2},
			[]int{28, 27, 20, 16, 13, 10, 9, 6, 6, 5, 3, 3, 15, 19, 15, 8, 4, 2, 2, 2, 2, 2}},
		{"sort_mem", workload.Spec{Alg: "sort", N: 65536, V: 64, Seed: 1}, 1, 512, 1, []int{6, 11, 90}, []int{6, 11, 86}},
	} {
		inst, err := row.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		run := func() *placementMeter {
			var m *placementMeter
			_, err = core.RunOver(func(inner core.Transport) core.Transport {
				m = &placementMeter{Transport: inner}
				return m
			}, inst.Program, workload.Machine(inst.Program, row.p, 4, row.b, 6, 1000), core.Options{Seed: row.seed})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		m := run()
		if !slices.Equal(m.scattered, row.scattered) || !slices.Equal(m.ideal, row.ideal) {
			t.Errorf("%s: scattered sums %v beside ideals %v, want %v beside %v", row.name, m.scattered, m.ideal, row.scattered, row.ideal)
		}
		sum := func(xs []int) (s int) {
			for _, x := range xs {
				s += x
			}
			return s
		}
		if got, ideal := sum(m.scattered), sum(m.ideal); 10*got > 11*ideal {
			t.Errorf("%s: the run's scattered reads take %d operations, more than 10%% above the ideal %d", row.name, got, ideal)
		}
		if m.worst > 1 {
			t.Errorf("%s: a batch lies %d operations above its ideal", row.name, m.worst)
		}
		if again := run(); !slices.Equal(again.scattered, m.scattered) {
			t.Errorf("%s: the same seed placed differently: %v then %v", row.name, m.scattered, again.scattered)
		}
	}
}
