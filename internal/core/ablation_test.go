package core_test

import (
	"testing"

	"embsp/internal/bsp/bsptest"
	"embsp/internal/core"
)

// TestMemoryBudgetTight: the engines must run within their documented
// internal-memory footprint — M + k·(µ + 6γ) + D·B words — at slack
// factor 1, not just under the budget's slack constant, on both the
// sequential and parallel engines: the Θ(k·µ)-style working-set claim
// holds with constant 1.
func TestMemoryBudgetTight(t *testing.T) {
	p := &bsptest.RandomProgram{V: 16, Steps: 3, MsgsPerStep: 6, MaxLen: 40}
	for _, procs := range []int{1, 3} {
		cfg := tinyMachine(4, 8, 256)
		cfg.P = procs
		res, err := core.Run(p, cfg, core.Options{Seed: 1})
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		if res.EM.MemHigh <= 0 {
			t.Errorf("P=%d: memory accounting recorded nothing", procs)
		}
		budget := int64(cfg.M + res.EM.K*(p.MaxContextWords()+6*p.MaxCommWords()) + cfg.D*cfg.B)
		if res.EM.MemHigh > budget {
			t.Errorf("P=%d: memory high-water %d words exceeds the footprint formula at slack 1, %d", procs, res.EM.MemHigh, budget)
		}
	}
}

// TestScatteredInputForMultiProc: on a machine with an exchange each
// processor keeps the directory of the blocks it received and the next
// superstep reads them where they lie.
func TestScatteredInputForMultiProc(t *testing.T) {
	p := &bsptest.RingProgram{V: 4, Rounds: 1}
	got, err := core.Run(p, parMachine(2, 1, 8, 32), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < p.V; id++ {
		if bsptest.RingAcc(got.ToBSPResult(), id) != bsptest.ExpectedRingAcc(p.V, p.Rounds, id) {
			t.Errorf("P = 2: VP %d's sum is wrong", id)
		}
	}
}
