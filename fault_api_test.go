package embsp_test

// The issue's acceptance property over the public API: every Table 1
// workload, at small scale, run under a seeded transient-fault plan at
// P = 1 and P > 1, produces VP states bitwise identical to
// RunReference, while EMStats shows the recovery machinery actually
// worked (faults injected and paid for).

import (
	"fmt"
	"testing"

	"embsp"
	"embsp/internal/words"
	"embsp/internal/workload"
)

// table1Program builds the small instance of a Table 1 workload that
// the API property tests run.
func table1Program(t *testing.T, name string) embsp.Program {
	t.Helper()
	inst, err := workload.Spec{Alg: name, N: 48, V: 6, Seed: 99}.Build()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return inst.Program
}

// vpImage marshals a VP's full context, the bitwise-identity witness.
func vpImage(vp embsp.VP) []uint64 {
	enc := words.NewEncoder(nil)
	vp.Save(enc)
	return append([]uint64(nil), enc.Words()...)
}

func TestFaultPropertyTable1(t *testing.T) {
	const seed = 17
	// The shortest rows (permute, transpose at P = 1) take a few dozen
	// operations, so whether 2% rates strike them at all is the plan
	// seed's luck, and the draws follow which drive a block goes to: 23
	// served until contexts moved to allocated tracks (PR 23), 24 until
	// message records lost two header words and tails came to share
	// blocks, when sort at P = 3 ran 5 operations and none was struck.
	plan := &embsp.FaultPlan{
		Seed:           31,
		ReadErrorRate:  0.02,
		WriteErrorRate: 0.02,
		CorruptRate:    0.02,
	}
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
				res, err := embsp.Run(prog, cfg, embsp.Options{Seed: seed, FaultPlan: plan})
				if err != nil {
					t.Fatalf("P=%d: %v", p, err)
				}
				for i, vp := range res.VPs {
					got := vpImage(vp)
					if fmt.Sprint(got) != fmt.Sprint(want[i]) {
						t.Fatalf("P=%d: VP %d context differs from reference under faults", p, i)
					}
				}
				em := res.EM
				if em.FaultsInjected == 0 {
					t.Errorf("P=%d: no faults injected at 2%% rates", p)
				}
				if em.RecoveryOps == 0 {
					t.Errorf("P=%d: faults injected but RecoveryOps=0", p)
				}
			}
		})
	}
}
