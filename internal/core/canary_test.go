package core_test

import (
	"slices"
	"testing"

	"embsp"
	"embsp/internal/words"
	"embsp/internal/workload"
)

// TestTable1UnderCanary runs the 13 Table 1 workloads on the sequential
// and the parallel engine with every reused buffer poisoned (TestMain)
// and requires the reference runner's final contexts, word for word.
func TestTable1UnderCanary(t *testing.T) {
	for _, alg := range workload.Table1Names() {
		inst, err := workload.Spec{Alg: alg, N: 512, V: 8, Seed: 11}.Build()
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		ref, err := embsp.RunReference(inst.Program, 11)
		if err != nil {
			t.Fatalf("%s: reference: %v", alg, err)
		}
		for _, p := range []int{1, 2, 3} {
			res, err := embsp.Run(inst.Program, workload.Machine(inst.Program, p, 4, 64, 3, 10), embsp.Options{Seed: 11})
			if err != nil {
				t.Fatalf("%s P=%d: %v", alg, p, err)
			}
			if !slices.Equal(contexts(res.VPs), contexts(ref.VPs)) {
				t.Errorf("%s P=%d: final contexts differ from the reference run's", alg, p)
			}
		}
	}
}

// contexts concatenates the saved contexts of vps, each behind its
// length.
func contexts(vps []embsp.VP) []uint64 {
	var out []uint64
	enc := words.NewEncoder(nil)
	for _, vp := range vps {
		enc.Reset()
		vp.Save(enc)
		out = append(append(out, uint64(enc.Len())), enc.Words()...)
	}
	return out
}
