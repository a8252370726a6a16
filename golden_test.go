package embsp_test

import (
	"fmt"
	"testing"

	"embsp"
	"embsp/internal/workload"
)

// goldenRow pins the seed-deterministic model numbers of one run: the
// result fingerprint (final contexts, BSP costs, full EMStats), the
// parallel I/O operation counts of the run and setup phases, the
// routing share, and the engine memory high-water mark. The values
// were recorded at the commit before the stores were folded onto one
// EM-model core (PR 13); a change that moves one must update the table
// and say why.
type goldenRow struct {
	alg, store          string
	p                   int
	fingerprint         uint64
	runOps, setupOps    int64
	routeOps, memHighWd int64
}

var goldenTable = []goldenRow{
	{"sort", "array", 1, 0x7a16cc7e4acb528, 2371, 200, 540, 29824},
	{"sort", "file", 1, 0x9befb00c800d6314, 2371, 200, 540, 29824},
	{"sort", "mapped+parity+faults", 1, 0xb39ab1e76df27134, 6274, 1154, 540, 29824},
	{"sort", "array", 2, 0x182b4298efc2321b, 3148, 200, 1316, 29312},
	{"sort", "file+tier", 2, 0x8a9380e26697af98, 3148, 200, 1316, 29312},
	{"listrank", "array", 1, 0x3f50ccf5c65c8a81, 31534, 571, 3710, 140582},
	{"listrank", "file", 1, 0x6f18366819864dc1, 31534, 571, 3710, 140582},
	{"listrank", "mapped+parity+faults", 1, 0xca144829f3172e, 90281, 3295, 3710, 140582},
	{"listrank", "array", 2, 0xead620733bbeba35, 39862, 570, 12096, 93504},
	{"listrank", "file+tier", 2, 0xe66a2766bb1558f, 39862, 570, 12096, 93504},
}

// goldenSpec is the fixed-seed instance of each golden workload.
var goldenSpec = map[string]workload.Spec{
	"sort":     {Alg: "sort", N: 8192, V: 16, Seed: 7},
	"listrank": {Alg: "listrank", N: 2048, V: 8, Seed: 7},
}

func goldenOptions(t *testing.T, store string) embsp.Options {
	opts := embsp.Options{Seed: 7}
	switch store {
	case "array":
	case "file":
		opts.StateDir = t.TempDir()
	case "mapped+parity+faults":
		opts.StateDir = t.TempDir()
		opts.MappedStore = true
		opts.Redundancy = embsp.RedundancyParity
		opts.FaultPlan = &embsp.FaultPlan{Seed: 7, ReadErrorRate: 0.01, WriteErrorRate: 0.01, CorruptRate: 0.01}
	case "file+tier":
		opts.StateDir = t.TempDir()
		opts.Tiers = []embsp.TierSpec{{}}
	default:
		t.Fatalf("unknown golden store %q", store)
	}
	return opts
}

// TestGoldenModelNumbers checks the committed model numbers exactly.
// Everything in a row is a function of (workload, seed, machine, store
// chain) alone, on any host and under any physical schedule.
func TestGoldenModelNumbers(t *testing.T) {
	for _, want := range goldenTable {
		t.Run(fmt.Sprintf("%s/p%d/%s", want.alg, want.p, want.store), func(t *testing.T) {
			t.Parallel()
			inst, err := goldenSpec[want.alg].Build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := workload.Machine(inst.Program, want.p, 4, 64, 6, 1000)
			res, err := embsp.Run(inst.Program, cfg, goldenOptions(t, want.store))
			if err != nil {
				t.Fatal(err)
			}
			got := goldenRow{want.alg, want.store, want.p, workload.Fingerprint(res),
				res.EM.Run.Ops, res.EM.Setup.Ops, res.EM.RouteOps, res.EM.MemHigh}
			if got != want {
				t.Errorf("model numbers moved:\n got {%q, %q, %d, %#x, %d, %d, %d, %d},\nwant {%q, %q, %d, %#x, %d, %d, %d, %d},",
					got.alg, got.store, got.p, got.fingerprint, got.runOps, got.setupOps, got.routeOps, got.memHighWd,
					want.alg, want.store, want.p, want.fingerprint, want.runOps, want.setupOps, want.routeOps, want.memHighWd)
			}
		})
	}
}
