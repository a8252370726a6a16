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
// routing share, and the engine memory high-water mark. A change that
// moves one must update the table and say why.
//
// Recorded before the stores were folded onto one EM-model core
// (PR 13); re-recorded when P=1 became a driver of the one step machine
// (PR 15), each moved column for the reason beside its rows.
type goldenRow struct {
	alg, store          string
	p                   int
	fingerprint         uint64
	runOps, setupOps    int64
	routeOps, memHighWd int64
}

var goldenTable = []goldenRow{
	// Clean P=1: every count as before PR 15. The fingerprint moved only
	// through per-drive Seq/RandAccesses (a batch now reads its messages
	// before its contexts and writes its contexts before its messages,
	// Algorithm 3's order; their sum per drive is unchanged).
	{"sort", "array", 1, 0x7e782c96bcd5ec60, 2371, 200, 540, 29824},
	{"sort", "file", 1, 0xb3d7fbfafceb2944, 2371, 200, 540, 29824},
	// listrank MemHigh 140582 → 139264: a batch's contexts are released
	// before its generated messages are grabbed for cutting.
	{"listrank", "array", 1, 0xb75a0b063106b3f4, 31534, 571, 3710, 139264},
	{"listrank", "file", 1, 0x49d66011dfcbbd70, 31534, 571, 3710, 139264},
	// Faulted P=1: runOps 6274 → 6277 and 90281 → 90295 (< 0.1%): the
	// fault plan draws per operation, and with the read order swapped
	// its draws land on other operations. setupOps and routeOps exact.
	{"sort", "mapped+parity+faults", 1, 0x8cd681d231d70b03, 6277, 1154, 540, 29824},
	{"listrank", "mapped+parity+faults", 1, 0x3d5713a75813b1ac, 90295, 3295, 3710, 139264},
	// P=2: the bucket rule. Buckets are VP ranges of a processor (Algorithm
	// 1 Step 1(d)), not batch ranges, so all D fill and SimulateRouting's
	// operations run full: sort runOps 3148 → 2404, routeOps 1316 → 568;
	// listrank 39862 → 31753, 12096 → 3934. MemHigh +D·B = 256: the block
	// writer's operation buffer is now accounted at every P.
	{"sort", "array", 2, 0x44d9d1c883b297be, 2404, 200, 568, 29568},
	{"sort", "file+tier", 2, 0x869da8d83eb3f9ef, 2404, 200, 568, 29568},
	{"listrank", "array", 2, 0xae7f7ef62d5b565b, 31753, 570, 3934, 93760},
	{"listrank", "file+tier", 2, 0xb763e3269fc41aa4, 31753, 570, 3934, 93760},
	// P=3 (new in PR 15): ragged ownership — the last processor owns 4 of
	// sort's 16 VPs and 2 of listrank's 8 — pins the VP-range rule where
	// ⌈v/p⌉ does not divide v.
	{"sort", "array", 3, 0x23579e71d7d46c48, 2619, 200, 782, 29824},
	{"listrank", "array", 3, 0x365ef7d5e4b25cb1, 33277, 571, 5404, 70080},
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

// TestRouteOpsDoNotGrowWithP: splitting the same VPs over more real
// processors must not multiply the machine's total routing work. Under
// a bucket rule that keys on batch ranges, a processor with fewer
// batches than drives fills only some of its D buckets and
// SimulateRouting runs half-empty operations — 2.4–3.3× the P=1 count
// on these instances; bucketing by VP range keeps the sum under 2×
// (v=8 on P=4 comes closest: two VPs per processor cannot fill D=4
// buckets under any rule).
func TestRouteOpsDoNotGrowWithP(t *testing.T) {
	for alg, spec := range goldenSpec {
		inst, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		routeOps := func(p int) int64 {
			res, err := embsp.Run(inst.Program, workload.Machine(inst.Program, p, 4, 64, 6, 1000), embsp.Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			return res.EM.RouteOps
		}
		one := routeOps(1)
		for _, p := range []int{2, 3, 4} {
			if got := routeOps(p); got >= 2*one {
				t.Errorf("%s: RouteOps at P=%d is %d, %.2f× the P=1 count %d; want < 2×", alg, p, got, float64(got)/float64(one), one)
			}
		}
	}
}
