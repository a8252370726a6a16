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
// (PR 15) and when a batch's messages were packed into shared blocks
// (PR 18), each moved column for the reason beside its rows.
type goldenRow struct {
	alg, store          string
	p                   int
	fingerprint         uint64
	runOps, setupOps    int64
	routeOps, memHighWd int64
}

// PR 18 moved every row but no setupOps: message blocks are cut from a
// cell's packed stream (DESIGN.md §21) instead of one per message, so
// there are fewer of them to write, route and fetch, and fewer held in
// memory at once. Per row, PR 15 → PR 18. The fingerprints move with the
// EMStats they hash; final contexts and BSP costs are as before.
var goldenTable = []goldenRow{
	// Clean P=1. sort: runOps 2371 → 2162, routeOps 540 → 392, MemHigh
	// 29824 → 26880 (its all-to-all sends 256 messages of 64 words, which
	// at B=64 took two blocks each, the second nearly empty).
	{"sort", "array", 1, 0x7c738be5c5c58e7f, 2162, 200, 392, 26880},
	{"sort", "file", 1, 0x788c77523955cb2f, 2162, 200, 392, 26880},
	// listrank (messages of 2–3 words): runOps 31534 → 27758, routeOps
	// 3710 → 1028, MemHigh 139264 → 115136.
	{"listrank", "array", 1, 0x3c7584b4dcdad574, 27758, 571, 1028, 115136},
	{"listrank", "file", 1, 0x670d0cc6674a0010, 27758, 571, 1028, 115136},
	// Faulted P=1: runOps 6277 → 5898 and 90295 → 80400; the rest as the
	// clean rows (the fault plan draws per operation).
	{"sort", "mapped+parity+faults", 1, 0xedc7b088052e05aa, 5898, 1154, 392, 26880},
	{"listrank", "mapped+parity+faults", 1, 0x370693c83a22ef84, 80400, 3295, 1028, 115136},
	// P=2, under PR 15's bucket rule (buckets are VP ranges of a
	// processor, Algorithm 1 Step 1(d), so all D fill). sort runOps 2404 →
	// 2231, routeOps 568 → 454, MemHigh 29568 → 27008; listrank 31753 →
	// 28107, 3934 → 1382, 93760 → 76992.
	{"sort", "array", 2, 0x190c18d81a53a2cd, 2231, 200, 454, 27008},
	{"sort", "file+tier", 2, 0x8c748ff37416f813, 2231, 200, 454, 27008},
	{"listrank", "array", 2, 0x8ff805a2523473fd, 28107, 570, 1382, 76992},
	{"listrank", "file+tier", 2, 0xd13e30e076ecfd94, 28107, 570, 1382, 76992},
	// P=3: ragged ownership — the last processor owns 4 of sort's 16 VPs
	// and 2 of listrank's 8 — pins the VP-range rule, and the cell rule
	// built on it, where ⌈v/p⌉ does not divide v. sort runOps 2619 → 2347,
	// routeOps 782 → 572, MemHigh 29824 → 26944; listrank 33277 → 28754,
	// 5404 → 1928, 70080 → 57984.
	{"sort", "array", 3, 0xe4dfeb0cb494501c, 2347, 200, 572, 26944},
	{"listrank", "array", 3, 0xb93753609b323450, 28754, 571, 1928, 57984},
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
// processors must not multiply the machine's total routing work. The
// ceilings are the counts of the commit before messages shared blocks
// (PR 17), where PR 15's VP-range bucket rule had brought every P under
// 2× the P=1 count. Packing cut the counts at every P but the P=1 count
// most (listrank 3710 → 1028), so the ratio to P=1 is reported, not
// bounded: what is left of the growth with P is one partial last block
// per stream, and there are P·(cells) times as many streams per batch
// (ROADMAP item 4).
func TestRouteOpsDoNotGrowWithP(t *testing.T) {
	ceilings := map[string][4]int64{
		"sort":     {540, 568, 782, 634},
		"listrank": {3710, 3934, 5404, 6936},
	}
	for alg, spec := range goldenSpec {
		inst, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		var one int64
		for p, ceiling := range ceilings[alg] {
			p++
			res, err := embsp.Run(inst.Program, workload.Machine(inst.Program, p, 4, 64, 6, 1000), embsp.Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			got := res.EM.RouteOps
			if p == 1 {
				one = got
			}
			if got > ceiling {
				t.Errorf("%s: RouteOps at P=%d is %d (%.2f× the P=1 count %d); want <= %d", alg, p, got, float64(got)/float64(one), one, ceiling)
			}
		}
	}
}
