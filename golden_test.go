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
// (PR 15), when a batch's messages were packed into shared blocks
// (PR 18) and when its contexts were, and buckets cut by load (PR 20),
// each moved column for the reason beside its rows.
type goldenRow struct {
	alg, store          string
	p                   int
	fingerprint         uint64
	runOps, setupOps    int64
	routeOps, memHighWd int64
}

// PR 20 moved every row: a batch's contexts are packed end to end and
// only the blocks they fill are moved (DESIGN.md §22), routing's buckets
// are cut by load and gathered greedily (§20.2), and a cell is a whole
// batch (§21.2). Per row, PR 18 → PR 20; setupOps is context writes only,
// and runOps falls mostly by the context blocks no longer moved. The
// fingerprints move with the EMStats they hash; final contexts and BSP
// costs are as before. MemHigh falls by the partial last blocks whole-
// batch cells no longer cut (the context buffer is grabbed at the µ
// bound as before).
var goldenTable = []goldenRow{
	// Clean P=1. sort (a live context is a fifth of µ until the last
	// superstep): runOps 2162 → 903, setupOps 200 → 67, routeOps 392 →
	// 328, MemHigh 26880 → 26688.
	{"sort", "array", 1, 0x693ea50b517ddf1c, 903, 67, 328, 26688},
	{"sort", "file", 1, 0x846e811d463fa3da, 903, 67, 328, 26688},
	// listrank (µ is a worst-case subscription bound, a seventh of it
	// live): runOps 27758 → 4193, setupOps 571 → 18, routeOps 1028 → 866,
	// MemHigh 115136 → 115008.
	{"listrank", "array", 1, 0xe5df7a674f08c53a, 4193, 18, 866, 115008},
	{"listrank", "file", 1, 0xd8b540451da5e51e, 4193, 18, 866, 115008},
	// Faulted P=1: runOps 5898 → 2241 and 80400 → 12630, setupOps 1154 →
	// 376 and 3295 → 95; the rest as the clean rows (the fault plan draws
	// per operation).
	{"sort", "mapped+parity+faults", 1, 0x2167643eb91db37c, 2241, 376, 328, 26688},
	{"listrank", "mapped+parity+faults", 1, 0xc78b629628ba5923, 12630, 95, 866, 115008},
	// P=2. sort runOps 2231 → 936, setupOps 200 → 68, routeOps 454 → 346,
	// MemHigh 27008 → 26688; listrank 28107 → 4224, 570 → 18, 1382 → 908,
	// 76992 → 76864.
	{"sort", "array", 2, 0x363137832a64930, 936, 68, 346, 26688},
	{"sort", "file+tier", 2, 0x44ca0460e6251df0, 936, 68, 346, 26688},
	{"listrank", "array", 2, 0xa81049f362dd7d5b, 4224, 18, 908, 76864},
	{"listrank", "file+tier", 2, 0x1467c7ef353bb5ec, 4224, 18, 908, 76864},
	// P=3: ragged ownership — the last processor owns 4 of sort's 16 VPs
	// and 2 of listrank's 8 — where ⌈v/p⌉ does not divide v. sort runOps
	// 2347 → 917, routeOps 572 → 340, MemHigh 26944 → 26688; listrank
	// 28754 → 4376, setupOps 571 → 19, 1928 → 990, 57984 → 57728.
	{"sort", "array", 3, 0x4e886e2904d77da0, 917, 67, 340, 26688},
	{"listrank", "array", 3, 0x4ea2d6cabf72df68, 4376, 19, 990, 57728},
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
// ceilings are the counts of the commit before buckets were cut by load
// (PR 19); the ratio to P=1 is reported against ROADMAP item 4's target
// of 1.25×, which the fixed Step 1(d) buckets missed at every P > 1
// (listrank 1.34×, 1.88×, 2.56×): what grows with P now is one partial
// last block per (sending batch, destination batch) stream.
func TestRouteOpsDoNotGrowWithP(t *testing.T) {
	ceilings := map[string][4]int64{
		"sort":     {392, 454, 572, 506},
		"listrank": {1028, 1382, 1928, 2634},
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
			ratio := float64(got) / float64(one)
			t.Logf("%s: RouteOps at P=%d is %d, %.2f× the P=1 count (target 1.25×)", alg, p, got, ratio)
			if got > ceiling {
				t.Errorf("%s: RouteOps at P=%d is %d (%.2f× the P=1 count %d); want <= %d", alg, p, got, ratio, one, ceiling)
			}
		}
	}
}
