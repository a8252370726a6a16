package embsp_test

import (
	"fmt"
	"testing"

	"embsp"
	"embsp/internal/core"
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
// (PR 18), when its contexts were, and buckets cut by load (PR 20), and
// when blocks came to be read where their writer put them (PR 21), each
// moved column for the reason beside its rows.
type goldenRow struct {
	alg, store          string
	p                   int
	fingerprint         uint64
	runOps, setupOps    int64
	routeOps, memHighWd int64
}

// PR 21 moved every row: a superstep's message blocks are read where
// the writer put them unless routing would be cheaper (DESIGN.md §7) —
// on these four-drive machines it never is, so routeOps is 0 and runOps
// falls by Algorithm 2's operations and a little more: the writer places
// a batch's blocks by the directory's counts, so its scattered read is
// within one operation of ⌈R_g/D⌉, and makes one partial write a
// superstep where it made one a batch. Per row, PR 20 → PR 21; setupOps
// and MemHigh are as they were except under parity, whose flush now
// costs its fullest drive's share of reads where it cost one operation a
// track. The fingerprints move with the EMStats they hash; final
// contexts and BSP costs are as before. An instance's array and durable
// rows hash alike now: with no routing between an input's release and
// the barrier, the allocator hands out the same tracks with and without
// the checkpoint discipline.
var goldenTable = []goldenRow{
	// Clean P=1. sort: runOps 903 → 572, routeOps 328 → 0.
	{"sort", "array", 1, 0x7e8218636efd1eb4, 572, 67, 0, 26688},
	{"sort", "file", 1, 0x7e8218636efd1eb4, 572, 67, 0, 26688},
	// listrank: runOps 4193 → 3306, routeOps 866 → 0.
	{"listrank", "array", 1, 0x668c853f51915d73, 3306, 18, 0, 115008},
	{"listrank", "file", 1, 0x668c853f51915d73, 3306, 18, 0, 115008},
	// Faulted P=1: runOps 2241 → 1385 and 12630 → 10248, setupOps 376 →
	// 172 and 95 → 44 (the parity flush's read-back and write-back in
	// full operations, redundancy.rounds); routeOps as the clean rows.
	{"sort", "mapped+parity+faults", 1, 0x74f2d972b3f6df9d, 1385, 172, 0, 26688},
	{"listrank", "mapped+parity+faults", 1, 0x60b65b77adf429b7, 10248, 44, 0, 115008},
	// P=2, every processor deciding for its own directory. sort runOps
	// 936 → 586, routeOps 346 → 0; listrank 4224 → 3316, 908 → 0.
	{"sort", "array", 2, 0xa46c021f6eb2f79e, 586, 68, 0, 26688},
	{"sort", "file+tier", 2, 0xa46c021f6eb2f79e, 586, 68, 0, 26688},
	{"listrank", "array", 2, 0x96ccd40720fcf6cf, 3316, 18, 0, 76864},
	{"listrank", "file+tier", 2, 0x96ccd40720fcf6cf, 3316, 18, 0, 76864},
	// P=3: ragged ownership — the last processor owns 4 of sort's 16 VPs
	// and 2 of listrank's 8 — where ⌈v/p⌉ does not divide v. sort runOps
	// 917 → 577, routeOps 340 → 0; listrank 4376 → 3386, 990 → 0.
	{"sort", "array", 3, 0xc11355caaa277a75, 577, 67, 0, 26688},
	{"listrank", "array", 3, 0xc9fc27f6a1c6c797, 3386, 19, 0, 57728},
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
// processors must not multiply the machine's total routing work — with
// routing forced, since the rule routes no superstep of these runs. The
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
			res, err := embsp.Run(inst.Program, workload.Machine(inst.Program, p, 4, 64, 6, 1000),
				core.ForceRouting(embsp.Options{Seed: 7}, core.RouteAlways))
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
