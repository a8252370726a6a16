package embsp_test

import (
	"fmt"
	"testing"

	"embsp"
	"embsp/internal/core"
	"embsp/internal/disk"
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
// moved column for the reason beside its rows; the two parity rows again
// when parity came to be folded at write (PR 22).
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
	// Faulted P=1, the only rows PR 22 moved (PR 21 → PR 22). sort:
	// runOps 1385 → 737, setupOps 172 → 102; listrank: 10248 → 4248,
	// 44 → 25. Parity is folded from the data a write holds in memory and
	// every stripe leaves with its superstep (DESIGN.md §10), so what a
	// run pays for parity is the parity blocks' writes — the flush's
	// read-back, the old-data and parity reads of contexts rewritten over
	// dead ones, and the reads at release are gone
	// (TestParityReadsNothingBack) — and the setup, which only writes,
	// pays ⌈parity blocks/D⌉. The fingerprints move with the EMStats they
	// hash; final contexts and BSP costs are as before.
	{"sort", "mapped+parity+faults", 1, 0x22336b53c022d83, 737, 102, 0, 26688},
	{"listrank", "mapped+parity+faults", 1, 0x41cf198ce56b3c2, 4248, 25, 0, 115008},
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

// TestParityReadsNothingBack is PR 22's claim as a model count. A
// checkpointed run with parity and no fault reads exactly what the same
// run reads without parity: the parity layer folds what a write holds in
// memory, and every stripe leaves whole at the commit that frees its
// superstep's blocks, so nothing is read back — not at the flush, not
// before a context is overwritten, not at a release. What parity adds is
// its blocks' writes: ⌈parity blocks/D⌉ operations if every one were
// full, one more per barrier for the stripes the flush closes short, and
// the share of the cache bound — D full stripes go to disk as soon as
// there are D, and split in two operations where their parity drives
// collide (measured: one early write in seven; allowed: one in four).
// That bound on the cache is pinned too: the parity blocks the layer
// holds outside M never exceed 3·D.
func TestParityReadsNothingBack(t *testing.T) {
	for alg, spec := range goldenSpec {
		for _, p := range []int{1, 2} {
			run := func(mode embsp.Redundancy) (*embsp.Result, *embsp.MetricsRegistry) {
				inst, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				reg := embsp.NewMetricsRegistry()
				res, err := embsp.Run(inst.Program, workload.Machine(inst.Program, p, 4, 64, 6, 1000),
					embsp.Options{Seed: 7, StateDir: t.TempDir(), Redundancy: mode, Metrics: reg})
				if err != nil {
					t.Fatal(err)
				}
				return res, reg
			}
			bare, _ := run(embsp.RedundancyNone)
			res, reg := run(embsp.RedundancyParity)
			label := fmt.Sprintf("%s P=%d", alg, p)
			const D = 4
			for _, ph := range []struct {
				name       string
				with, bare disk.Stats
				barriers   int64
			}{
				{"setup", res.EM.Setup, bare.EM.Setup, int64(p)},
				{"run", res.EM.Run, bare.EM.Run, int64(p * res.Costs.Supersteps)},
			} {
				if ph.with.ReadOps != ph.bare.ReadOps || ph.with.BlocksRead != ph.bare.BlocksRead {
					t.Errorf("%s %s: %d read operations (%d blocks) with parity, %d (%d) without: parity reads something back",
						label, ph.name, ph.with.ReadOps, ph.with.BlocksRead, ph.bare.ReadOps, ph.bare.BlocksRead)
				}
				blocks, ops := ph.with.BlocksWritten-ph.bare.BlocksWritten, ph.with.WriteOps-ph.bare.WriteOps
				full := (blocks + D - 1) / D
				if bound := full + ph.barriers + full/4; blocks <= 0 || ops > bound {
					t.Errorf("%s %s: parity wrote %d blocks in %d operations, want <= %d (%d full, %d barriers, %d for early writes that split)",
						label, ph.name, blocks, ops, bound, full, ph.barriers, full/4)
				}
			}
			if got := reg.Counter("parity_read_ops").Value(); got != 0 {
				t.Errorf("%s: parity_read_ops = %d, want 0", label, got)
			}
			if got := reg.Counter("parity_ops").Value(); got != res.EM.ParityOps || got == 0 {
				t.Errorf("%s: parity_ops = %d, EMStats.ParityOps = %d", label, got, res.EM.ParityOps)
			}
			if peak := reg.Counter("parity_cache_peak_blocks").Value(); peak <= 0 || peak > 3*D {
				t.Errorf("%s: the parity cache peaked at %d blocks, want within (0, 3·D = %d]", label, peak, 3*D)
			}
		}
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
