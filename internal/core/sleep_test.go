package core_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"embsp"
	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/core"
	"embsp/internal/fault"
	"embsp/internal/redundancy"
	"embsp/internal/workload"
)

// TestSleepContractMutation: the skip is exact only under bsp.VP's sleep
// contract. A sleeper that counts the Steps it gets with an empty inbox
// breaks it: ValidateContexts rejects it by name, and the EM engines —
// which step every VP of a batch they load, VP 0's batch mates asleep
// included, and skip the batches of sleepers alone — end with other
// counters than the plain reference run, which steps no sleeper. The
// same program keeping the contract runs bitwise identically everywhere.
func TestSleepContractMutation(t *testing.T) {
	bad := &bsptest.SleeperProgram{V: 8, Rounds: 3, Bump: true}
	if _, err := bsp.Run(bad, bsp.RunOptions{Seed: 1, ValidateContexts: true}); err == nil ||
		!strings.Contains(err.Error(), "VP 1 (*bsptest.sleeperVP) broke the sleep contract") {
		t.Errorf("ValidateContexts on a counting sleeper: %v, want the contract error naming VP 1", err)
	}
	for _, prog := range []*bsptest.SleeperProgram{bad, {V: 8, Rounds: 3}} {
		ref, err := bsp.Run(prog, bsp.RunOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := bsptest.SleeperCounters(ref.VPs)
		for _, p := range []int{1, 3} {
			// k = M/µ = 2: VP 0's batch holds VP 1, and the other batches
			// are sleepers alone.
			res, err := core.Run(prog, parMachine(p, 2, 8, 16), core.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			got := bsptest.SleeperCounters(res.VPs)
			switch {
			case prog.Bump && slices.Equal(got, want):
				t.Errorf("P=%d: a sleeper that breaks the contract ends with the reference's counters %v", p, got)
			case prog.Bump && got[1] != uint64(prog.Rounds):
				t.Errorf("P=%d: VP 1, VP 0's batch mate, counted %d empty Steps, want %d", p, got[1], prog.Rounds)
			case !prog.Bump && (!slices.Equal(got, want) || !slices.Equal(res.Costs.PerStep, ref.Costs.PerStep)):
				t.Errorf("P=%d: a sleeper that keeps the contract ends with counters %v and costs %v, reference %v and %v",
					p, got, res.Costs.PerStep, want, ref.Costs.PerStep)
			}
		}
	}
}

// skipMeter counts, at every barrier, the batches each processor's
// superstep skipped.
type skipMeter struct {
	core.Transport
	pairs int
}

func (m *skipMeter) Commit(step int) error {
	for _, h := range core.HoldingsOf(m.Transport) {
		m.pairs += len(h.Skipped)
	}
	return m.Transport.Commit(step)
}

// TestSleepingBatchesTable1 counts the (processor, superstep, batch)
// triples the Table 1 workloads skip, on Table 1's machine shapes at
// p = 1 and p = 4 (eight batches a processor; one-VP batches at p = 4),
// and pins them beside the triples the run simulates. Only the programs
// that run cgm.Sorter sleep, through its phase 1, where VP 0 alone merges
// the samples: every processor then skips every batch but two — the one
// it holds in memory, which is never skipped, and the superstep's last,
// which VP 0's splitters wake in the next — six of eight, once a sort
// (dominance sorts twice). Every run still equals the reference.
func TestSleepingBatchesTable1(t *testing.T) {
	want := map[string][2]int{
		"sort": {6, 24}, "permute": {0, 0}, "transpose": {0, 0}, "maxima": {6, 24},
		"dominance": {12, 48}, "rectunion": {6, 24}, "hull": {6, 24}, "envelope": {6, 24},
		"nextelement": {6, 24}, "nn": {6, 24}, "listrank": {0, 0}, "euler": {0, 0}, "cc": {0, 0},
	}
	var table strings.Builder
	fmt.Fprintf(&table, "%-12s %3s %14s %14s\n", "workload", "λ", "p=1 skipped", "p=4 skipped")
	for _, name := range workload.Table1Names() {
		inst, err := workload.Spec{Alg: name, N: 1024, V: 32, Seed: 5}.Build()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := embsp.RunReference(inst.Program, 5)
		if err != nil {
			t.Fatal(err)
		}
		var got [2]int
		var cells [2]string
		for i, p := range []int{1, 4} {
			k := (32/p + 7) / 8
			cfg := workload.Machine(inst.Program, p, 4, 64, k, 1000)
			var m *skipMeter
			res, err := core.RunOver(func(inner core.Transport) core.Transport {
				m = &skipMeter{Transport: inner}
				return m
			}, inst.Program, cfg, core.Options{Seed: 5})
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			if res.EM.K != k || !slices.Equal(contexts(res.VPs), contexts(ref.VPs)) {
				t.Fatalf("%s p=%d: k = %d (want %d), or final contexts differ from the reference run's", name, p, res.EM.K, k)
			}
			got[i] = m.pairs
			cells[i] = fmt.Sprintf("%d of %d", m.pairs, res.Costs.Supersteps*p*res.EM.Groups)
		}
		fmt.Fprintf(&table, "%-12s %3d %14s %14s\n", name, ref.Costs.Supersteps, cells[0], cells[1])
		if got != want[name] {
			t.Errorf("%s: skipped %v (p=1, p=4), want %v", name, got, want[name])
		}
	}
	t.Logf("skipped (processor, superstep, batch) triples of all simulated:\n%s", table.String())
}

// TestSleepBitwiseTable1: on machines where a sort's sleepers fill whole
// batches — eight batches a processor at P = 1, three at P = 3, of which
// the middle one is neither held nor last — the 13 Table 1 workloads end
// with the reference runner's contexts and costs (the reference checking
// every sleeper's contract), in place and durable under parity with
// transient faults and a drive death, and the durable runs agree with
// each other in every EM statistic across stores.
func TestSleepBitwiseTable1(t *testing.T) {
	const seed = 23
	for _, name := range workload.Table1Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			inst, err := workload.Spec{Alg: name, N: 512, V: 16, Seed: seed}.Build()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := bsp.Run(inst.Program, bsp.RunOptions{Seed: seed, PktSize: 16, ValidateContexts: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 3} {
				cfg := workload.Machine(inst.Program, p, 4, 16, 2, 100) // k = 2
				faulty := func(mapped bool) core.Options {
					return core.Options{Seed: seed, StateDir: t.TempDir(), MappedStore: mapped,
						Redundancy: redundancy.Parity,
						FaultPlan: &fault.Plan{Seed: seed, ReadErrorRate: 0.01, WriteErrorRate: 0.01, CorruptRate: 0.01,
							FailDrive: 1, FailDriveOp: 10, FailProc: p - 1}}
				}
				var runs []*core.Result
				for i, opts := range []core.Options{{Seed: seed}, faulty(false), faulty(true)} {
					var m *skipMeter
					res, err := core.RunOver(func(inner core.Transport) core.Transport {
						m = &skipMeter{Transport: inner}
						return m
					}, inst.Program, cfg, opts)
					if err != nil {
						t.Fatalf("P=%d run %d: %v", p, i, err)
					}
					if !slices.Equal(contexts(res.VPs), contexts(ref.VPs)) || !slices.Equal(res.Costs.PerStep, ref.Costs.PerStep) {
						t.Fatalf("P=%d run %d: contexts or costs differ from the reference run's", p, i)
					}
					if sorts := name != "permute" && name != "transpose" && name != "listrank" && name != "euler" && name != "cc"; sorts != (m.pairs > 0) {
						t.Errorf("P=%d run %d: %d batches skipped", p, i, m.pairs)
					}
					runs = append(runs, res)
				}
				if d := core.Diff(runs[1], runs[2]); d != "" {
					t.Errorf("P=%d: the file and the mapped run under parity and faults differ: %s", p, d)
				}
			}
		})
	}
}
