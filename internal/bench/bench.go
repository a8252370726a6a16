// Package bench holds the experiments that reproduce the paper's
// evaluation: every row of Table 1 (the EM algorithms obtained by
// simulating CGM algorithms, against the previously known sequential
// EM algorithms), Figure 2 (the SimulateRouting block reorganization),
// and the paper's probabilistic and scaling claims (Lemma 2, Lemma 10,
// the "factor of D" and blocking-factor arguments of Section 1,
// Observation 1/2). Every experiment reports model counts, verified
// against the in-memory reference, and none reads a clock: performance
// is measured by the benchmark/ module, the one perf harness. Each
// experiment is registered under a stable id and prints a
// self-contained table; cmd/embsp-bench runs them and bench_test.go
// wraps them as Go benchmarks. EXPERIMENTS.md records paper-vs-measured
// for each.
package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"embsp/internal/bsp"
	"embsp/internal/core"
	"embsp/internal/redundancy"
)

// runRedundancy is applied to every standard-machine run so the whole
// Table 1 suite can be re-measured under a redundancy mode
// (cmd/embsp-bench -redundancy).
var runRedundancy redundancy.Mode

// SetRedundancy selects the drive-redundancy mode for subsequent
// experiment runs.
func SetRedundancy(mode redundancy.Mode) { runRedundancy = mode }

// Scale selects workload sizes: Small for tests and Go benchmarks,
// Medium for the default CLI run, Large for thorough runs.
type Scale int

const (
	// Small is the test/benchmark scale (sub-second experiments).
	Small Scale = iota
	// Medium is the default CLI scale.
	Medium
	// Large is the thorough scale.
	Large
)

// ParseScale maps a flag value to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	}
	return 0, fmt.Errorf("bench: unknown scale %q (want small, medium or large)", s)
}

// pick returns the scale-appropriate value.
func pick(s Scale, small, medium, large int) int {
	switch s {
	case Small:
		return small
	case Medium:
		return medium
	default:
		return large
	}
}

// bFor returns the standard block size for a scale.
func bFor(s Scale) int { return pick(s, 64, 128, 256) }

// Experiment is one registered, runnable reproduction experiment.
type Experiment struct {
	// ID is the stable identifier (e.g. "table1/sorting").
	ID string
	// Title is a one-line description.
	Title string
	// Reproduces names the paper artifact this regenerates.
	Reproduces string
	// Workload names the registry workload (workload.Names) a Table 1
	// row simulates; empty for the other experiments and for the rows
	// composed of several programs.
	Workload string
	// Run executes the experiment, writing its table to w.
	Run func(w io.Writer, s Scale) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments returns all registered experiments, sorted by ID.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// newTable returns a tab-aligned writer; call Flush when done.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// machineFor builds an EM machine for a program: memory sized to hold
// groupsTarget-th of the VPs at a time (at least one context and one
// stripe), with the standard cost parameters.
func machineFor(p bsp.Program, procs, d, b, groupsTarget int) core.MachineConfig {
	mu := p.MaxContextWords()
	v := p.NumVPs()
	vpp := (v + procs - 1) / procs
	k := (vpp + groupsTarget - 1) / groupsTarget
	if k < 1 {
		k = 1
	}
	m := k * mu
	if m < 2*d*b {
		m = 2 * d * b
	}
	return core.MachineConfig{
		P: procs, M: m, D: d, B: b, G: 1000,
		Cost: bsp.CostParams{GUnit: 1, GPkt: float64(b), Pkt: b, L: 100},
	}
}

// sameStates checks that a run's final VP states are bitwise those of
// the reference run.
func sameStates(want, got []bsp.VP) error {
	if d := core.Diff(&core.Result{VPs: want}, &core.Result{VPs: got}); d != "" {
		return fmt.Errorf("final states differ from the reference run: %s", d)
	}
	return nil
}

// emRow holds one measured configuration for the standard Table 1
// row layout.
type emRow struct {
	label string
	res   *core.Result
}

// printEMRows prints the standard columns for a set of EM runs.
func printEMRows(tw io.Writer, rows []emRow, g float64, theoryOps func(p, d int) float64, pd map[string][2]int) {
	fmt.Fprintf(tw, "config\tλ\tgroups\tI/O ops\tblocks\tutil\tT_IO\tmeas/theory\n")
	for _, r := range rows {
		em := r.res.EM
		th := 0.0
		if theoryOps != nil {
			cfg := pd[r.label]
			th = theoryOps(cfg[0], cfg[1])
		}
		ratio := "-"
		if th > 0 {
			// Compare the per-processor critical-path ops (IOTime/G)
			// against the per-processor theory.
			ratio = fmt.Sprintf("%.2f", em.IOTime/g/th)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.2f\t%.3g\t%s\n",
			r.label, r.res.Costs.Supersteps, em.Groups,
			em.Run.Ops, em.Run.Blocks(), em.Run.Utilization(), em.IOTime, ratio)
	}
}

// standardMachines runs a program on the standard machine sweep
// (1 proc 1 disk, 1 proc 4 disks, 4 procs 4 disks) and returns rows.
func standardMachines(p bsp.Program, b int, seed uint64) ([]emRow, map[string][2]int, error) {
	shapes := []struct {
		label string
		procs int
		d     int
	}{
		{"p=1 D=1", 1, 1},
		{"p=1 D=4", 1, 4},
		{"p=4 D=4", 4, 4},
	}
	var rows []emRow
	pd := map[string][2]int{}
	for _, sh := range shapes {
		cfg := machineFor(p, sh.procs, sh.d, b, 8)
		opts := core.Options{Seed: seed, Redundancy: runRedundancy}
		if sh.d == 1 {
			// Neither mirroring nor parity fits on a single drive.
			opts.Redundancy = redundancy.None
		}
		res, err := core.Run(p, cfg, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", sh.label, err)
		}
		rows = append(rows, emRow{label: sh.label, res: res})
		pd[sh.label] = [2]int{sh.procs, sh.d}
	}
	return rows, pd, nil
}
