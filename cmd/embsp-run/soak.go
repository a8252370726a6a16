package main

// Chaos-soak mode (-soak): for a wall-clock budget, repeatedly draw a
// random Table 1 workload, machine shape, redundancy mode and fault
// schedule — transient faults, permanent drive deaths, mid-run kills
// with journal resume — and check every completed run bitwise against
// the in-memory reference. Any divergence prints the full repro
// parameters and exits nonzero.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"embsp"
	"embsp/internal/core"
	"embsp/internal/prng"
	"embsp/internal/workload"
)

// soakCase is one drawn schedule, printable as a repro line.
type soakCase struct {
	alg       string
	n, v      int
	procs     int
	d, b      int
	seed      uint64
	mode      embsp.Redundancy
	plan      *embsp.FaultPlan
	killStep  int // superstep after whose commit the run is cancelled and resumed; -1 = none
	crashStep int // superstep during which one VP panics mid-superstep; -1 = none
	// The emulated drive latency, drawn independently for the first
	// attempt and the resume. It picks the physical schedule of the
	// durable store (synchronous at zero, I/O workers and the group
	// pipeline under latency) and is outside the config fingerprint, so
	// a run may legally die under one schedule and resume under the
	// other — the soak crosses them on purpose.
	latency, resumeLatency time.Duration
}

func (c soakCase) String() string {
	s := fmt.Sprintf("alg=%s n=%d v=%d p=%d d=%d b=%d seed=%d redundancy=%v drive-latency=%v",
		c.alg, c.n, c.v, c.procs, c.d, c.b, c.seed, c.mode, c.latency)
	if c.killStep >= 0 || c.crashStep >= 0 {
		s += fmt.Sprintf(" resume-drive-latency=%v", c.resumeLatency)
	}
	if c.plan != nil {
		s += fmt.Sprintf(" faults={seed=%d read=%g write=%g corrupt=%g faildrive=%d@%d failproc=%d}",
			c.plan.Seed, c.plan.ReadErrorRate, c.plan.WriteErrorRate, c.plan.CorruptRate,
			c.plan.FailDrive, c.plan.FailDriveOp, c.plan.FailProc)
	}
	if c.killStep >= 0 {
		s += fmt.Sprintf(" kill-after-step=%d", c.killStep)
	}
	if c.crashStep >= 0 {
		s += fmt.Sprintf(" crash-in-step=%d", c.crashStep)
	}
	return s
}

// crashProgram wraps a Program so VP v/2 panics when it starts
// computing superstep step — a mid-superstep crash that leaves the
// failed superstep's partial in-place writes in the state directory
// behind the committed journal record, unlike killStep's clean
// cancellation at a committed barrier. Every VP is wrapped and the
// victim is found by Env.ID: an engine steps VP v/2 in whichever object
// its slot holds.
type crashProgram struct {
	embsp.Program
	step int
}

func (p *crashProgram) NewVP(id int) embsp.VP {
	return &crashVP{VP: p.Program.NewVP(id), p: p}
}

type crashVP struct {
	embsp.VP
	p *crashProgram
}

func (v *crashVP) Step(env *embsp.Env, in []embsp.Message) (bool, error) {
	if env.ID() == v.p.NumVPs()/2 && env.Superstep() == v.p.step {
		panic(fmt.Sprintf("soak: injected crash in superstep %d", v.p.step))
	}
	return v.VP.Step(env, in)
}

// drawCase samples one schedule from r over the allowed workloads.
func drawCase(r *prng.Rand, table []string) soakCase {
	c := soakCase{
		alg:       table[r.Intn(len(table))],
		n:         40 + r.Intn(32),
		v:         4 + r.Intn(5),
		procs:     1 + 2*r.Intn(2), // 1 or 3
		d:         3 + r.Intn(2),
		b:         16,
		seed:      r.Uint64(),
		killStep:  -1,
		crashStep: -1,
	}
	latencies := []time.Duration{0, 20 * time.Microsecond} // synchronous, pipelined
	c.latency = latencies[r.Intn(2)]
	c.resumeLatency = latencies[r.Intn(2)] // the resume may switch schedules
	c.mode = []embsp.Redundancy{embsp.RedundancyMirror, embsp.RedundancyParity}[r.Intn(2)]
	plan := &embsp.FaultPlan{
		Seed:           r.Uint64(),
		ReadErrorRate:  r.Float64() * 0.02,
		WriteErrorRate: r.Float64() * 0.02,
		CorruptRate:    r.Float64() * 0.02,
	}
	if r.Bool() {
		plan.FailDriveOp = int64(5 + r.Intn(80))
		plan.FailDrive = r.Intn(c.d)
		plan.FailProc = r.Intn(c.procs)
	}
	c.plan = plan
	if r.Bool() {
		if r.Bool() {
			c.killStep = r.Intn(3)
		} else {
			// >= 1 so at least one barrier committed before the crash.
			c.crashStep = 1 + r.Intn(3)
		}
	}
	return c
}

// runCase executes one schedule and compares it bitwise against the
// reference. It returns an error describing the divergence, if any.
func runCase(c soakCase) error {
	inst, err := (workload.Spec{Alg: c.alg, N: c.n, V: c.v, Seed: c.seed}).Build()
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	prog := inst.Program
	ref, err := embsp.RunReference(prog, c.seed)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	cfg := embsp.MachineConfig{
		P: c.procs, M: 4 * prog.MaxContextWords(), D: c.d, B: c.b, G: 100,
		Cost: embsp.CostParams{GUnit: 1, GPkt: 64, Pkt: 64, L: 10},
	}
	opts := embsp.Options{
		Seed:         c.seed,
		FaultPlan:    c.plan,
		Redundancy:   c.mode,
		DriveLatency: c.latency,
	}
	var res *embsp.Result
	if c.killStep >= 0 || c.crashStep >= 0 {
		// Simulated power loss, then a resume from the journal that must
		// produce the identical Result. killStep cancels cleanly at a
		// committed barrier; crashStep panics mid-superstep, leaving the
		// failed superstep's partial writes in the state directory.
		dir, err := os.MkdirTemp("", "embsp-soak-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts.StateDir = dir
		if c.crashStep >= 0 {
			_, err = embsp.Run(&crashProgram{Program: prog, step: c.crashStep}, cfg, opts)
			var pe *embsp.ProgramError
			switch {
			case err == nil:
				// The run finished before the crash step: nothing to resume.
			case errors.As(err, &pe):
			default:
				return fmt.Errorf("crashed run: %w", err)
			}
		} else {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			killOpts := opts
			killOpts.OnCommit = func(step int) {
				if step == c.killStep {
					cancel()
				}
			}
			_, err = embsp.RunContext(ctx, prog, cfg, killOpts)
			switch {
			case err == nil:
				// The run finished before the kill step: nothing to resume.
			case errors.Is(err, context.Canceled):
			default:
				return fmt.Errorf("killed run: %w", err)
			}
		}
		opts.Resume = true
		opts.DriveLatency = c.resumeLatency
		res, err = embsp.Run(prog, cfg, opts)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
	} else {
		res, err = embsp.Run(prog, cfg, opts)
		if err != nil {
			return err
		}
	}
	if d := core.Diff(&core.Result{VPs: ref.VPs}, &core.Result{VPs: res.VPs}); d != "" {
		return fmt.Errorf("final states differ from the reference: %s", d)
	}
	return nil
}

// runSoak drives random schedules until the duration expires. It
// returns the process exit code.
func runSoak(duration time.Duration, algsCSV string, seed uint64) int {
	table := workload.Table1Names()
	if algsCSV != "" {
		want := make(map[string]bool)
		for _, a := range strings.Split(algsCSV, ",") {
			want[strings.TrimSpace(a)] = true
		}
		var filtered []string
		for _, name := range table {
			if want[name] {
				filtered = append(filtered, name)
				delete(want, name)
			}
		}
		if len(want) > 0 || len(filtered) == 0 {
			fmt.Fprintf(os.Stderr, "soak: unknown workloads in -soak-algs %q\n", algsCSV)
			return 2
		}
		table = filtered
	}
	r := prng.New(seed)
	deadline := time.Now().Add(duration)
	runs := 0
	for time.Now().Before(deadline) {
		c := drawCase(r, table)
		if err := runCase(c); err != nil {
			fmt.Fprintf(os.Stderr, "soak FAILED after %d clean runs: %v\nrepro: %s\n", runs, err, c)
			return 1
		}
		runs++
	}
	fmt.Printf("soak: %d runs over %v, all bitwise identical to the reference\n", runs, duration)
	return 0
}
