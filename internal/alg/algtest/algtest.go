// Package algtest provides the shared test harness for the CGM
// algorithm library: every algorithm is run on the in-memory
// reference runner (with context validation), on a sequential EM
// machine and on a parallel EM machine, and all three outputs must
// agree exactly. This is the fidelity contract of the paper's
// simulation — Theorem 1 transports the algorithm unchanged.
package algtest

import (
	"testing"
	"time"

	"embsp/internal/bsp"
	"embsp/internal/core"
)

// Machines returns the EM machine shapes used in algorithm tests: a
// sequential 2-disk machine and a 3-processor 2-disk machine, both
// with memory sized to force multiple groups when possible.
func Machines(p bsp.Program) []core.MachineConfig {
	mu := p.MaxContextWords()
	b := 64
	m := 3*mu + 2*b
	if m < 2*b {
		m = 2 * b
	}
	return []core.MachineConfig{
		{P: 1, M: m, D: 2, B: b, G: 100, Cost: bsp.CostParams{GUnit: 1, GPkt: 16, Pkt: b, L: 10}},
		{P: 3, M: m, D: 2, B: b, G: 100, Cost: bsp.CostParams{GUnit: 1, GPkt: 16, Pkt: b, L: 10}},
	}
}

// RunRef runs the program on the in-memory reference runner with
// context validation enabled (so Save/Load fidelity is always
// exercised) and returns the result.
func RunRef(t *testing.T, p bsp.Program, seed uint64) *bsp.Result {
	t.Helper()
	res, err := bsp.Run(p, bsp.RunOptions{Seed: seed, PktSize: 64, ValidateContexts: true})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return res
}

// RunAll runs the program on the reference runner and on the EM
// machines, checks that extract yields identical words everywhere,
// and returns the reference result.
func RunAll(t *testing.T, p bsp.Program, seed uint64, extract func(vps []bsp.VP) []uint64) *bsp.Result {
	t.Helper()
	ref := RunRef(t, p, seed)
	want := extract(ref.VPs)
	variants := []struct {
		name string
		cfg  core.MachineConfig
		opts core.Options
	}{}
	for _, cfg := range Machines(p) {
		variants = append(variants, struct {
			name string
			cfg  core.MachineConfig
			opts core.Options
		}{name: "randomized", cfg: cfg, opts: core.Options{Seed: seed}})
	}
	// The deterministic (CGM) placement variant, and a durable
	// file-backed run on the pipelined schedule (I/O workers, prefetch,
	// write-behind), which a drive latency picks — the physical schedule
	// must be invisible in every output word.
	seqCfg := Machines(p)[0]
	variants = append(variants,
		struct {
			name string
			cfg  core.MachineConfig
			opts core.Options
		}{name: "deterministic", cfg: seqCfg, opts: core.Options{Seed: seed, Deterministic: true}},
		struct {
			name string
			cfg  core.MachineConfig
			opts core.Options
		}{name: "pipelined", cfg: seqCfg, opts: core.Options{Seed: seed, StateDir: t.TempDir(), DriveLatency: time.Microsecond}},
	)
	for _, vr := range variants {
		res, err := core.Run(p, vr.cfg, vr.opts)
		if err != nil {
			t.Fatalf("EM run (P=%d, %s): %v", vr.cfg.P, vr.name, err)
		}
		got := extract(res.VPs)
		if len(got) != len(want) {
			t.Fatalf("EM run (P=%d, %s): output has %d words, reference %d", vr.cfg.P, vr.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("EM run (P=%d, %s): output word %d = %d, reference %d", vr.cfg.P, vr.name, i, got[i], want[i])
			}
		}
		if res.Costs.Supersteps != ref.Costs.Supersteps {
			t.Errorf("EM run (P=%d, %s): λ = %d, reference %d", vr.cfg.P, vr.name, res.Costs.Supersteps, ref.Costs.Supersteps)
		}
	}
	return ref
}
