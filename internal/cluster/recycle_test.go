package cluster

import (
	"os"
	"path/filepath"
	"testing"

	"embsp/internal/bsp"
	"embsp/internal/core"
	"embsp/internal/workload"
)

// wireMachine is a small two-processor machine with blocks of 8 words,
// so that a run's messages fill many of them.
func wireMachine() core.MachineConfig {
	return core.MachineConfig{
		P: 2, M: 256, D: 2, B: 8, G: 10,
		Cost: bsp.CostParams{GUnit: 1, GPkt: 2, Pkt: 16, L: 5},
	}
}

// TestRecycledPayloadsHaveOneOwner: a link stamps every payload it takes
// back with a canary before its reader may fill it again, and a cluster
// run over real links — sort and list ranking, two workers — still
// matches the in-process oracle field for field. So nothing, on either
// side, reads a received message after the next Recv on its link
// returned: not the worker's WRITE batches, and not the coordinator's
// COMPUTE_OUT rows, which it relays in the next fan-out.
func TestRecycledPayloadsHaveOneOwner(t *testing.T) {
	poisonRecycled.Store(true)
	defer poisonRecycled.Store(false)
	cfg := wireMachine()
	for _, spec := range []workload.Spec{
		{Alg: "sort", N: 96, V: 8, Seed: 41},
		{Alg: "listrank", N: 64, V: 8, Seed: 42},
	} {
		inst, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		opts := core.Options{Seed: spec.Seed}
		oracle, err := core.Run(inst.Program, cfg, core.Options{Seed: spec.Seed, StateDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		res, err := loopbackRun(t, inst.Program, cfg, opts, t.TempDir(), nil)
		if err != nil {
			t.Fatalf("%s: %v", spec.Alg, err)
		}
		if d := core.Diff(res, oracle); d != "" {
			t.Errorf("%s: the cluster run differs from the in-process oracle in %s", spec.Alg, d)
		}
	}
}

// TestFreshRunOpensEveryNodeOnce: the coordinator of a fresh run answers
// every worker's HELLO with RESET, and a worker whose engine was opened
// fresh and has served nothing is already what a RESET makes: it keeps
// its state directory instead of wiping it and opening the node again. A
// marker file each worker's directory holds from its open on survives
// the run, and the run matches the oracle.
func TestFreshRunOpensEveryNodeOnce(t *testing.T) {
	spec := workload.Spec{Alg: "sort", N: 96, V: 8, Seed: 41}
	inst, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := wireMachine()
	opts := core.Options{Seed: spec.Seed}
	var markers []string
	res, err := loopbackRun(t, inst.Program, cfg, opts, t.TempDir(), func(w *Worker) {
		if err := w.Open(); err != nil {
			t.Fatal(err)
		}
		if !w.fresh {
			t.Fatalf("worker %d: a directory with no journal opened as a resumed node", w.NodeID)
		}
		m := filepath.Join(w.Dir, "opened-once")
		if err := os.WriteFile(m, nil, 0o666); err != nil {
			t.Fatal(err)
		}
		markers = append(markers, m)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range markers {
		if _, err := os.Stat(m); err != nil {
			t.Errorf("the RESET of a fresh run wiped a freshly opened node: %v", err)
		}
	}
	oracle, err := core.Run(inst.Program, cfg, core.Options{Seed: spec.Seed, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if d := core.Diff(res, oracle); d != "" {
		t.Errorf("the cluster run differs from the in-process oracle in %s", d)
	}
}
