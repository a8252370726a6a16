package core_test

import (
	"reflect"
	"testing"
	"testing/quick"

	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/core"
	"embsp/internal/prng"
)

// routeModes are the routing rule and its two overrides.
var routeModes = map[string]core.RouteMode{"decided": core.RouteDecided, "always": core.RouteAlways, "never": core.RouteNever}

// TestRouteModesEquivalence: whether a superstep's blocks are routed,
// left scattered, or either by the rule, the run must compute exactly
// the reference results — only the I/O schedule differs — and the rule
// may never cost more operations than routing every superstep.
func TestRouteModesEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		r := prng.New(seed)
		v := r.Intn(16) + 1
		p := &bsptest.RandomProgram{
			V:           v,
			Steps:       r.Intn(3) + 1,
			MsgsPerStep: r.Intn(4),
			MaxLen:      r.Intn(16),
		}
		ref, err := bsp.Run(p, bsp.RunOptions{Seed: seed, PktSize: 8})
		if err != nil {
			return false
		}
		cfg := tinyMachine(r.Intn(4)+1, 8+r.Intn(8), 0)
		cfg.M = cfg.D*cfg.B + 100
		cfg.Cost.Pkt = cfg.B
		cfg.P = 1 + r.Intn(2)
		ops := make(map[string]int64)
		for name, mode := range routeModes {
			res, err := core.Run(p, cfg, core.ForceRouting(core.Options{Seed: seed}, mode))
			if err != nil {
				t.Log(name, err)
				return false
			}
			a, b := bsptest.Checksums(ref), bsptest.Checksums(res.ToBSPResult())
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			ops[name] = res.EM.Run.Ops
		}
		if ops["decided"] > ops["always"] {
			t.Logf("seed %d: the rule took %d operations, routing every superstep %d", seed, ops["decided"], ops["always"])
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRouteModesSkipReorganization: a run that never routes performs no
// routing ops and fewer total ops than one that always does (no double
// move), and on a machine of four drives the rule never routes either:
// it is the same run, count for count.
func TestRouteModesSkipReorganization(t *testing.T) {
	p := &bsptest.RandomProgram{V: 16, Steps: 4, MsgsPerStep: 4, MaxLen: 12}
	cfg := tinyMachine(4, 8, 256)
	res := make(map[string]*core.Result)
	for name, mode := range routeModes {
		var err error
		if res[name], err = core.Run(p, cfg, core.ForceRouting(core.Options{Seed: 5}, mode)); err != nil {
			t.Fatal(err)
		}
	}
	routed, ablated, decided := res["always"], res["never"], res["decided"]
	if ablated.EM.RouteOps != 0 {
		t.Errorf("the run that never routes recorded %d routing ops", ablated.EM.RouteOps)
	}
	if routed.EM.RouteOps <= 0 {
		t.Errorf("routed run recorded no routing ops")
	}
	if ablated.EM.Run.Ops >= routed.EM.Run.Ops {
		t.Errorf("scattered ops %d >= routed ops %d (expected cheaper: no double move)",
			ablated.EM.Run.Ops, routed.EM.Run.Ops)
	}
	if !reflect.DeepEqual(decided.EM, ablated.EM) {
		t.Errorf("at D = 4 the rule routed: statistics\n%+v\nwant those of the run that never does\n%+v", decided.EM, ablated.EM)
	}
}

// TestMemoryBudgetTight: the engines must run within their documented
// internal-memory footprint — M + k·(µ + 6γ) + D·B words — even at
// slack factor 1, on both the sequential and parallel engines. The
// accountant rejects any grab beyond the budget, so success here
// proves the Θ(k·µ)-style working-set claim holds with constant 1.
func TestMemoryBudgetTight(t *testing.T) {
	p := &bsptest.RandomProgram{V: 16, Steps: 3, MsgsPerStep: 6, MaxLen: 40}
	for _, procs := range []int{1, 3} {
		cfg := tinyMachine(4, 8, 256)
		cfg.P = procs
		cfg.MemSlack = 1
		res, err := core.Run(p, cfg, core.Options{Seed: 1})
		if err != nil {
			t.Fatalf("P=%d: engine exceeded its own footprint formula at slack 1: %v", procs, err)
		}
		if res.EM.MemHigh <= 0 {
			t.Errorf("P=%d: memory accounting recorded nothing", procs)
		}
	}
}

// TestScatteredInputForMultiProc: the unrouted input is valid on a
// machine with an exchange, where each processor keeps the directory of
// the blocks it received (the ablation used to be refused there).
func TestScatteredInputForMultiProc(t *testing.T) {
	p := &bsptest.RingProgram{V: 4, Rounds: 1}
	cfg := parMachine(2, 1, 8, 32)
	want, err := core.Run(p, cfg, core.ForceRouting(core.Options{}, core.RouteAlways))
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Run(p, cfg, core.ForceRouting(core.Options{}, core.RouteNever))
	if err != nil {
		t.Fatalf("P = 2 with no superstep routed: %v", err)
	}
	for id := 0; id < p.V; id++ {
		acc := bsptest.ExpectedRingAcc(p.V, p.Rounds, id)
		if bsptest.RingAcc(got.ToBSPResult(), id) != acc || bsptest.RingAcc(want.ToBSPResult(), id) != acc {
			t.Errorf("P = 2: VP %d's sum is wrong scattered or routed", id)
		}
	}
	if got.EM.RouteOps != 0 || want.EM.RouteOps == 0 {
		t.Errorf("route ops %d scattered and %d routed, want 0 and some", got.EM.RouteOps, want.EM.RouteOps)
	}
}
