package core_test

import (
	"testing"
	"testing/quick"

	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/core"
	"embsp/internal/fault"
	"embsp/internal/prng"
	"embsp/internal/redundancy"
)

// transientPlan injects all three transient fault kinds at rates high
// enough that every nontrivial run sees several of each.
func transientPlan(seed uint64) *fault.Plan {
	return &fault.Plan{
		Seed:           seed,
		ReadErrorRate:  0.02,
		WriteErrorRate: 0.02,
		CorruptRate:    0.02,
	}
}

func checksumsEqual(t *testing.T, ref *bsp.Result, res *core.Result, label string) {
	t.Helper()
	a, b := bsptest.Checksums(ref), bsptest.Checksums(res.ToBSPResult())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: VP %d state differs from reference under faults", label, i)
		}
	}
}

// TestFaultTransientBitwise is the issue's acceptance property at
// fixed shape: with transient faults injected at >= 1% per block, both
// engines still produce results bitwise identical to the in-memory
// reference, and the recovery work is visible in EMStats.
func TestFaultTransientBitwise(t *testing.T) {
	p := &bsptest.RandomProgram{V: 16, Steps: 4, MsgsPerStep: 4, MaxLen: 12}
	ref, err := bsp.Run(p, bsp.RunOptions{Seed: 9, PktSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 3} {
		cfg := parMachine(procs, 4, 8, 256)
		res, err := core.Run(p, cfg, core.Options{Seed: 9, FaultPlan: transientPlan(77)})
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		checksumsEqual(t, ref, res, "transient")
		em := res.EM
		if em.FaultsInjected == 0 {
			t.Errorf("P=%d: no faults injected at 2%% rates", procs)
		}
		if em.Retries == 0 || em.RecoveryOps == 0 {
			t.Errorf("P=%d: Retries=%d RecoveryOps=%d, want both > 0", procs, em.Retries, em.RecoveryOps)
		}
		// Every fault-layer retry re-issues one charged operation, so
		// RecoveryOps accounts for at least the retries.
		if em.RecoveryOps < em.Retries {
			t.Errorf("P=%d: RecoveryOps=%d < Retries=%d", procs, em.RecoveryOps, em.Retries)
		}
		if em.ChecksumFailures == 0 {
			t.Errorf("P=%d: corruption injected but never detected", procs)
		}
	}
}

// TestFaultReplayPath disables the fault layer's transparent retries
// so every transient fault escalates to a full superstep rollback, and
// checks the replay machinery preserves bitwise fidelity — from a
// scattered input, which is what the rule leaves on four drives, and
// from routed regions with the routing result parked until commit.
func TestFaultReplayPath(t *testing.T) {
	p := &bsptest.RandomProgram{V: 12, Steps: 3, MsgsPerStep: 3, MaxLen: 10}
	ref, err := bsp.Run(p, bsp.RunOptions{Seed: 4, PktSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	// With retries disabled a superstep attempt only succeeds when every
	// processor is fault-free for the whole attempt, so the clean
	// probability shrinks exponentially in P times the per-attempt
	// traffic. 0.5% per block keeps the expected replay count per
	// superstep in the tens while making replay exhaustion vanishingly
	// unlikely.
	plan := &fault.Plan{Seed: 5, ReadErrorRate: 0.005, WriteErrorRate: 0.005, CorruptRate: 0.005}
	for _, procs := range []int{1, 3} {
		cfg := parMachine(procs, 4, 8, 256)
		res, err := core.Run(p, cfg, core.Options{Seed: 4, FaultPlan: plan, MaxRetries: -1})
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		checksumsEqual(t, ref, res, "replay")
		em := res.EM
		if em.Replays == 0 {
			t.Errorf("P=%d: retries disabled and faults injected, but no superstep was replayed", procs)
		}
		if em.Retries != 0 {
			t.Errorf("P=%d: retries disabled but Retries=%d", procs, em.Retries)
		}
		if em.RecoveryOps == 0 {
			t.Errorf("P=%d: replays happened but RecoveryOps=0", procs)
		}
	}
}

// TestFaultDriveLoss kills one drive mid-run under mirror redundancy and
// checks the engines degrade gracefully: the run completes bitwise
// identical on the surviving drives, its copies counted as the
// redundancy layer's operations and blocks — one copy a striped track —
// and the death's rollback as recovery.
func TestFaultDriveLoss(t *testing.T) {
	p := &bsptest.RandomProgram{V: 16, Steps: 4, MsgsPerStep: 4, MaxLen: 12}
	ref, err := bsp.Run(p, bsp.RunOptions{Seed: 21, PktSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 3} {
		cfg := parMachine(procs, 4, 8, 256)
		plan := &fault.Plan{Seed: 13, FailDriveOp: 40, FailDrive: 2}
		res, err := core.Run(p, cfg, core.Options{Seed: 21, FaultPlan: plan, Redundancy: redundancy.Mirror})
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		checksumsEqual(t, ref, res, "drive loss")
		em := res.EM
		if em.DriveFailures != 1 {
			t.Errorf("P=%d: DriveFailures=%d, want 1", procs, em.DriveFailures)
		}
		if em.ParityOps == 0 || em.ParityBlocks != em.StripedBlocks {
			t.Errorf("P=%d: mirroring enabled but ParityOps=%d, and %d copies of %d striped tracks", procs, em.ParityOps, em.ParityBlocks, em.StripedBlocks)
		}
		// The death aborts the attempt it strikes, and the superstep
		// replays with the drive dead.
		if em.RecoveryOps == 0 || em.Replays == 0 {
			t.Errorf("P=%d: the death charged %d recovery ops in %d replays", procs, em.RecoveryOps, em.Replays)
		}
		// Compare against the same redundancy without the drive death: the
		// degradation overhead must be measurable, not free.
		base, err := core.Run(p, cfg, core.Options{Seed: 21, Redundancy: redundancy.Mirror})
		if err != nil {
			t.Fatalf("P=%d baseline: %v", procs, err)
		}
		if res.EM.Run.Ops <= base.EM.Run.Ops {
			t.Errorf("P=%d: drive loss run took %d ops, mirrored baseline %d — expected measurable overhead",
				procs, res.EM.Run.Ops, base.EM.Run.Ops)
		}
	}
}

// TestFaultDeterminism: the same seed must produce the same fault
// schedule, the same recovery work and the same I/O counts.
func TestFaultDeterminism(t *testing.T) {
	p := &bsptest.RandomProgram{V: 14, Steps: 3, MsgsPerStep: 3, MaxLen: 10}
	for _, procs := range []int{1, 2} {
		cfg := parMachine(procs, 3, 8, 200)
		opts := core.Options{Seed: 8, FaultPlan: transientPlan(42)}
		a, err := core.Run(p, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.Run(p, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.EM.FaultsInjected != b.EM.FaultsInjected ||
			a.EM.Retries != b.EM.Retries ||
			a.EM.RecoveryOps != b.EM.RecoveryOps ||
			a.EM.Replays != b.EM.Replays ||
			a.EM.Run.Ops != b.EM.Run.Ops {
			t.Errorf("P=%d: same seed, different runs:\n a: faults=%d retries=%d recovery=%d replays=%d ops=%d\n b: faults=%d retries=%d recovery=%d replays=%d ops=%d",
				procs,
				a.EM.FaultsInjected, a.EM.Retries, a.EM.RecoveryOps, a.EM.Replays, a.EM.Run.Ops,
				b.EM.FaultsInjected, b.EM.Retries, b.EM.RecoveryOps, b.EM.Replays, b.EM.Run.Ops)
		}
	}
}

// TestFaultRandomizedEquivalence drives random programs, machine
// shapes and fault plans through both engines and checks bitwise
// fidelity every time.
func TestFaultRandomizedEquivalence(t *testing.T) {
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
		procs := r.Intn(3) + 1
		d := r.Intn(3) + 2
		b := 8 + r.Intn(8)
		m := d*b + r.Intn(200)
		cfg := parMachine(procs, d, b, m)
		plan := &fault.Plan{
			Seed:           r.Uint64(),
			ReadErrorRate:  r.Float64() * 0.05,
			WriteErrorRate: r.Float64() * 0.05,
			CorruptRate:    r.Float64() * 0.05,
		}
		if r.Bool() {
			plan.FailDriveOp = int64(r.Intn(100) + 1)
			plan.FailDrive = r.Intn(d)
			plan.FailProc = r.Intn(procs)
		}
		opts := core.Options{Seed: seed, FaultPlan: plan}
		if plan.FailDriveOp > 0 {
			opts.Redundancy = redundancy.Mirror // a scheduled death needs explicit redundancy
		}
		res, err := core.Run(p, cfg, opts)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		a, bb := bsptest.Checksums(ref), bsptest.Checksums(res.ToBSPResult())
		for i := range a {
			if a[i] != bb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFaultScatteredInputReplays: a superstep's input is freed at the
// barrier commit, never while it is read, so it is a replay source: at
// 2% per block with retries disabled every superstep is replayed many
// times over from the same scattered blocks.
func TestFaultScatteredInputReplays(t *testing.T) {
	p := &bsptest.RandomProgram{V: 8, Steps: 3, MsgsPerStep: 2, MaxLen: 8}
	ref, err := bsp.Run(p, bsp.RunOptions{Seed: 6, PktSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		cfg := parMachine(procs, 4, 8, 64)
		res, err := core.Run(p, cfg, core.Options{Seed: 6, FaultPlan: transientPlan(1), MaxRetries: -1})
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		checksumsEqual(t, ref, res, "scattered replay")
		if em := res.EM; em.Replays == 0 || em.Retries != 0 {
			t.Errorf("P=%d: Replays=%d Retries=%d, want replays and no retries", procs, em.Replays, em.Retries)
		}
		t.Logf("P=%d: %d replays", procs, res.EM.Replays)
	}
}

// TestFaultStatsCleanWithoutPlan: runs without a fault plan must not
// report any fault accounting.
func TestFaultStatsCleanWithoutPlan(t *testing.T) {
	p := &bsptest.RingProgram{V: 6, Rounds: 2}
	res, err := core.Run(p, tinyMachine(2, 8, 64), core.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	em := res.EM
	if em.FaultsInjected != 0 || em.RecoveryOps != 0 || em.Replays != 0 || em.ParityOps != 0 {
		t.Errorf("fault stats nonzero without a plan: %+v", em)
	}
}
