package core_test

// Engine-level acceptance tests for the redundancy layer: a permanent
// single-drive failure mid-run, with Redundancy == parity, must yield a
// Result bitwise identical to the fault-free reference — degraded reads
// and all — at P = 1 and P = 3; a crash at the barrier after the death
// must resume and still match, under mirror and parity alike; and the
// parity storage overhead must stay near 1/(D-1) instead of mirroring's
// 2x.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/core"
	"embsp/internal/fault"
	"embsp/internal/redundancy"
)

// deathPlan schedules a permanent, unmirrored drive death early enough
// that most of the run executes in degraded state. At every P the tests
// run a processor's VPs are one batch (k ≥ v/P), whose contexts never
// leave internal memory (DESIGN.md §22.7), so what the dead drive holds
// is message blocks: the death lands after a superstep wrote some on it
// and before the next read them back — through the stripe's survivors.
// (At op 40, the drive's clock before PR 25, it lands where no block it
// holds is read again.)
func deathPlan() *fault.Plan {
	return &fault.Plan{Seed: 13, FailDriveOp: 54, FailDrive: 1}
}

// TestParityDriveLossBitwise is the issue's acceptance property: with
// Redundancy == parity a permanent single-drive failure mid-run, at
// P = 1 and P = 3, yields a Result bitwise identical to the fault-free
// reference run, with the degraded reads visible in EMStats. Nothing is
// rebuilt, and nothing needs to be: every stripe lives and dies with its
// superstep (§10), so one commit after the replay the dead drive holds
// nothing live — no striped member without a copy on a survivor, no
// parity track.
func TestParityDriveLossBitwise(t *testing.T) {
	p := &bsptest.RandomProgram{V: 16, Steps: 4, MsgsPerStep: 4, MaxLen: 12}
	ref, err := bsp.Run(p, bsp.RunOptions{Seed: 21, PktSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 3} {
		cfg := parMachine(procs, 4, 8, 256)
		var watch *deadDriveWatch
		res, err := core.RunOver(func(e core.Transport) core.Transport {
			watch = &deadDriveWatch{Transport: e, t: t, drive: deathPlan().FailDrive}
			return watch
		}, p, cfg, core.Options{
			Seed:       21,
			FaultPlan:  deathPlan(),
			Redundancy: redundancy.Parity,
		})
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		if watch.barriers == 0 {
			t.Errorf("P=%d: no barrier committed after the death", procs)
		}
		checksumsEqual(t, ref, res, "parity drive loss")
		em := res.EM
		if em.DriveFailures != 1 {
			t.Errorf("P=%d: DriveFailures=%d, want 1", procs, em.DriveFailures)
		}
		if em.ParityOps == 0 {
			t.Errorf("P=%d: parity enabled but ParityOps=0", procs)
		}
		if em.ReconstructedBlocks == 0 {
			t.Errorf("P=%d: drive died but no block was reconstructed", procs)
		}
		if em.DegradedOps == 0 {
			t.Errorf("P=%d: drive died but DegradedOps=0", procs)
		}
	}
}

// deadDriveWatch checks, at every barrier committed after processor 0's
// drive died, what the drive still holds.
type deadDriveWatch struct {
	core.Transport
	t        *testing.T
	drive    int
	barriers int
}

func (w *deadDriveWatch) Commit(step int) error {
	if members, parity, down := core.DeadDriveLoad(w.Transport, 0, w.drive); down {
		w.barriers++
		if members != 0 || parity != 0 {
			w.t.Errorf("barrier %d: the dead drive holds %d striped members without a copy and %d parity tracks, want nothing", step, members, parity)
		}
	}
	return w.Transport.Commit(step)
}

// TestParityOverhead: the storage cost of parity protection stays near
// ceil(striped/(D-1)) parity tracks — far below mirroring's 2x — with
// slack only for stripes left partially filled by barrier flushes and
// releases.
func TestParityOverhead(t *testing.T) {
	p := &bsptest.RandomProgram{V: 16, Steps: 4, MsgsPerStep: 4, MaxLen: 12}
	for _, procs := range []int{1, 3} {
		const d = 4
		cfg := parMachine(procs, d, 8, 256)
		// Checkpointed, so that the gauges at the end of the run hold
		// what a barrier holds — the last superstep's contexts and input
		// beside the ones it wrote. An in-place run has released all but
		// its final contexts by then, a block or two a processor.
		res, err := core.Run(p, cfg, core.Options{Seed: 21, Redundancy: redundancy.Parity, StateDir: t.TempDir()})
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		em := res.EM
		if em.StripedBlocks == 0 || em.ParityBlocks == 0 {
			t.Fatalf("P=%d: no striping happened: striped=%d parity=%d",
				procs, em.StripedBlocks, em.ParityBlocks)
		}
		// Gauges are summed over processors. Each processor's steady
		// state is ceil(striped/(D-1)) parity tracks, but a stripe takes
		// one superstep's tracks in the order they are written, so every
		// barrier closes the few still open — at most one per drive —
		// short of full. (A stripe no longer shrinks: its members leave
		// together, and its parity track with them.) Allow those partial
		// stripes of slack per processor.
		maxParity := (em.StripedBlocks+int64(d-2))/int64(d-1) + int64(procs*3*d)
		if em.ParityBlocks > maxParity {
			t.Errorf("P=%d: ParityBlocks=%d, want <= %d (striped=%d)",
				procs, em.ParityBlocks, maxParity, em.StripedBlocks)
		}
		// Mirroring would have doubled the footprint: its redundant
		// block count equals the striped count. Parity must be well
		// under half of that.
		if em.ParityBlocks*2 >= em.StripedBlocks {
			t.Errorf("P=%d: ParityBlocks=%d not below half of striped=%d — no better than mirroring",
				procs, em.ParityBlocks, em.StripedBlocks)
		}
	}
}

// TestParityTransientFaults: parity and the fault layer's transient
// injection compose — retries and replays above, parity maintenance
// below — without losing bitwise fidelity.
func TestParityTransientFaults(t *testing.T) {
	p := &bsptest.RandomProgram{V: 16, Steps: 4, MsgsPerStep: 4, MaxLen: 12}
	ref, err := bsp.Run(p, bsp.RunOptions{Seed: 9, PktSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 3} {
		cfg := parMachine(procs, 4, 8, 256)
		res, err := core.Run(p, cfg, core.Options{
			Seed:       9,
			FaultPlan:  transientPlan(77),
			Redundancy: redundancy.Parity,
		})
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		checksumsEqual(t, ref, res, "parity+transient")
		if res.EM.FaultsInjected == 0 {
			t.Errorf("P=%d: no faults injected at 2%% rates", procs)
		}
		if res.EM.ParityOps == 0 {
			t.Errorf("P=%d: parity enabled but ParityOps=0", procs)
		}
	}
}

// TestKillAfterDriveDeathResume is the crash-consistency half of the
// acceptance property, under mirror and parity: a run hard-stopped at the
// first barrier after the drive death — where the journaled state is a
// dead drive, its stripes one member short and degraded counts — then resumed from its
// journal, produces a Result bitwise identical to the uninterrupted run.
func TestKillAfterDriveDeathResume(t *testing.T) {
	p := testProgram()
	for _, mode := range []redundancy.Mode{redundancy.Mirror, redundancy.Parity} {
		for _, procs := range []int{1, 3} {
			label := fmt.Sprintf("%v P=%d", mode, procs)
			cfg := parMachine(procs, 4, 8, 256)
			opts := func(dir string) core.Options {
				return core.Options{
					Seed:       3,
					StateDir:   dir,
					FaultPlan:  deathPlan(),
					Redundancy: mode,
				}
			}
			clean, err := core.Run(p, cfg, opts(t.TempDir()))
			if err != nil {
				t.Fatalf("%s clean: %v", label, err)
			}
			if clean.EM.DriveFailures != 1 || clean.EM.DegradedOps == 0 {
				t.Fatalf("%s: DriveFailures=%d DegradedOps=%d: the shape produced no degraded work for the kill to follow", label, clean.EM.DriveFailures, clean.EM.DegradedOps)
			}

			// Stop at the first barrier after the drive death (the death at op
			// 54 lands in superstep 1 at P = 1, in superstep 2 at P = 3), then
			// resume to completion.
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			killed := opts(dir)
			killed.OnCommit = func(step int) {
				if step == procs/2+1 {
					cancel()
				}
			}
			_, err = core.RunContext(ctx, p, cfg, killed)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: killed run returned %v, want context.Canceled", label, err)
			}

			resumed := opts(dir)
			resumed.Resume = true
			res, err := core.Run(p, cfg, resumed)
			if err != nil {
				t.Fatalf("%s resume: %v", label, err)
			}
			resultsIdentical(t, clean, res, label+" kill after the death")
		}
	}
}

// TestParityCrashAndResume: the in-process stand-in for SIGKILL — a
// Program panic mid-superstep — leaves the journal at the last
// committed barrier; resuming a parity-protected, fault-injected run
// still reproduces the uninterrupted Result exactly.
func TestParityCrashAndResume(t *testing.T) {
	p := testProgram()
	for _, procs := range []int{1, 3} {
		label := fmt.Sprintf("P=%d", procs)
		cfg := parMachine(procs, 4, 8, 256)
		opts := func(dir string) core.Options {
			return core.Options{
				Seed:       3,
				StateDir:   dir,
				FaultPlan:  deathPlan(),
				Redundancy: redundancy.Parity,
			}
		}
		clean, err := core.Run(p, cfg, opts(t.TempDir()))
		if err != nil {
			t.Fatalf("%s clean: %v", label, err)
		}

		dir := t.TempDir()
		crashed := &panicProgram{Program: p, panicStep: 2}
		_, err = core.Run(crashed, cfg, opts(dir))
		crashed.crashed(t, label, err)

		resumed := opts(dir)
		resumed.Resume = true
		res, err := core.Run(p, cfg, resumed)
		if err != nil {
			t.Fatalf("%s resume: %v", label, err)
		}
		resultsIdentical(t, clean, res, label+" parity crash")
	}
}

// crashAfterPrepare fails the run once barrier step is prepared — input
// freed, contexts flipped, parity flushed, drives synced — and before its
// decision record is written: the in-process stand-in for a SIGKILL
// there. (Prepare clears the rollback source, so the driver's Rollback
// returns the error and the run ends.)
type crashAfterPrepare struct {
	core.Transport
	step int
}

var errCrashed = errors.New("crashed after Prepare")

func (c *crashAfterPrepare) Prepare(step int, halted bool) ([]int64, error) {
	ops, err := c.Transport.Prepare(step, halted)
	if err == nil && step == c.step {
		err = errCrashed
	}
	return ops, err
}

// TestParityCrashAfterPrepareResumes holds the allocation-order
// invariant (DESIGN.md §9) end to end: nothing a barrier releases is
// allocated — wiped, written over — before that barrier's decision
// record lands. The run dies between Prepare and the record at every
// superstep in turn; the resume starts from the previous record, whose
// input blocks and contexts the dead barrier had already released and
// flushed parity past, and must reproduce the uninterrupted run. (When
// the flush allocated its parity tracks at the barrier, they came off the
// free list the commit had just filled: the resume found its input
// wiped, "stream … truncated at chunk 1 of 2".)
func TestParityCrashAfterPrepareResumes(t *testing.T) {
	p := testProgram()
	for _, procs := range []int{1, 2} {
		for _, plan := range []*fault.Plan{nil, transientPlan(77)} {
			label := fmt.Sprintf("P=%d faults=%v", procs, plan != nil)
			cfg := parMachine(procs, 4, 8, 256)
			opts := func(dir string) core.Options {
				return core.Options{Seed: 3, StateDir: dir, FaultPlan: plan, Redundancy: redundancy.Parity}
			}
			clean, err := core.Run(p, cfg, opts(t.TempDir()))
			if err != nil {
				t.Fatalf("%s clean: %v", label, err)
			}
			for step := 0; step < clean.Costs.Supersteps; step++ {
				dir := t.TempDir()
				_, err := core.RunOver(func(e core.Transport) core.Transport {
					return &crashAfterPrepare{Transport: e, step: step}
				}, p, cfg, opts(dir))
				if !errors.Is(err, errCrashed) {
					t.Fatalf("%s step %d: crashed run returned %v", label, step, err)
				}
				resumed := opts(dir)
				resumed.Resume = true
				res, err := core.Run(p, cfg, resumed)
				if err != nil {
					t.Fatalf("%s: resume after a crash past superstep %d's Prepare: %v", label, step, err)
				}
				resultsIdentical(t, clean, res, fmt.Sprintf("%s crash after Prepare(%d)", label, step))
			}
		}
	}
}

// TestRedundancyValidation: the redundancy-mode surface of
// Options.Validate — unprotected death plans are a typed error, and
// incoherent mode combinations are rejected up front.
func TestRedundancyValidation(t *testing.T) {
	p := testProgram()
	good := parMachine(1, 4, 8, 256)

	_, err := core.Run(p, good, core.Options{Seed: 3, FaultPlan: deathPlan()})
	var ue *core.UnprotectedDriveLossError
	if !errors.As(err, &ue) {
		t.Fatalf("unprotected death plan: got %v, want *core.UnprotectedDriveLossError", err)
	}
	if want := deathPlan(); ue.FailDrive != want.FailDrive || ue.FailOp != want.FailDriveOp {
		t.Errorf("error carries drive %d op %d, want drive %d op %d", ue.FailDrive, ue.FailOp, want.FailDrive, want.FailDriveOp)
	}

	cases := []struct {
		name string
		cfg  core.MachineConfig
		opts core.Options
	}{
		{"invalid mode", good, core.Options{Redundancy: redundancy.Mode(99)}},
		{"parity on one drive", parMachine(1, 1, 8, 64), core.Options{Redundancy: redundancy.Parity}},
		{"mirror on one drive", parMachine(1, 1, 8, 64), core.Options{Redundancy: redundancy.Mirror}},
	}
	for _, tc := range cases {
		if _, err := core.Run(p, tc.cfg, tc.opts); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}

	// Mirror protects a death plan.
	if _, err := core.Run(p, good, core.Options{
		Seed: 3, FaultPlan: deathPlan(), Redundancy: redundancy.Mirror,
	}); err != nil {
		t.Errorf("explicit mirror with death plan: %v", err)
	}
}

// TestParityCrashThenDriveLoss: the run crashes mid-superstep (the
// crashed attempt's tracks on disk, journal at the previous barrier),
// resumes, and only THEN loses a drive — so the reconstruction runs over
// the state the resume-time reconciliation checked against the record,
// with nothing to repair or refuse. The resumed Result must stay bitwise
// identical to the uninterrupted run. The death is aimed at the middle of
// superstep 3, strictly after the superstep-2 crash, on the run as it is:
// FailDriveOp counts drive 2's own attempt clock on processor 0 (fault
// schedules are per drive), which a probing run — the same plan with a
// death that never comes — reads at superstep 3's begin and vote, so an
// engine change that moves the counts moves the death with them.
func TestParityCrashThenDriveLoss(t *testing.T) {
	p := testProgram()
	for _, procs := range []int{1, 3} {
		label := fmt.Sprintf("P=%d", procs)
		cfg := parMachine(procs, 4, 8, 256)
		deathOp := int64(1) << 40
		opts := func(dir string) core.Options {
			return core.Options{
				Seed:       3,
				StateDir:   dir,
				FaultPlan:  &fault.Plan{Seed: 13, FailDriveOp: deathOp, FailDrive: 2},
				Redundancy: redundancy.Parity,
			}
		}
		var probe *clockProbe
		_, err := core.RunOver(func(e core.Transport) core.Transport {
			probe = &clockProbe{Transport: e, step: 3, drive: 2}
			return probe
		}, p, cfg, opts(t.TempDir()))
		if err != nil {
			t.Fatalf("%s probe: %v", label, err)
		}
		if probe.end-probe.begin < 2 {
			t.Fatalf("%s: drive 2's clock reads %d and %d around superstep 3: no room for a death inside it", label, probe.begin, probe.end)
		}
		deathOp = (probe.begin + probe.end) / 2
		clean, err := core.Run(p, cfg, opts(t.TempDir()))
		if err != nil {
			t.Fatalf("%s clean: %v", label, err)
		}
		if clean.EM.DriveFailures != 1 {
			t.Fatalf("%s: DriveFailures=%d, want 1 — death op %d never fired", label, clean.EM.DriveFailures, deathOp)
		}
		if clean.EM.ReconstructedBlocks == 0 {
			t.Fatalf("%s: no reconstruction — the death landed too late to matter", label)
		}

		dir := t.TempDir()
		crashed := &panicProgram{Program: p, panicStep: 2}
		_, err = core.Run(crashed, cfg, opts(dir))
		crashed.crashed(t, label, err)

		resumed := opts(dir)
		resumed.Resume = true
		res, err := core.Run(p, cfg, resumed)
		if err != nil {
			t.Fatalf("%s resume: %v", label, err)
		}
		resultsIdentical(t, clean, res, label+" crash before drive loss")
	}
}

// clockProbe reads processor 0's fault clock of one drive when a
// superstep begins and when its batches are done.
type clockProbe struct {
	core.Transport
	step, drive int
	cur         int
	begin, end  int64
}

func (c *clockProbe) Begin(step int) error {
	if c.cur = step; step == c.step {
		c.begin = core.DriveClock(c.Transport, 0, c.drive)
	}
	return c.Transport.Begin(step)
}

func (c *clockProbe) Totals() ([]core.StepTotals, error) {
	if c.cur == c.step {
		c.end = core.DriveClock(c.Transport, 0, c.drive)
	}
	return c.Transport.Totals()
}
