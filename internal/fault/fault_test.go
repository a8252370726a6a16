package fault

import (
	"errors"
	"fmt"
	"math/bits"
	"testing"

	"embsp/internal/disk"
	"embsp/internal/redundancy"
	"embsp/internal/words"
)

func testArray(t *testing.T, d, b int) *disk.Array {
	t.Helper()
	return disk.MustNewArray(disk.Config{D: d, B: b})
}

// mustWrap is Wrap for statically valid plans.
func mustWrap(a disk.Store, plan Plan, maxRetries int) *Disk {
	f, err := Wrap(a, plan, maxRetries)
	if err != nil {
		panic(err)
	}
	return f
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		plan Plan
		ok   bool
	}{
		{Plan{}, true},
		{Plan{ReadErrorRate: 0.5, WriteErrorRate: 0.99, CorruptRate: 0}, true},
		{Plan{ReadErrorRate: -0.1}, false},
		{Plan{WriteErrorRate: 1.0}, false},
		{Plan{CorruptRate: 1.5}, false},
		{Plan{FirstOp: -1}, false},
		{Plan{FailDrive: -1}, false},
		{Plan{FailProc: -1}, false},
	}
	for _, c := range cases {
		err := c.plan.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) err=%v, want ok=%v", c.plan, err, c.ok)
		}
	}
}

func TestWrapRejectsImpossiblePlans(t *testing.T) {
	a := testArray(t, 2, 4)
	if _, err := Wrap(a, Plan{FailDriveOp: 5, FailDrive: 2}, 0); err == nil {
		t.Error("FailDrive beyond D accepted")
	}
	one := testArray(t, 1, 4)
	// Redundancy is explicit policy, enforced by Options.Validate:
	// the wrapper itself accepts an unprotected death plan (the loss
	// is simply unrecoverable when it strikes).
	if _, err := Wrap(one, Plan{FailDriveOp: 5}, 0); err != nil {
		t.Errorf("unprotected death plan rejected by the constructor: %v", err)
	}
}

func TestFaultFreePassThrough(t *testing.T) {
	f := mustWrap(testArray(t, 2, 2), Plan{Seed: 1}, 0)
	tr := f.Alloc(0)
	if err := f.WriteOp([]disk.WriteReq{{Disk: 0, Track: tr, Src: []uint64{3, 4}}}); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 2)
	if err := f.ReadOp([]disk.ReadReq{{Disk: 0, Track: tr, Dst: dst}}); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 3 || dst[1] != 4 {
		t.Errorf("round trip gave %v", dst)
	}
	if c := f.Counters(); c.Injected() != 0 || c.Retries != 0 || c.RecoveryOps != 0 {
		t.Errorf("fault-free plan produced counters %+v", c)
	}
}

// TestRetriesAbsorbTransients: with the default retry budget, moderate
// transient rates never escape to the caller, and the recovery work is
// counted.
func TestRetriesAbsorbTransients(t *testing.T) {
	f := mustWrap(testArray(t, 4, 4), Plan{Seed: 3, ReadErrorRate: 0.2, WriteErrorRate: 0.2}, 0)
	src := []uint64{1, 2, 3, 4}
	dst := make([]uint64, 4)
	for i := 0; i < 200; i++ {
		tr := f.Alloc(i % 4)
		if err := f.WriteOp([]disk.WriteReq{{Disk: i % 4, Track: tr, Src: src}}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if err := f.ReadOp([]disk.ReadReq{{Disk: i % 4, Track: tr, Dst: dst}}); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	c := f.Counters()
	if c.InjectedReadFaults == 0 || c.InjectedWriteFaults == 0 {
		t.Errorf("no faults injected at 20%% rates: %+v", c)
	}
	if c.Retries == 0 || c.RetriedBlocks == 0 {
		t.Errorf("faults injected but nothing retried: %+v", c)
	}
	if c.RecoveryOps < c.Retries {
		t.Errorf("RecoveryOps=%d < Retries=%d; every retry is a charged op", c.RecoveryOps, c.Retries)
	}
	// Retries are real charged operations on the underlying array.
	if ops := f.Stats().Ops; ops < 400+c.Retries {
		t.Errorf("Stats().Ops=%d does not include the %d retries", ops, c.Retries)
	}
}

// TestCorruptionDetected: with retries disabled, an injected corruption
// surfaces as a typed recoverable Corruption error.
func TestCorruptionDetected(t *testing.T) {
	f := mustWrap(testArray(t, 1, 4), Plan{Seed: 2, CorruptRate: 0.9}, -1)
	src := []uint64{9, 8, 7, 6}
	tr := f.Alloc(0)
	if err := f.WriteOp([]disk.WriteReq{{Disk: 0, Track: tr, Src: src}}); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 4)
	var sawCorruption bool
	for i := 0; i < 50 && !sawCorruption; i++ {
		err := f.ReadOp([]disk.ReadReq{{Disk: 0, Track: tr, Dst: dst}})
		if err == nil {
			continue
		}
		var fe *Error
		if !errors.As(err, &fe) {
			t.Fatalf("untyped error: %v", err)
		}
		if fe.Kind != Corruption || !fe.Recoverable || fe.Disk != 0 || fe.Track != tr {
			t.Fatalf("unexpected error: %+v", fe)
		}
		sawCorruption = true
	}
	if !sawCorruption {
		t.Fatal("90% corruption rate never detected in 50 reads")
	}
	if c := f.Counters(); c.ChecksumFailures == 0 || c.InjectedCorruptions == 0 {
		t.Errorf("counters missed the corruption: %+v", c)
	}
	// A clean re-read eventually delivers the true data: corruption is
	// in-flight, not on the platter.
	for i := 0; i < 200; i++ {
		if err := f.ReadOp([]disk.ReadReq{{Disk: 0, Track: tr, Dst: dst}}); err == nil {
			break
		}
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("clean re-read gave %v, want %v", dst, src)
		}
	}
}

// TestCorruptionsOfOneAttempt: every block an attempt corrupts is
// counted, and the attempt is one detection, reported for the lowest
// request index it corrupted, and one re-read; a block blank by metadata
// is never corrupted.
func TestCorruptionsOfOneAttempt(t *testing.T) {
	f := mustWrap(testArray(t, 3, 4), Plan{Seed: 1, CorruptRate: 0.99}, -1)
	srcs := [][]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}}
	tracks := []int{f.Alloc(0), f.Alloc(1), f.Alloc(2)}
	for d, src := range srcs {
		if err := f.WriteOp([]disk.WriteReq{{Disk: d, Track: tracks[d], Src: src}}); err != nil {
			t.Fatal(err)
		}
	}
	// Drive 1's block first, drive 2's fresh track last.
	reqs := []disk.ReadReq{
		{Disk: 1, Track: tracks[1], Dst: make([]uint64, 4)},
		{Disk: 0, Track: tracks[0], Dst: make([]uint64, 4)},
		{Disk: 2, Track: tracks[2], Dst: make([]uint64, 4)},
	}
	err := f.ReadOp(reqs)
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != Corruption || !fe.Recoverable || fe.Disk != 1 || fe.Track != tracks[1] {
		t.Fatalf("ReadOp = %v, want a recoverable Corruption of request 0 (drive 1)", err)
	}
	for i, d := range []int{1, 0} {
		flipped := 0
		for w := range reqs[i].Dst {
			flipped += bits.OnesCount64(reqs[i].Dst[w] ^ srcs[d][w])
		}
		if flipped != 1 {
			t.Errorf("request %d delivered %v, %d bits off %v, want 1", i, reqs[i].Dst, flipped, srcs[d])
		}
	}
	if dst := reqs[2].Dst; dst[0]|dst[1]|dst[2]|dst[3] != 0 {
		t.Errorf("the fresh track read %v, want zeros", dst)
	}
	if c := f.Counters(); c.InjectedCorruptions != 2 || c.ChecksumFailures != 1 || c.RecoveryOps != 1 || c.Retries != 0 {
		t.Errorf("counters %+v, want 2 injected corruptions, 1 checksum failure, 1 recovery op, no retry", c)
	}
}

// TestUncheckedBlocksNotCorrupted: corruption only strikes checksummed
// (written) tracks, so blank reads stay exact zeros.
func TestUncheckedBlocksNotCorrupted(t *testing.T) {
	f := mustWrap(testArray(t, 1, 4), Plan{Seed: 2, CorruptRate: 0.9}, 0)
	dst := make([]uint64, 4)
	for i := 0; i < 50; i++ {
		if err := f.ReadOp([]disk.ReadReq{{Disk: 0, Track: i, Dst: dst}}); err != nil {
			t.Fatal(err)
		}
		for _, w := range dst {
			if w != 0 {
				t.Fatalf("blank track corrupted: %v", dst)
			}
		}
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() Counters {
		f := mustWrap(testArray(t, 2, 2), Plan{Seed: 11, ReadErrorRate: 0.3, WriteErrorRate: 0.3, CorruptRate: 0.3}, 0)
		src := []uint64{1, 2}
		dst := make([]uint64, 2)
		for i := 0; i < 100; i++ {
			tr := f.Alloc(i % 2)
			if err := f.WriteOp([]disk.WriteReq{{Disk: i % 2, Track: tr, Src: src}}); err != nil {
				t.Fatal(err)
			}
			if err := f.ReadOp([]disk.ReadReq{{Disk: i % 2, Track: tr, Dst: dst}}); err != nil {
				t.Fatal(err)
			}
		}
		return f.Counters()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different schedules:\n a=%+v\n b=%+v", a, b)
	}
}

func TestFirstOpDelaysInjection(t *testing.T) {
	f := mustWrap(testArray(t, 1, 2), Plan{Seed: 5, ReadErrorRate: 0.9, FirstOp: 1 << 40}, 0)
	dst := make([]uint64, 2)
	for i := 0; i < 100; i++ {
		if err := f.ReadOp([]disk.ReadReq{{Disk: 0, Track: i, Dst: dst}}); err != nil {
			t.Fatal(err)
		}
	}
	if c := f.Counters(); c.Injected() != 0 {
		t.Errorf("faults injected before FirstOp: %+v", c)
	}
}

// TestDriveDeathRedirection: a death over a redundancy layer aborts the
// attempt that meets it, recoverably; from then on I/O addressed to the
// dead drive passes through the fault layer, and the layer below serves
// reads from the tracks' copies and refuses writes: the engines place
// nothing on a dead drive.
func TestDriveDeathRedirection(t *testing.T) {
	red, err := redundancy.WrapMirror(testArray(t, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	f := mustWrap(red, Plan{Seed: 7, FailDriveOp: 10, FailDrive: 1}, 0)
	// Ten writes before the death, their copies on disk by the barrier.
	tracks := make([]int, 10)
	for i := range tracks {
		tracks[i] = f.Alloc(1)
		src := []uint64{uint64(i), uint64(i) * 3}
		if err := f.WriteOp([]disk.WriteReq{{Disk: 1, Track: tracks[i], Src: src}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := red.FlushParity(); err != nil {
		t.Fatal(err)
	}
	// The next op trips the death; the error names the drive and is
	// recoverable because the layer below holds copies.
	dst := make([]uint64, 2)
	err = f.ReadOp([]disk.ReadReq{{Disk: 1, Track: tracks[0], Dst: dst}})
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != DriveLoss || fe.Disk != 1 || !fe.Recoverable {
		t.Fatalf("death op error = %v, want recoverable DriveLoss on drive 1", err)
	}
	if !f.Down(1) || f.Down(0) || f.Down(2) {
		t.Fatalf("drive 1 not the one drive marked dead: down=%v,%v,%v", f.Down(0), f.Down(1), f.Down(2))
	}
	// Replay of the read: served from the copies, data intact.
	for i, tr := range tracks {
		if err := f.ReadOp([]disk.ReadReq{{Disk: 1, Track: tr, Dst: dst}}); err != nil {
			t.Fatal(err)
		}
		if dst[0] != uint64(i) || dst[1] != uint64(i)*3 {
			t.Fatalf("track %d after death: %v, want [%d %d]", tr, dst, i, i*3)
		}
	}
	// A write addressed to the dead drive is refused by the layer below,
	// and the refusal passes through the fault layer as it is.
	tr := f.Alloc(1)
	var ce *redundancy.ContractError
	if err := f.WriteOp([]disk.WriteReq{{Disk: 1, Track: tr, Src: []uint64{42, 43}}}); !errors.As(err, &ce) || ce.Track != (disk.Addr{Disk: 1, Track: tr}) {
		t.Fatalf("post-death write to the dead drive: %v, want a *redundancy.ContractError naming it", err)
	}
	if c, rc := f.Counters(), red.Counters(); c.DriveFailures != 1 || rc.ParityOps == 0 || rc.ReconstructedBlocks == 0 {
		t.Errorf("counters after death: fault %+v, redundancy %+v", c, rc)
	}
}

// TestLostDataIsFatal: with no redundancy layer beneath, a drive death is
// an unrecoverable DriveLoss, at the death and at every later touch of
// the drive; the survivors keep serving I/O.
func TestLostDataIsFatal(t *testing.T) {
	f := mustWrap(testArray(t, 2, 2), Plan{Seed: 7, FailDriveOp: 1, FailDrive: 0}, 0)
	tr := f.Alloc(0)
	if err := f.WriteOp([]disk.WriteReq{{Disk: 0, Track: tr, Src: []uint64{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 2)
	for _, what := range []string{"death op", "read of lost data"} {
		err := f.ReadOp([]disk.ReadReq{{Disk: 0, Track: tr, Dst: dst}})
		var fe *Error
		if !errors.As(err, &fe) || fe.Kind != DriveLoss || fe.Disk != 0 || fe.Recoverable {
			t.Fatalf("%s error = %v, want unrecoverable DriveLoss on drive 0", what, err)
		}
		if Replayable(err) {
			t.Errorf("%s: unrecoverable loss reported as replayable", what)
		}
	}
	other := f.Alloc(1)
	if err := f.WriteOp([]disk.WriteReq{{Disk: 1, Track: other, Src: []uint64{3, 4}}}); err != nil {
		t.Errorf("a survivor refused a write: %v", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	f := mustWrap(testArray(t, 2, 2), Plan{Seed: 1}, 0)
	committed := f.Alloc(0)
	if err := f.WriteOp([]disk.WriteReq{{Disk: 0, Track: committed, Src: []uint64{5, 6}}}); err != nil {
		t.Fatal(err)
	}
	// The barrier: the chain's state and the layer's, as a processor's
	// record carries them.
	mark, enc := f.State(), words.NewEncoder(nil)
	f.EncodeState(enc)
	// The attempt writes new tracks, then is rolled back.
	for i := 0; i < 5; i++ {
		tr := f.Alloc(1)
		if err := f.WriteOp([]disk.WriteReq{{Disk: 1, Track: tr, Src: []uint64{7, 8}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := disk.Rollback(f, mark); err != nil {
		t.Fatal(err)
	}
	if err := f.DecodeState(words.NewDecoder(enc.Words()), true); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 2)
	if err := f.ReadOp([]disk.ReadReq{{Disk: 0, Track: committed, Dst: dst}}); err != nil {
		t.Fatalf("committed track fails checksum after rollback: %v", err)
	}
	if dst[0] != 5 || dst[1] != 6 {
		t.Errorf("committed data lost: %v", dst)
	}
	// The attempt's tracks are free again and their checksums gone.
	if tr := f.Alloc(1); tr != 0 {
		t.Errorf("allocator not rolled back: Alloc = %d, want 0", tr)
	}
}

func TestReplayable(t *testing.T) {
	rec := &Error{Kind: TransientRead, Recoverable: true}
	if !Replayable(rec) {
		t.Error("recoverable error not replayable")
	}
	if !Replayable(errors.Join(fmt.Errorf("wrap: %w", rec), errors.New("other"))) {
		t.Error("joined recoverable error not replayable")
	}
	if Replayable(&Error{Kind: DriveLoss, Recoverable: false}) {
		t.Error("unrecoverable error replayable")
	}
	if Replayable(errors.New("plain")) || Replayable(nil) {
		t.Error("non-fault errors replayable")
	}
}
