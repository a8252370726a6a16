package core_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/core"
	"embsp/internal/disk"
	"embsp/internal/fault"
	"embsp/internal/journal"
	"embsp/internal/words"
)

// panicProgram wraps a Program so VP v/2 panics when it starts
// computing superstep panicStep — an in-process stand-in for a crash
// mid-superstep: the journal is left at the last committed barrier
// with the failed superstep's partial writes in the state directory.
// Every VP is wrapped and the victim is found by Env.ID, because an
// engine steps VP v/2 in whichever object its slot holds.
type panicProgram struct {
	bsp.Program
	panicStep int
}

func (p *panicProgram) NewVP(id int) bsp.VP {
	return &panicVP{VP: p.Program.NewVP(id), p: p}
}

type panicVP struct {
	bsp.VP
	p *panicProgram
}

func (v *panicVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	if env.ID() == v.p.NumVPs()/2 && env.Superstep() == v.p.panicStep {
		panic(fmt.Sprintf("injected crash in superstep %d", v.p.panicStep))
	}
	return v.VP.Step(env, in)
}

// crashed requires err to be the crash p injects: a *bsp.ProgramError
// of VP v/2 in Step of superstep panicStep.
func (p *panicProgram) crashed(t *testing.T, label string, err error) {
	t.Helper()
	var pe *bsp.ProgramError
	if !errors.As(err, &pe) {
		t.Fatalf("%s: crashed run returned %v, want *bsp.ProgramError", label, err)
	}
	if pe.VP != p.NumVPs()/2 || pe.Superstep != p.panicStep || pe.Phase != "" {
		t.Fatalf("%s: %v, want the crash injected in VP %d superstep %d", label, pe, p.NumVPs()/2, p.panicStep)
	}
}

func testProgram() *bsptest.RandomProgram {
	return &bsptest.RandomProgram{V: 16, Steps: 5, MsgsPerStep: 4, MaxLen: 12}
}

func resultsIdentical(t *testing.T, a, b *core.Result, label string) {
	t.Helper()
	ca, cb := bsptest.Checksums(a.ToBSPResult()), bsptest.Checksums(b.ToBSPResult())
	if !reflect.DeepEqual(ca, cb) {
		t.Errorf("%s: VP states differ", label)
	}
	statsIdentical(t, a, b, label)
}

// statsIdentical holds two runs to the same model costs and EM
// statistics.
func statsIdentical(t *testing.T, a, b *core.Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(a.Costs, b.Costs) {
		t.Errorf("%s: model costs differ:\na: %+v\nb: %+v", label, a.Costs, b.Costs)
	}
	// Overlap is wall-clock observability, explicitly outside the
	// bitwise-identity contract (see EMStats.Overlap); compare the rest
	// of EMStats exactly.
	ea, eb := a.EM, b.EM
	ea.Overlap, eb.Overlap = disk.OverlapStats{}, disk.OverlapStats{}
	if !reflect.DeepEqual(ea, eb) {
		t.Errorf("%s: EM statistics differ:\na: %+v\nb: %+v", label, ea, eb)
	}
}

// TestDurableMatchesReference: a durable (file-backed, journaled) run
// is still bitwise identical to the in-memory reference semantics, on
// both engines, with and without faults.
func TestDurableMatchesReference(t *testing.T) {
	p := testProgram()
	ref, err := bsp.Run(p, bsp.RunOptions{Seed: 3, PktSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 3} {
		for _, plan := range []*fault.Plan{nil, transientPlan(41)} {
			cfg := parMachine(procs, 4, 8, 256)
			opts := core.Options{Seed: 3, StateDir: t.TempDir(), FaultPlan: plan}
			res, err := core.Run(p, cfg, opts)
			if err != nil {
				t.Fatalf("P=%d faults=%v: %v", procs, plan != nil, err)
			}
			checksumsEqual(t, ref, res, fmt.Sprintf("durable P=%d", procs))
		}
	}
}

// TestCrashAndResumeBitwise is the issue's acceptance property: a run
// hard-stopped mid-superstep and resumed from its journal produces a
// Result bitwise identical to the uninterrupted run — including model
// costs and EM statistics, including under an active fault plan, on
// both engines.
func TestCrashAndResumeBitwise(t *testing.T) {
	p := testProgram()
	for _, procs := range []int{1, 3} {
		for _, plan := range []*fault.Plan{nil, transientPlan(41)} {
			label := fmt.Sprintf("P=%d faults=%v", procs, plan != nil)
			cfg := parMachine(procs, 4, 8, 256)
			opts := func(o core.Options) core.Options {
				o.Seed, o.FaultPlan = 3, plan
				return o
			}

			clean, err := core.Run(p, cfg, opts(core.Options{StateDir: t.TempDir()}))
			if err != nil {
				t.Fatalf("%s clean: %v", label, err)
			}

			dir := t.TempDir()
			crashed := &panicProgram{Program: p, panicStep: 2}
			_, err = core.Run(crashed, cfg, opts(core.Options{StateDir: dir}))
			crashed.crashed(t, label, err)

			res, err := core.Run(p, cfg, opts(core.Options{StateDir: dir, Resume: true}))
			if err != nil {
				t.Fatalf("%s resume: %v", label, err)
			}
			resultsIdentical(t, clean, res, label)
		}
	}
}

// TestCancelAndResume: cooperative cancellation stops the run at a
// superstep barrier with the journal at the last commit; resuming
// completes it with a bitwise identical Result.
func TestCancelAndResume(t *testing.T) {
	p := testProgram()
	for _, procs := range []int{1, 3} {
		cfg := parMachine(procs, 4, 8, 256)
		clean, err := core.Run(p, cfg, core.Options{Seed: 3, StateDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}

		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		opts := core.Options{Seed: 3, StateDir: dir}
		opts.OnCommit = func(step int) {
			if step == 1 {
				cancel()
			}
		}
		_, err = core.RunContext(ctx, p, cfg, opts)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("P=%d: cancelled run returned %v, want context.Canceled", procs, err)
		}

		res, err := core.Run(p, cfg, core.Options{Seed: 3, StateDir: dir, Resume: true})
		if err != nil {
			t.Fatalf("P=%d resume: %v", procs, err)
		}
		resultsIdentical(t, clean, res, fmt.Sprintf("P=%d cancel", procs))
	}
}

// TestResumeCompletedRun: resuming a state directory whose run already
// finished just reloads the final contexts — same Result again.
func TestResumeCompletedRun(t *testing.T) {
	p := testProgram()
	cfg := parMachine(1, 4, 8, 256)
	dir := t.TempDir()
	clean, err := core.Run(p, cfg, core.Options{Seed: 3, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, cfg, core.Options{Seed: 3, StateDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, clean, res, "completed")
}

// TestResumeTornJournal: a crash while the next record is prepared —
// written beside the committed one, not yet renamed over it — leaves a
// prepared file, whole or torn. Resume must roll it back and still
// produce the uninterrupted run's exact Result.
func TestResumeTornJournal(t *testing.T) {
	p := testProgram()
	cfg := parMachine(1, 4, 8, 256)
	clean, err := core.Run(p, cfg, core.Options{Seed: 3, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	crashed := &panicProgram{Program: p, panicStep: 2}
	_, err = core.Run(crashed, cfg, core.Options{Seed: 3, StateDir: dir})
	crashed.crashed(t, "crashed run", err)
	// Simulate the torn prepared file of the never-committed record.
	if err := os.WriteFile(filepath.Join(dir, "journal.prep"), make([]byte, 57), 0o666); err != nil {
		t.Fatal(err)
	}

	res, err := core.Run(p, cfg, core.Options{Seed: 3, StateDir: dir, Resume: true})
	if err != nil {
		t.Fatalf("resume after torn tail: %v", err)
	}
	resultsIdentical(t, clean, res, "torn tail")
}

// TestResumeCorruptJournal: a committed record that fails its checksum
// is a typed journal error — never silently replayed.
func TestResumeCorruptJournal(t *testing.T) {
	p := testProgram()
	cfg := parMachine(1, 4, 8, 256)
	dir := t.TempDir()
	crashed := &panicProgram{Program: p, panicStep: 2}
	_, err := core.Run(crashed, cfg, core.Options{Seed: 3, StateDir: dir})
	crashed.crashed(t, "crashed run", err)

	path := filepath.Join(dir, "journal.wal")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(path, buf, 0o666); err != nil {
		t.Fatal(err)
	}

	_, err = core.Run(p, cfg, core.Options{Seed: 3, StateDir: dir, Resume: true})
	var je *journal.Error
	if !errors.As(err, &je) {
		t.Fatalf("resume of corrupt journal returned %v, want *journal.Error", err)
	}
}

// TestResumeNoCheckpoint: a run that died before its first barrier
// commit has nothing to resume from, and says so.
func TestResumeNoCheckpoint(t *testing.T) {
	cfg := parMachine(1, 4, 8, 256)
	dir := t.TempDir()
	f, err := disk.OpenFile(filepath.Join(dir, "proc-00"), disk.Config{D: cfg.D, B: cfg.B}, false)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	j, err := journal.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, err = core.Run(testProgram(), cfg, core.Options{Seed: 3, StateDir: dir, Resume: true})
	var je *journal.Error
	if !errors.As(err, &je) {
		t.Fatalf("got %v, want *journal.Error", err)
	}
}

// TestResumeRefusesOlderManifest: state directories journaled by the
// engines before they were merged (the P=1 "SEQ" manifest with its
// drives at the root, the P>1 "PAR" manifest) followed other model
// rules; continuing one would blend two rules' I/O counts into one
// run's statistics. They are refused by the manifest kind, before a
// single drive is opened: the directory is left byte for byte as found.
func TestResumeRefusesOlderManifest(t *testing.T) {
	const seqKind, parKind = 0x5345513, 0x5041523
	for _, tc := range []struct {
		name   string
		kind   uint64
		p      int
		drives []string
	}{
		{"SEQ", seqKind, 1, []string{"."}},
		{"PAR", parKind, 2, []string{"proc-00", "proc-01"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := parMachine(tc.p, 4, 8, 256)
			dir := t.TempDir()
			for _, sub := range tc.drives {
				f, err := disk.OpenFile(filepath.Join(dir, sub), disk.Config{D: cfg.D, B: cfg.B}, false)
				if err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			j, err := journal.Create(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append([]uint64{tc.kind, 0xfeed, 1, 0}); err != nil {
				t.Fatal(err)
			}
			j.Close()

			before := dirBytes(t, dir)
			_, err = core.Run(testProgram(), cfg, core.Options{Seed: 3, StateDir: dir, Resume: true})
			if err == nil || !strings.Contains(err.Error(), "different engine") {
				t.Fatalf("got %v, want the manifest-kind refusal", err)
			}
			if !reflect.DeepEqual(before, dirBytes(t, dir)) {
				t.Error("the refused resume changed the directory")
			}
		})
	}
}

// TestResumeRefusesOlderModelRules: a state directory journaled at
// modelRules = 2 holds one-message-per-block regions, and one journaled
// at modelRules = 3 holds padded context slots with no used-block table
// in its manifest; one journaled at modelRules = 4 has no directory in
// its processor sections and counts supersteps that were all routed;
// one journaled at modelRules = 5 counts, under parity, the read-backs
// of stripes that mixed three supersteps' tracks, and its parity layer's
// record has one counter fewer; one journaled at modelRules = 6 keeps its
// contexts in two reserved areas its drive files are sized for, and names
// them by area and used-block table where this engine reads a context
// directory; one journaled at modelRules = 7 carries in every processor
// section the six words of a routed input this engine's reader would take
// for the skew and the directory; one journaled at modelRules = 8 keeps
// every batch's contexts on tracks and its records have no held section,
// where this engine reads the turnaround batch's records from the record;
// one journaled at modelRules = 13 placed a P > 1 run's message blocks on
// random processors, where this engine reads each processor's input as
// all of its VPs' blocks; one journaled at modelRules = 14 carries, in its
// redundancy layer's part of every record, a scrub cursor, a remap table
// and repair counters this engine no longer reads (that layer is absent
// from this run, but the fingerprint's words for its options moved too);
// this engine can neither parse them nor continue them into honest
// counts. The directory is a crashed run of this commit whose record is
// rewritten to carry the fingerprint an older commit (modelRules = 2 to
// 8, 13 and 14, each read off a journal its binary wrote) stamps on the
// same program, machine and options; it is refused
// by the fingerprint and left byte for byte as found. (A directory PR 24 wrote past its first barrier is
// refused before that, by the journal: TestJournalRefusesManyRecords.)
func TestResumeRefusesOlderModelRules(t *testing.T) {
	for rules, fpr := range map[int]uint64{2: 0x694602f950d5dc1f, 3: 0xda8683cbbeac7df0, 4: 0x2af4776ab2b2b351, 5: 0x2e69c34c7b3c67c0, 6: 0x7927757ced92eb43, 7: 0xbc01eb90947c72c6, 8: 0x2f8add74d071256d, 13: 0x424e35fb2bfa49a2, 14: 0xd9bf13d44e6ba1b3} {
		t.Run(fmt.Sprintf("rules%d", rules), func(t *testing.T) { refusesFingerprint(t, fpr) })
	}
}

func refusesFingerprint(t *testing.T, olderFpr uint64) {
	p, cfg := testProgram(), parMachine(1, 4, 8, 256)
	dir := t.TempDir()
	crashed := &panicProgram{Program: p, panicStep: 2}
	_, err := core.Run(crashed, cfg, core.Options{Seed: 3, StateDir: dir})
	crashed.crashed(t, "crashed run", err)
	last, n, err := journal.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || last[1] == olderFpr {
		t.Fatalf("%d records, the last stamped %#x: modelRules is not folded into the fingerprint", n, olderFpr)
	}
	j, err := journal.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	last[1] = olderFpr
	for i := 0; i < n; i++ {
		if err := j.Append(last); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	before := dirBytes(t, dir)
	_, err = core.Run(p, cfg, core.Options{Seed: 3, StateDir: dir, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("got %v, want the fingerprint refusal", err)
	}
	if !reflect.DeepEqual(before, dirBytes(t, dir)) {
		t.Error("the refused resume changed the directory")
	}
}

// forger lets a run reach superstep `at`'s barrier, rewrites a track of
// the unrouted input the barrier is about to journal, and crashes the
// run when the next superstep begins.
type forger struct {
	core.Transport
	at     int
	forged bool
}

var errForgedCrash = errors.New("injected crash after the forged record")

func (f *forger) Prepare(step int, halted bool) ([]int64, error) {
	ops, err := f.Transport.Prepare(step, halted)
	if err == nil && step == f.at {
		f.forged = core.ForgeInputTrack(f.Transport)
	}
	return ops, err
}

func (f *forger) Begin(step int) error {
	if step > f.at {
		return errForgedCrash
	}
	return f.Transport.Begin(step)
}

// TestResumeRefusesForgedDirectory: the journaled directory of an
// unrouted input is read from and freed through, so a record naming a
// track the adopted allocator never handed out — damage the record's
// checksum does not see, because it was there when the record was
// written — is refused with the engine's typed error, at P = 1 and per
// processor section at P = 2, every time it is tried.
func TestResumeRefusesForgedDirectory(t *testing.T) {
	p := testProgram()
	for _, procs := range []int{1, 2} {
		cfg := parMachine(procs, 4, 8, 256)
		dir := t.TempDir()
		var f *forger
		_, err := core.RunOver(func(e core.Transport) core.Transport {
			f = &forger{Transport: e, at: 1}
			return f
		}, p, cfg, core.Options{Seed: 3, StateDir: dir})
		if !errors.Is(err, errForgedCrash) || !f.forged {
			t.Fatalf("P=%d: run ended with %v (forged: %v), want the injected crash after a forged record", procs, err, f.forged)
		}
		for try := 0; try < 2; try++ {
			_, err = core.Run(p, cfg, core.Options{Seed: 3, StateDir: dir, Resume: true})
			if !core.IsEngineError(err) || !strings.Contains(err.Error(), "beyond the allocator's mark") {
				t.Fatalf("P=%d try %d: resume returned %v, want the typed refusal of the forged track", procs, try, err)
			}
		}
	}
}

// dirBytes reads every file under root, keyed by relative path
// (directories map to nil).
func dirBytes(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			files[rel] = nil
			return nil
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestResumeConfigMismatch: a journal records a fingerprint of the
// program shape, machine and options; resuming under anything else is
// refused rather than silently producing garbage.
func TestResumeConfigMismatch(t *testing.T) {
	p := testProgram()
	cfg := parMachine(1, 4, 8, 256)
	dir := t.TempDir()
	crashed := &panicProgram{Program: p, panicStep: 2}
	_, err := core.Run(crashed, cfg, core.Options{Seed: 3, StateDir: dir})
	crashed.crashed(t, "crashed run", err)

	if _, err := core.Run(p, cfg, core.Options{Seed: 4, StateDir: dir, Resume: true}); err == nil {
		t.Error("resume with a different seed: want error, got nil")
	}
	if _, err := core.Run(p, cfg, core.Options{Seed: 3, Deterministic: true, StateDir: dir, Resume: true}); err == nil {
		t.Error("resume with different options: want error, got nil")
	}
	// The fingerprint sees the program's shape (v, µ, γ), not its code:
	// a different MaxLen changes γ and is caught.
	other := &bsptest.RandomProgram{V: 16, Steps: 5, MsgsPerStep: 4, MaxLen: 20}
	if _, err := core.Run(other, cfg, core.Options{Seed: 3, StateDir: dir, Resume: true}); err == nil {
		t.Error("resume with a different-shaped program: want error, got nil")
	}
	// A different engine (P) is caught by the manifest kind.
	if _, err := core.Run(p, parMachine(3, 4, 8, 256), core.Options{Seed: 3, StateDir: dir, Resume: true}); err == nil {
		t.Error("resume with a different P: want error, got nil")
	}
}

// brokenCodec is a program whose VP id 1 panics in Save (from superstep
// `save` on; -1: already in the setup's initial Save) or reads one word
// more than was saved in every Load. Save and Load are handed no Env,
// and an engine may Load VP 1 into any object, so every VP is wrapped
// and its context carries its id behind the program's words.
type brokenCodec struct {
	bsp.Program
	save     int
	overread bool
}

func (p *brokenCodec) NewVP(id int) bsp.VP {
	return &brokenCodecVP{VP: p.Program.NewVP(id), p: p, id: id, step: -1}
}

type brokenCodecVP struct {
	bsp.VP
	p    *brokenCodec
	id   int // the VP held: NewVP's, then the last Load's
	step int // the superstep last stepped; -1 before any
}

func (v *brokenCodecVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	v.step = env.Superstep()
	return v.VP.Step(env, in)
}

func (v *brokenCodecVP) Save(enc *words.Encoder) {
	if v.id == 1 && !v.p.overread && v.step >= v.p.save {
		panic("injected Save panic")
	}
	v.VP.Save(enc)
	enc.PutUint(uint64(v.id))
}

func (v *brokenCodecVP) Load(dec *words.Decoder) {
	v.VP.Load(dec)
	if v.id = int(dec.Uint()); v.id == 1 && v.p.overread {
		dec.Uint() // a context is exactly the words Save wrote: no padding to read
	}
}

// TestCodecPanicIsolation: a Save or Load that panics is the program's
// error as a Step's is — a *bsp.ProgramError naming the VP, the superstep
// and the phase — from the setup, the superstep loop and the cluster
// transport alike, with the process alive.
func TestCodecPanicIsolation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		prog  *brokenCodec
		step  int
		phase string
	}{
		{"initial save", &brokenCodec{Program: testProgram(), save: -1}, -1, "save"},
		{"save", &brokenCodec{Program: testProgram(), save: 2}, 2, "save"},
		{"load", &brokenCodec{Program: testProgram(), overread: true}, 0, "load"},
	} {
		check := func(label string, err error) {
			t.Helper()
			var pe *bsp.ProgramError
			if !errors.As(err, &pe) {
				t.Fatalf("%s %s: got %v, want *bsp.ProgramError", tc.name, label, err)
			}
			if pe.VP != 1 || pe.Superstep != tc.step || pe.Phase != tc.phase || len(pe.Stack) == 0 {
				t.Errorf("%s %s: VP %d superstep %d phase %q (%d bytes of stack), want VP 1 superstep %d phase %q", tc.name, label, pe.VP, pe.Superstep, pe.Phase, len(pe.Stack), tc.step, tc.phase)
			}
			if core.Retriable(err) {
				t.Errorf("%s %s: classified retriable", tc.name, label)
			}
		}
		for _, procs := range []int{1, 3} {
			_, err := core.Run(tc.prog, parMachine(procs, 4, 8, 256), core.Options{Seed: 3})
			check(fmt.Sprintf("P=%d", procs), err)
		}
		rig := openRig(t, tc.prog, parMachine(2, 4, 8, 256), core.Options{Seed: 3}, t.TempDir(), false)
		_, err := rig.coord.Run(rig)
		rig.close()
		check("cluster", err)
	}
}

// TestPanicIsolation: a panicking Program comes back as a typed
// ProgramError from all three engines, with the process alive.
func TestPanicIsolation(t *testing.T) {
	p := &panicProgram{Program: testProgram(), panicStep: 1}
	check := func(label string, err error) {
		t.Helper()
		p.crashed(t, label, err)
		var pe *bsp.ProgramError
		if errors.As(err, &pe); len(pe.Stack) == 0 {
			t.Errorf("%s: no stack captured", label)
		}
	}
	_, err := bsp.Run(p, bsp.RunOptions{Seed: 3, PktSize: 8})
	check("reference", err)
	for _, procs := range []int{1, 3} {
		_, err := core.Run(p, parMachine(procs, 4, 8, 256), core.Options{Seed: 3})
		check(fmt.Sprintf("P=%d", procs), err)
	}
}

// TestValidation: malformed machine configurations and options are
// rejected up front with descriptive errors.
func TestValidation(t *testing.T) {
	good := parMachine(1, 4, 8, 256)
	p := testProgram()
	cases := []struct {
		name string
		cfg  core.MachineConfig
		opts core.Options
	}{
		{"MaxRetries below -1", good, core.Options{MaxRetries: -2}},
		{"Resume without StateDir", good, core.Options{Resume: true}},
		{"FailProc out of range", good, core.Options{FaultPlan: &fault.Plan{Seed: 1, ReadErrorRate: 0.1, FailProc: 3}}},
		{"FailDrive out of range", good, core.Options{FaultPlan: &fault.Plan{Seed: 1, FailDriveOp: 5, FailDrive: 9}}},
		{"fault rate out of range", good, core.Options{FaultPlan: &fault.Plan{Seed: 1, ReadErrorRate: 1.5}}},
		{"negative L", core.MachineConfig{P: 1, M: 256, D: 4, B: 8, G: 10, Cost: bsp.CostParams{GUnit: 1, GPkt: 2, Pkt: 16, L: -1}}, core.Options{}},
	}
	for _, tc := range cases {
		if _, err := core.Run(p, tc.cfg, tc.opts); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	// Three combinations were refused while a scattered input was an
	// ablation that freed its blocks as it read them. It is freed at the
	// barrier commit now, and each of them is a run like any other.
	ref, err := bsp.Run(p, bsp.RunOptions{Seed: 3, PktSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  core.MachineConfig
		opts core.Options
	}{
		{"scattered input P>1", parMachine(2, 4, 8, 256), core.Options{}},
		{"scattered input durable", good, core.Options{StateDir: t.TempDir()}},
		{"scattered input with faults", good, core.Options{FaultPlan: transientPlan(1)}},
	} {
		tc.opts.Seed = 3
		res, err := core.Run(p, tc.cfg, tc.opts)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		checksumsEqual(t, ref, res, tc.name)
	}
}
