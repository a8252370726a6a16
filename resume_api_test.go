package embsp_test

// The durability tentpole's acceptance property over the public API: a
// Table 1 workload killed with SIGKILL mid-superstep — a real process
// death, not a simulated one — and resumed from its state directory
// produces a Result bitwise identical to the uninterrupted run.
//
// The kill happens in a re-executed copy of the test binary (the
// crashHelper test below), because SIGKILL cannot be recovered from
// in-process.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"embsp"
	"embsp/internal/core"
	"embsp/internal/prng"
)

const (
	helperEnv = "EMBSP_CRASH_HELPER_DIR"
	killEnv   = "EMBSP_CRASH_KILL_STEP"
	storeEnv  = "EMBSP_CRASH_STORE" // "mapped" runs the helper on the mmap-backed store
	procsEnv  = "EMBSP_CRASH_PROCS" // the helper's P, when not crashMachine's 1
	// latencyEnv, set to a duration, runs the helper under that emulated
	// drive latency: the pipelined schedule, with I/O workers, prefetch
	// and write-behind live at the kill.
	latencyEnv = "EMBSP_CRASH_LATENCY"
	// commitEnv, set to a barrier b, has the helper die right after b's
	// decision record lands rather than mid-superstep — for the halting
	// barrier, which no superstep follows.
	commitEnv = "EMBSP_CRASH_AFTER_COMMIT"
)

// crashSort builds the workload deterministically so the parent, the
// helper process and the resumed run all simulate the same program.
func crashSort(t *testing.T) *embsp.SortProgram {
	t.Helper()
	r := prng.New(7)
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	p, err := embsp.NewSort(keys, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func crashMachine() embsp.MachineConfig {
	return embsp.MachineConfig{
		P: 1, M: 8192, D: 4, B: 64, G: 10,
		Cost: embsp.CostParams{GUnit: 1, GPkt: 2, Pkt: 128, L: 5},
	}
}

// sigkillProgram hard-kills the process when VP v/2 starts computing
// superstep killStep — no deferred cleanup runs, exactly like a power
// loss. Every VP is wrapped and the victim is found by Env.ID: an engine
// steps VP v/2 in whichever object its slot holds. In a superstep that
// VP v/2 began asleep — the sort's phase 1, in which only VP 0 works —
// VP 0 is a victim too: whichever of the two is stepped first dies.
type sigkillProgram struct {
	embsp.Program
	killStep int
	asleep   bool // VP v/2 voted halt in superstep voted
	voted    int
}

func (p *sigkillProgram) NewVP(id int) embsp.VP {
	return &sigkillVP{VP: p.Program.NewVP(id), p: p}
}

type sigkillVP struct {
	embsp.VP
	p *sigkillProgram
}

func (k *sigkillVP) Step(env *embsp.Env, in []embsp.Message) (bool, error) {
	half, id, step := k.p.NumVPs()/2, env.ID(), env.Superstep()
	victim := id == half || id == 0 && k.p.asleep && k.p.voted < step
	if victim && step == k.p.killStep {
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
	halt, err := k.VP.Step(env, in)
	if id == half {
		k.p.asleep, k.p.voted = halt, step
	}
	return halt, err
}

// TestCrashHelperProcess is not a test of its own: re-executed by
// TestKillAndResumeSort with the environment set, it starts the
// durable run that SIGKILLs itself mid-superstep.
func TestCrashHelperProcess(t *testing.T) {
	dir := os.Getenv(helperEnv)
	if dir == "" {
		t.Skip("helper: only runs re-executed with " + helperEnv)
	}
	killStep, err := -1, error(nil)
	if k := os.Getenv(killEnv); k != "" {
		if killStep, err = strconv.Atoi(k); err != nil {
			t.Fatal(err)
		}
	}
	prog := &sigkillProgram{Program: crashSort(t), killStep: killStep}
	opts := embsp.Options{Seed: 7, StateDir: dir}
	if os.Getenv(storeEnv) == "mapped" {
		opts.MappedStore = true
	}
	if lat := os.Getenv(latencyEnv); lat != "" {
		if opts.DriveLatency, err = time.ParseDuration(lat); err != nil {
			t.Fatal(err)
		}
	}
	cfg := crashMachine()
	if procs := os.Getenv(procsEnv); procs != "" {
		if cfg.P, err = strconv.Atoi(procs); err != nil {
			t.Fatal(err)
		}
	}
	if b := os.Getenv(commitEnv); b != "" {
		barrier, err := strconv.Atoi(b)
		if err != nil {
			t.Fatal(err)
		}
		opts.OnCommit = func(step int) {
			if step == barrier {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}
	_, err = embsp.Run(prog, cfg, opts)
	t.Fatalf("run survived its own SIGKILL: err=%v", err)
}

func TestKillAndResumeSort(t *testing.T) {
	p := crashSort(t)
	cfg := crashMachine()
	clean, err := embsp.Run(p, cfg, embsp.Options{Seed: 7, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "state")
	cmd := exec.Command(os.Args[0], "-test.run", "TestCrashHelperProcess")
	cmd.Env = append(os.Environ(), helperEnv+"="+dir, killEnv+"=3")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("helper did not die by SIGKILL: err=%v\n%s", err, out)
	}

	res, err := embsp.Run(p, cfg, embsp.Options{Seed: 7, StateDir: dir, Resume: true})
	if err != nil {
		t.Fatalf("resume after SIGKILL: %v", err)
	}

	resOut := p.Output(res.VPs)
	for i := 1; i < len(resOut); i++ {
		if resOut[i-1] > resOut[i] {
			t.Fatalf("resumed output not sorted at %d", i)
		}
	}
	sameAsClean(t, "resume after SIGKILL", clean, res)
}

// TestKillMidPipelineAndResumeSerial is the pipeline's crash-safety
// property: SIGKILL a run on the pipelined schedule, under emulated
// drive latency — dying with prefetched blocks in the cache,
// write-behind queues in flight and possibly a background flush
// mid-fsync — then resume it at zero latency on the serial schedule, a
// fully synchronous store. Crossing the
// physical schedule over the crash boundary proves the journal's
// durable state is schedule-independent: the resumed serial run must
// be bitwise identical to an uninterrupted run.
func TestKillMidPipelineAndResumeSerial(t *testing.T) {
	p := crashSort(t)
	cfg := crashMachine()
	clean, err := embsp.Run(p, cfg, embsp.Options{Seed: 7, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "state")
	cmd := exec.Command(os.Args[0], "-test.run", "TestCrashHelperProcess")
	cmd.Env = append(os.Environ(), helperEnv+"="+dir, killEnv+"=2", latencyEnv+"=200us")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("helper did not die by SIGKILL: err=%v\n%s", err, out)
	}

	res, err := embsp.Run(p, cfg, embsp.Options{Seed: 7, StateDir: dir, Resume: true})
	if err != nil {
		t.Fatalf("resume after SIGKILL mid-pipeline: %v", err)
	}

	sameAsClean(t, "serial resume of a pipelined crash", clean, res)
}

// killHelper re-executes the test binary as the crash helper with the
// given environment and asserts it died by SIGKILL.
func killHelper(t *testing.T, env ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestCrashHelperProcess")
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("helper did not die by SIGKILL: err=%v\n%s", err, out)
	}
}

// sameAsClean holds a resumed run to the uninterrupted one under the
// identity contract (core.Diff).
func sameAsClean(t *testing.T, label string, clean, res *embsp.Result) {
	t.Helper()
	if d := core.Diff(clean, res); d != "" {
		t.Errorf("%s: the resumed run differs from the uninterrupted one: %s", label, d)
	}
}

// TestKillAndResumeAcrossStores crosses the STORE BACKEND over the
// crash boundary, in both directions: SIGKILL a run on the mmap-backed
// store and resume it on the fully synchronous pread/pwrite file
// store, then SIGKILL a pipelined file-store run and resume it on the
// mapped store. The two stores share one on-disk slot format and one
// journal, so each resumed run must be bitwise identical to an
// uninterrupted one — the durable state carries no trace of which
// backend (or physical schedule) wrote it. The kill comes in every
// superstep, so the resume starts from every barrier — the set-up's,
// whose held batch is superstep 0's first, included — and after the
// halting barrier, whose held batch the resumed finish phase decodes
// from the journal; at P = 1 and at P = 2, where the batch's records are
// in every processor's section of the record.
func TestKillAndResumeAcrossStores(t *testing.T) {
	p := crashSort(t)
	for _, procs := range []int{1, 2} {
		cfg := crashMachine()
		cfg.P = procs
		clean, err := embsp.Run(p, cfg, embsp.Options{Seed: 7, StateDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		last := clean.Costs.Supersteps - 1
		for kill := 0; kill <= last+1; kill++ {
			at := killEnv + "=" + strconv.Itoa(kill)
			if kill > last {
				at = commitEnv + "=" + strconv.Itoa(last)
			}
			label := "P=" + strconv.Itoa(procs) + " " + at

			// Die on the mapped store, resume on the synchronous file store.
			dir := filepath.Join(t.TempDir(), "state")
			killHelper(t, helperEnv+"="+dir, at, storeEnv+"=mapped", procsEnv+"="+strconv.Itoa(procs))
			res, err := embsp.Run(p, cfg, embsp.Options{Seed: 7, StateDir: dir, Resume: true})
			if err != nil {
				t.Fatalf("%s: file resume of a mapped crash: %v", label, err)
			}
			sameAsClean(t, label+" mapped->file", clean, res)

			// Die on the pipelined file store, resume on the mapped store.
			dir = filepath.Join(t.TempDir(), "state")
			killHelper(t, helperEnv+"="+dir, at, procsEnv+"="+strconv.Itoa(procs))
			res, err = embsp.Run(p, cfg, embsp.Options{
				Seed: 7, StateDir: dir, Resume: true, MappedStore: true,
			})
			if err != nil {
				t.Fatalf("%s: mapped resume of a pipelined file crash: %v", label, err)
			}
			sameAsClean(t, label+" file->mapped", clean, res)
		}
	}
}

// TestKillAndResumeScatteredInput: the input of the superstep a kill
// interrupts lies where its writer put it, under a directory the last
// barrier journaled per processor. SIGKILL the sort in superstep 3, whose
// input is the all-to-all's, at P = 1 and P = 2 on the file and the
// mapped store, and the resumed run reads that input again from the
// journaled directory, bitwise as an uninterrupted run.
func TestKillAndResumeScatteredInput(t *testing.T) {
	p := crashSort(t)
	for _, procs := range []int{1, 2} {
		cfg := crashMachine()
		cfg.P = procs
		clean, err := embsp.Run(p, cfg, embsp.Options{Seed: 7, StateDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		for _, store := range []string{"file", "mapped"} {
			label := "P=" + strconv.Itoa(procs) + " " + store
			dir := filepath.Join(t.TempDir(), "state")
			killHelper(t, helperEnv+"="+dir, killEnv+"=3", procsEnv+"="+strconv.Itoa(procs), storeEnv+"="+store)
			res, err := embsp.Run(p, cfg, embsp.Options{Seed: 7, StateDir: dir, Resume: true, MappedStore: store == "mapped"})
			if err != nil {
				t.Fatalf("%s: resume after SIGKILL: %v", label, err)
			}
			sameAsClean(t, label, clean, res)
		}
	}
}
