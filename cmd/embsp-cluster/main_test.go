package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets this test binary masquerade as embsp-cluster: spawn
// mode and the subprocess tests re-exec os.Args[0] with reexecEnv set,
// which lands here and dispatches straight into run(). That makes
// every spawned worker and coordinator a real OS process, so SIGKILL
// in these tests is the real syscall, not a simulation.
func TestMain(m *testing.M) {
	if os.Getenv(reexecEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func workloadArgs(p int, root string) []string {
	return []string{
		"-alg", "sort", "-n", "256", "-v", "8", "-p", fmt.Sprint(p),
		"-d", "2", "-b", "16", "-seed", "9", "-state-dir", root,
	}
}

func TestSpawnSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	var stdout, stderr bytes.Buffer
	args := append(workloadArgs(2, t.TempDir()), "-spawn", "-check")
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "check: ok") {
		t.Fatalf("no bitwise-identity check in output:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "fingerprint: ") {
		t.Fatalf("no fingerprint line:\n%s", stdout.String())
	}
}

// TestSpawnWorkerSIGKILL kills worker 1 — a real child process, real
// SIGKILL — right after it fsyncs its PREPARE record, mid two-phase
// commit. The coordinator respawns it, the rejoin handshake presumes
// the undecided record aborted, the superstep replays, and the final
// Result is bitwise identical to the in-process engine.
func TestSpawnWorkerSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	var stdout, stderr bytes.Buffer
	args := append(workloadArgs(3, t.TempDir()),
		"-spawn", "-check", "-kill-worker", "1", "-kill-at", "prepared@1")
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "check: ok") {
		t.Fatalf("run survived the kill but is not identical:\n%s", stdout.String())
	}
}

// TestCoordinatorSIGKILL runs everything as subprocesses: two join-mode
// workers plus a coordinator that SIGKILLs itself right after the 2PC
// decision record lands and before any worker hears COMMIT. The
// workers outlive it and redial; a second coordinator invocation with
// the same command line resumes from the decision journal, commits the
// workers' prepared records through the rejoin handshake, and finishes
// bitwise identical.
func TestCoordinatorSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	root := t.TempDir()
	base := workloadArgs(2, root)

	coord1 := exec.Command(os.Args[0], append([]string{"-listen", "127.0.0.1:0", "-kill-at", "decided@1"}, base...)...)
	coord1.Env = append(os.Environ(), reexecEnv+"=1")
	stderrPipe, err := coord1.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord1.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord1.Process.Kill() //nolint:errcheck

	// The coordinator prints its bound address; everything after is
	// relayed so failures stay debuggable.
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderrPipe)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on "); i >= 0 && strings.Contains(line, "coordinating") {
				select {
				case addrc <- line[i+4:]:
				default:
				}
			}
			t.Logf("coord1: %s", line)
		}
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(20 * time.Second):
		t.Fatal("coordinator never announced its address")
	}

	workers := make([]*exec.Cmd, 2)
	for i := range workers {
		w := exec.Command(os.Args[0], append([]string{"-join", addr, "-node", fmt.Sprint(i)}, base...)...)
		w.Env = append(os.Environ(), reexecEnv+"=1")
		w.Stdout, w.Stderr = os.Stderr, os.Stderr
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		defer w.Process.Kill() //nolint:errcheck
	}

	// The coordinator must die by its own SIGKILL, not exit cleanly.
	err = coord1.Wait()
	if err == nil {
		t.Fatal("coordinator exited cleanly; the kill probe never fired")
	}
	if coord1.ProcessState.ExitCode() != -1 {
		t.Fatalf("coordinator exit: %v (want SIGKILL)", coord1.ProcessState)
	}

	// Restart on the same address with the same state; workers are
	// still redialing it.
	var stdout, stderr bytes.Buffer
	coord2 := exec.Command(os.Args[0], append([]string{"-listen", addr, "-check"}, base...)...)
	coord2.Env = append(os.Environ(), reexecEnv+"=1")
	coord2.Stdout, coord2.Stderr = &stdout, &stderr
	if err := coord2.Run(); err != nil {
		t.Fatalf("restarted coordinator: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "check: ok") {
		t.Fatalf("resumed run is not identical:\n%s\n%s", stdout.String(), stderr.String())
	}

	for i, w := range workers {
		if err := w.Wait(); err != nil {
			t.Fatalf("worker %d exit: %v", i, err)
		}
	}
}

func TestWorkerArgsFilter(t *testing.T) {
	in := []string{
		"-spawn", "-check", "-alg", "sort", "-n", "256", "-kill-at", "prepared@1",
		"-kill-worker", "1", "-state-dir", "/tmp/x",
		"-listen", ":7000", "-seed=5", "-secret", "hunter2", "-heartbeat", "1s",
		"-heartbeat-timeout", "4s", "-replicate=false", "-spares", "2", "-wipe",
	}
	got := strings.Join(workerArgs(in), " ")
	want := "-alg sort -n 256 -state-dir /tmp/x -seed=5" +
		" -secret hunter2 -heartbeat 1s -heartbeat-timeout 4s"
	if got != want {
		t.Fatalf("workerArgs:\n got %q\nwant %q", got, want)
	}
}
