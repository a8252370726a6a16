package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestRunHelper is the CLI under test for the signal tests: they
// re-execute the test binary with this env set so a real process
// receives real signals.
func TestRunHelper(t *testing.T) {
	if os.Getenv("EMBSP_RUN_HELPER") != "1" {
		t.Skip("helper process for the signal tests")
	}
	os.Exit(run(strings.Split(os.Getenv("EMBSP_RUN_ARGS"), "\x1f"), os.Stdout, os.Stderr))
}

type signalBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *signalBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *signalBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func waitFor(t *testing.T, what string, timeout time.Duration, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSecondSignalForcesImmediateExit: the first SIGINT asks the run
// to stop at the next superstep barrier; a second one must not wait
// for the barrier — the process exits immediately with 130.
func TestSecondSignalForcesImmediateExit(t *testing.T) {
	state := t.TempDir()
	// 200ms per track keeps superstep 0's barrier at least one transfer
	// away (it writes one operation of message blocks), so only the
	// forced exit can finish this test quickly. (The set-up moves
	// nothing: with one batch, its contexts stay in memory.)
	args := []string{
		"-alg", "sort", "-n", "4096", "-v", "6", "-seed", "3", "-b", "64",
		"-state-dir", state, "-drive-latency", "200ms",
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestRunHelper$")
	cmd.Env = append(os.Environ(),
		"EMBSP_RUN_HELPER=1",
		"EMBSP_RUN_ARGS="+strings.Join(args, "\x1f"))
	out := &signalBuf{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		}
	})

	// The journal holds a record once the set-up's barrier has
	// committed: the run is in superstep 0.
	waitFor(t, "the run to start", 30*time.Second, func() bool {
		fi, err := os.Stat(filepath.Join(state, "journal.wal"))
		return err == nil && fi.Size() > 0
	})
	// A signal between that commit and superstep 0's begin would stop
	// the run there, gracefully, before a second one could land.
	time.Sleep(20 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the graceful-stop message", 10*time.Second, func() bool {
		return strings.Contains(out.String(), "stopping at the next superstep barrier")
	})
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }() //nolint:errcheck
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("still alive 10s after the second SIGINT; output:\n%s", out)
	}
	if code := cmd.ProcessState.ExitCode(); code != 128+int(syscall.SIGINT) {
		t.Errorf("exit code %d, want %d; output:\n%s", code, 128+int(syscall.SIGINT), out)
	}
	if !strings.Contains(out.String(), "forcing immediate exit") {
		t.Errorf("missing force-exit message; output:\n%s", out)
	}
}
