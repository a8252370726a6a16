package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"embsp"
)

// runCLI drives the command in-process and returns (stdout, stderr,
// exit code).
func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	rc := run(args, &out, &errb)
	return out.String(), errb.String(), rc
}

// TestStdoutStaysDiffableAndOverlapGating pins the stdout/stderr
// split the crash-recovery CI check relies on: the model results on
// stdout are byte-for-byte identical between an in-memory and a
// file-backed run of the same workload, and the wall-clock pipeline
// overlap line appears only on the file-backed run's stderr.
func TestStdoutStaysDiffableAndOverlapGating(t *testing.T) {
	base := []string{"-alg", "sort", "-n", "4096", "-v", "8", "-seed", "3"}

	memOut, memErr, rc := runCLI(t, base...)
	if rc != 0 {
		t.Fatalf("in-memory run failed (rc=%d): %s", rc, memErr)
	}
	if strings.Contains(memErr, "pipeline:") {
		t.Errorf("in-memory run printed a pipeline overlap line:\n%s", memErr)
	}
	if strings.Contains(memOut, "pipeline:") {
		t.Errorf("overlap line leaked onto stdout:\n%s", memOut)
	}

	// The emulated drive latency routes transfers through the worker
	// queues: at zero latency the store's inline fast path generates
	// no overlap activity, and the all-zero line is suppressed.
	dir := t.TempDir()
	fileOut, fileErr, rc := runCLI(t, append(base, "-state-dir", dir, "-drive-latency", "2ms")...)
	if rc != 0 {
		t.Fatalf("file-backed run failed (rc=%d): %s", rc, fileErr)
	}
	if fileOut != memOut {
		t.Errorf("stdout differs between in-memory and file-backed runs:\n--- mem ---\n%s--- file ---\n%s", memOut, fileOut)
	}
	if !strings.Contains(fileErr, "pipeline:") {
		t.Errorf("file-backed pipelined run printed no overlap line; stderr:\n%s", fileErr)
	}
}

// TestTraceAndReportFlags checks that -trace writes a decodable Chrome
// trace containing the engine phases and -report prints the breakdown
// on stderr without disturbing stdout.
func TestTraceAndReportFlags(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "out.json")

	plainOut, _, rc := runCLI(t, "-alg", "permute", "-n", "2048", "-v", "8")
	if rc != 0 {
		t.Fatalf("plain run failed (rc=%d)", rc)
	}
	out, errb, rc := runCLI(t, "-alg", "permute", "-n", "2048", "-v", "8",
		"-state-dir", filepath.Join(dir, "state"), "-trace", trace, "-report")
	if rc != 0 {
		t.Fatalf("traced run failed (rc=%d): %s", rc, errb)
	}
	if out != plainOut {
		t.Errorf("tracing changed stdout:\n--- plain ---\n%s--- traced ---\n%s", plainOut, out)
	}
	if !strings.Contains(errb, "phase report") {
		t.Errorf("-report printed no phase report; stderr:\n%s", errb)
	}
	if strings.Contains(out, "phase report") {
		t.Errorf("phase report leaked onto stdout:\n%s", out)
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	evs, err := embsp.DecodeTrace(data)
	if err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range evs {
		names[ev.Name] = true
	}
	for _, want := range []string{"compute", "fetch-ctx", "write-ctx", "barrier-sync", "journal-append", "phys-write"} {
		if !names[want] {
			t.Errorf("trace has no %q events; phases seen: %v", want, names)
		}
	}
}

// TestMetricsAddrFlag spins up the metrics endpoint on a free port and
// scrapes it once while the flag machinery still holds it open.
func TestMetricsAddrFlag(t *testing.T) {
	reg := embsp.NewMetricsRegistry()
	addr, err := embsp.ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("ServeMetrics: %v", err)
	}
	if _, _, rc := runCLI(t, "-alg", "sort", "-n", "1024", "-v", "4", "-metrics-addr", "127.0.0.1:0"); rc != 0 {
		t.Fatalf("run with -metrics-addr failed (rc=%d)", rc)
	}
	reg.Counter("smoke").Add(1)
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatalf("scraping /metrics: %v", err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if !strings.Contains(body.String(), "embsp_smoke 1") {
		t.Errorf("scrape missing embsp_smoke counter:\n%s", body.String())
	}
}

// TestMirrorIsRedundancy: a mirror is a redundancy mode, not a fault: the
// -faults field that used to switch it on is refused with the flag that
// does, and a mirror run prints the redundancy line a parity run does.
func TestMirrorIsRedundancy(t *testing.T) {
	base := []string{"-alg", "sort", "-n", "2048", "-v", "8", "-seed", "3"}
	_, errb, rc := runCLI(t, append(base, "-faults", "faildrive=1@40,mirror")...)
	if rc != 2 || !strings.Contains(errb, "-redundancy mirror") {
		t.Errorf("-faults …,mirror: exit %d, stderr %q; want exit 2 naming -redundancy mirror", rc, errb)
	}
	for _, mode := range []string{"mirror", "parity"} {
		out, errb, rc := runCLI(t, append(base, "-redundancy", mode, "-faults", "faildrive=1@4")...)
		if rc != 0 {
			t.Fatalf("-redundancy %s with a drive death: exit %d: %s", mode, rc, errb)
		}
		if !strings.Contains(out, "redundancy: "+mode+", ") || !strings.Contains(out, "1 drive losses") {
			t.Errorf("-redundancy %s with a drive death printed:\n%s", mode, out)
		}
	}
}
