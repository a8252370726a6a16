package main

import (
	"strings"
	"testing"
	"time"

	"embsp/internal/prng"
	"embsp/internal/workload"
)

// TestSoakCrossesSchedules: the soak draws the drive latency — the one
// input that picks the physical schedule — independently for the first
// attempt and the resume, so its cases die under one schedule and
// resume under the other, and the repro line names both latencies.
func TestSoakCrossesSchedules(t *testing.T) {
	r := prng.New(1)
	table := workload.Table1Names()
	crossed := map[[2]time.Duration]bool{}
	for range 400 {
		c := drawCase(r, table)
		line := c.String()
		if !strings.Contains(line, " drive-latency="+c.latency.String()) {
			t.Fatalf("repro line %q does not name the attempt's drive latency %v", line, c.latency)
		}
		if c.killStep < 0 && c.crashStep < 0 {
			continue
		}
		if !strings.Contains(line, " resume-drive-latency="+c.resumeLatency.String()) {
			t.Fatalf("repro line %q does not name the resume's drive latency %v", line, c.resumeLatency)
		}
		crossed[[2]time.Duration{c.latency, c.resumeLatency}] = true
	}
	if len(crossed) != 4 {
		t.Errorf("resumed cases drew the (attempt, resume) latencies %v, want all four pairs of 0 and 20µs", crossed)
	}
}
