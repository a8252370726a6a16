package bench_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"embsp/internal/bench"
	"embsp/internal/workload"
)

func TestRegistryWellFormed(t *testing.T) {
	exps := bench.Experiments()
	if len(exps) < 25 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	seen := map[string]bool{}
	for i, e := range exps {
		if e.ID == "" || e.Title == "" || e.Reproduces == "" || e.Run == nil {
			t.Errorf("experiment %d (%q) incomplete", i, e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if i > 0 && exps[i-1].ID >= e.ID {
			t.Errorf("experiments not sorted at %q", e.ID)
		}
		if got, ok := bench.Find(e.ID); !ok || got.ID != e.ID {
			t.Errorf("Find(%q) failed", e.ID)
		}
	}
	// A Table 1 row runs a registry workload, but for the rows composed
	// of several programs.
	composed := map[string]bool{"table1/bicc": true, "table1/eardecomp": true}
	for _, e := range exps {
		if !strings.HasPrefix(e.ID, "table1/") {
			continue
		}
		if composed[e.ID] != (e.Workload == "") || (e.Workload != "" && !slices.Contains(workload.Names(), e.Workload)) {
			t.Errorf("%s names workload %q; registered: %v", e.ID, e.Workload, workload.Names())
		}
	}
	if _, ok := bench.Find("no/such"); ok {
		t.Error("Find accepted an unknown id")
	}
	if _, err := bench.ParseScale("bogus"); err == nil {
		t.Error("ParseScale accepted bogus input")
	}
	for _, s := range []string{"small", "medium", "large"} {
		if _, err := bench.ParseScale(s); err != nil {
			t.Errorf("ParseScale(%q): %v", s, err)
		}
	}
}

func TestAllExperimentsSmall(t *testing.T) {
	for _, e := range bench.Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, bench.Small); err != nil {
				t.Fatalf("%s: %v\noutput so far:\n%s", e.ID, err, buf.String())
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", e.ID)
			}
		})
	}
}
