package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"embsp/internal/bench"
)

var update = flag.Bool("update", false, "rewrite ../../RESULTS-medium.txt from this tree")

// resultsFile is `embsp-bench -all -scale medium`'s committed output,
// which EXPERIMENTS.md quotes.
const resultsFile = "../../RESULTS-medium.txt"

// doneLine matches a report's timing line, the file's only wall-clock
// text.
var doneLine = regexp.MustCompile(`(?m)^--- \S+ done in .*\n`)

// TestResultsMedium regenerates RESULTS-medium.txt in process — every
// experiment at the medium scale, as `embsp-bench -all -scale medium`
// prints it — and requires the committed file to say the same, its
// timing lines aside, so the file and the EXPERIMENTS.md that quotes it
// cannot drift from what the code prints. With -update it rewrites the
// file instead. It takes seconds, so -short skips it, and so does -race,
// under which it takes a minute: CI runs it on its own.
func TestResultsMedium(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("regenerates every experiment at the medium scale")
	}
	var got bytes.Buffer
	for _, e := range bench.Experiments() {
		if err := report(&got, e, bench.Medium); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	if *update {
		if err := os.WriteFile(resultsFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(resultsFile)
	if err != nil {
		t.Fatal(err)
	}
	g, w := doneLine.ReplaceAll(got.Bytes(), nil), doneLine.ReplaceAll(want, nil)
	if !bytes.Equal(g, w) {
		gl, wl := bytes.Split(g, []byte("\n")), bytes.Split(w, []byte("\n"))
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("RESULTS-medium.txt differs from what this tree prints (timing lines aside) at line %d:\n got %q\nwant %q\n(go test ./cmd/embsp-bench -run TestResultsMedium -update rewrites it)", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("RESULTS-medium.txt holds %d lines (timing lines aside), this tree prints %d", len(wl), len(gl))
	}
}

// TestRunSelectsByPrefix: -run takes an experiment id, or an id ending
// in "/" for every experiment under that prefix — `-run table1/` runs
// the Table 1 rows.
func TestRunSelectsByPrefix(t *testing.T) {
	var table1 []string
	for _, e := range bench.Experiments() {
		if strings.HasPrefix(e.ID, "table1/") {
			table1 = append(table1, e.ID)
		}
	}
	if len(table1) == 0 {
		t.Fatal("the registry has no table1/ experiments")
	}
	var got []string
	for _, e := range matching("table1/") {
		got = append(got, e.ID)
	}
	if !slices.Equal(got, table1) {
		t.Errorf("-run table1/ selects %v, want %v", got, table1)
	}
	if es := matching(table1[0]); len(es) != 1 || es[0].ID != table1[0] {
		t.Errorf("-run %s selects %d experiments, want that one", table1[0], len(es))
	}
	for _, id := range []string{"table1", "nope/", "table1/nope"} {
		if es := matching(id); len(es) != 0 {
			t.Errorf("-run %s selects %d experiments, want none", id, len(es))
		}
	}
}
