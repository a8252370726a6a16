package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
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
