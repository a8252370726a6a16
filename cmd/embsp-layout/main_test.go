package main

import (
	"bytes"
	"os"
	"testing"
)

// TestDefaultLayoutPinned: the command's default output is the paper's
// Figure 2 as this repository reproduces it — the machine, the standard
// linked format, the standard consecutive format after SimulateRouting
// and its cost — and no run of the engine crosses Algorithm 2 any more,
// so this text is what keeps it from moving silently.
func TestDefaultLayoutPinned(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run(nil, &out, &errb); rc != 0 {
		t.Fatalf("exit code %d: %s", rc, errb.String())
	}
	want, err := os.ReadFile("testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("embsp-layout printed\n%s\nwant\n%s", out.String(), want)
	}
}
