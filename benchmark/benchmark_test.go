package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// countMetrics repeat exactly for one seed: they are counts the program
// makes, not times.
var countMetrics = []string{
	"io_ops", "io_util",
	"core.supersteps", "core.groups", "core.k", "core.route_ops", "core.comm_pkts", "core.comm_words",
	"mem_high_words", "core.max_bucket_skew", "core.ragged_slots",
	"disk.blocks_read", "disk.blocks_written", "disk.max_drive_share",
	"redundancy.parity_ops", "redundancy.parity_blocks", "redundancy.striped_blocks",
	"fault.injected", "fault.retries", "fault.replays", "fault.recovery_ops", "fault.useful_op_frac",
}

// driveCounts are the layer drives' counts; they are the same for every seed.
var driveCounts = []string{
	"disk.array.ops", "disk.file.ops", "disk.mapped.ops", "disk.tier.ops",
	"journal.bytes_per_record", "redundancy.parity_blocks_per_data_block",
	"pdm.mergesort_io_ops", "core.io_vs_pdm_x",
}

// quickRun is one -quick traced run of a workload, which yields both tables.
func quickRun(t *testing.T, w *workloadDef, seed uint64) map[string]float64 {
	t.Helper()
	e, err := newEnv(t.TempDir(), seed, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.rec = newRecorder(w.name)
	e2e, layers, err := runWorkload(w, e, true)
	if err != nil {
		t.Fatalf("%s: %v (failures: %v)", w.name, err, e.failures)
	}
	if e.failed != 0 || e.attempted == 0 {
		t.Errorf("%s seed %d: %d of %d verified operations failed: %v", w.name, seed, e.failed, e.attempted, e.failures)
	}
	// Every metric of both tables is reported, by name, with its unit.
	for _, table := range []struct {
		defs []metricDef
		vals map[string]float64
	}{{endToEnd, e2e}, {perLayer, layers}} {
		res := newResult(e, table.defs, table.vals)
		if len(res.Metrics) != len(table.defs) {
			t.Errorf("%s: %d metrics reported, table has %d", w.name, len(res.Metrics), len(table.defs))
		}
		for _, d := range table.defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s reported as %+v, want unit %s", w.name, d.Name, m, d.Unit)
			}
		}
		for name := range table.vals {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("%s: value %s is in no table", w.name, name)
			}
		}
	}
	for _, d := range endToEnd {
		if e2e[d.Name] == 0 {
			t.Errorf("%s: end-to-end metric %s is 0", w.name, d.Name)
		}
	}
	if spans := e.rec.finish(); len(spans) < 10 || spans[0].Name != w.name || spans[0].SelfNS < 0 {
		t.Errorf("%s: %d harness spans, root %+v", w.name, len(spans), spans[0])
	}
	for k, v := range layers {
		e2e[k] = v
	}
	return e2e
}

// TestDeterministic runs every workload at the -quick scale and asserts only
// what repeats exactly: no wall clock.
func TestDeterministic(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			a, b, c := quickRun(t, w, 1), quickRun(t, w, 1), quickRun(t, w, 2)
			differ := false
			for _, name := range countMetrics {
				if a[name] != b[name] {
					t.Errorf("%s: %v and %v in two runs of seed 1", name, a[name], b[name])
				}
				differ = differ || a[name] != c[name]
			}
			if !differ {
				t.Errorf("no count-valued metric differs between seed 1 and seed 2")
			}
		})
	}
}

// TestDrives runs the layer drives at the -quick scale: every value they
// report is in the per-layer table, and their counts repeat.
func TestDrives(t *testing.T) {
	drives := func() map[string]float64 {
		e, err := newEnv(t.TempDir(), 1, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		v := runDrives(e)
		if e.failed != 0 {
			t.Errorf("drives failed: %v", e.failures)
		}
		return v
	}
	a, b := drives(), drives()
	known := make(map[string]bool)
	for _, d := range perLayer {
		known[d.Name] = true
	}
	for name, v := range a {
		if !known[name] {
			t.Errorf("drive value %s is in no table", name)
		}
		if v == 0 {
			t.Errorf("drive value %s is 0", name)
		}
	}
	for _, name := range driveCounts {
		if a[name] != b[name] || a[name] == 0 {
			t.Errorf("%s: %v and %v in two runs", name, a[name], b[name])
		}
	}
}

// TestManifest checks the committed BENCHMARK.json against the tables the
// command prints from, and the tables against the contract's limits.
func TestManifest(t *testing.T) {
	want := manifest()
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `go run -C benchmark . -manifest`")
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(want, &m); err != nil {
		t.Fatal(err)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(s string) {
		if !nameRE.MatchString(s) || seen[s] {
			t.Errorf("name %q is malformed or used twice", s)
		}
		seen[s] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || d.Bound < 0 || d.Bound > 0.25 || (d.Better != lower && d.Better != higher) {
			t.Errorf("end-to-end metric %+v", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Errorf("no setup_s metric")
	}
	for _, d := range m.PerLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("per-layer metric %+v", d)
		}
	}
}

func TestSelfTime(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, StartNS: 10, EndNS: 50},
		{ID: 2, Parent: 0, StartNS: 30, EndNS: 70}, // overlaps span 1: the union is 10..70
		{ID: 3, Parent: 1, StartNS: 10, EndNS: 20},
	}}
	got := r.finish()
	for id, want := range []int64{40, 30, 40, 10} {
		if got[id].SelfNS != want {
			t.Errorf("span %d: self %d, want %d", id, got[id].SelfNS, want)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median = %v", got)
	}
	if got := tailQuantile(xs, 0.9); got < 90 || got > 91 {
		t.Errorf("p90 of 100 samples = %v", got)
	}
	if got := tailQuantile(xs[:99], 0.9); got != 0 {
		t.Errorf("p90 of 99 samples = %v, want none: fewer than ten samples lie beyond it", got)
	}
}
