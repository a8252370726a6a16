package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerAndRegistryAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.BeginStep(CatEngine, "compute", 0, 0, 1, 2)
	sp.End()
	tr.Instant(CatEngine, "resume", 0, 0)
	if err := tr.Flush(); err != nil {
		t.Errorf("nil Flush: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	if ph := tr.Phases(); ph != nil {
		t.Errorf("nil Phases: %v", ph)
	}
	tr.AttachRegistry(nil)

	var r *Registry
	r.Counter("x").Add(1)
	r.Counter("x").Set(2)
	r.Counter("x").Max(3)
	if v := r.Counter("x").Value(); v != 0 {
		t.Errorf("nil counter value %d", v)
	}
	r.Histogram("h").Observe(5)
	if s := r.Histogram("h").Snapshot(); s.Count != 0 {
		t.Errorf("nil histogram snapshot %+v", s)
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
	if err := r.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteJSON: %v", err)
	}
}

func TestTracerSpansRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewWriter(&buf)
	reg := NewRegistry()
	tr.AttachRegistry(reg)

	sp := tr.BeginStep(CatEngine, "compute", 0, 0, 3, 1)
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Begin(CatIO, "phys-read", 0, 2).End()
	tr.Instant(CatEngine, "resume", 0, 0)
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	evs, err := DecodeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(evs), evs)
	}
	if evs[0].Name != "compute" || evs[0].Ph != "X" || evs[0].Cat != CatEngine {
		t.Errorf("first event %+v", evs[0])
	}
	if evs[0].Args["step"] != 3 || evs[0].Args["group"] != 1 {
		t.Errorf("step/group args %+v", evs[0].Args)
	}
	if evs[0].Dur < 900 { // ≥0.9ms in trace microseconds
		t.Errorf("compute dur %v µs, slept 1ms", evs[0].Dur)
	}
	if evs[1].TID != 2 || evs[1].Args != nil {
		t.Errorf("io event %+v", evs[1])
	}
	if evs[2].Ph != "i" || evs[2].S != "g" {
		t.Errorf("instant event %+v", evs[2])
	}

	phases := tr.Phases()
	if len(phases) != 2 {
		t.Fatalf("phases %+v", phases)
	}
	// Sorted by category then name: engine/compute, io/phys-read.
	if phases[0].Cat != CatEngine || phases[0].Name != "compute" || phases[0].Count != 1 {
		t.Errorf("phase[0] %+v", phases[0])
	}
	if phases[1].Cat != CatIO || phases[1].Name != "phys-read" {
		t.Errorf("phase[1] %+v", phases[1])
	}

	// The attached registry mirrored each span into a histogram.
	if s := reg.Histogram("phase_compute").Snapshot(); s.Count != 1 || s.SumNanos < int64(time.Millisecond/2) {
		t.Errorf("phase_compute histogram %+v", s)
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	var buf bytes.Buffer
	tr := NewWriter(&buf)
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.BeginStep(CatEngine, "compute", p, 0, i, -1).End()
			}
		}(p)
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	evs, err := DecodeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	if len(evs) != 400 {
		t.Errorf("got %d events, want 400", len(evs))
	}
	if ph := tr.Phases(); len(ph) != 1 || ph[0].Count != 400 {
		t.Errorf("phases %+v", ph)
	}
}

func TestOpenFreshAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tr, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	tr.Begin(CatEngine, "setup", 0, 0).End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A resumed run appends to the same file and marks the boundary.
	tr, err = Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	tr.Begin(CatEngine, "finish", 0, 0).End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := DecodeTrace(data)
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	var names []string
	for _, ev := range evs {
		names = append(names, ev.Name)
	}
	want := []string{"setup", "resume", "finish"}
	if len(names) != len(want) {
		t.Fatalf("events %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("events %v, want %v", names, want)
		}
	}

	// Resuming into a missing/empty file degrades to a fresh array.
	empty := filepath.Join(t.TempDir(), "empty.json")
	tr, err = Open(empty, true)
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	data, _ = os.ReadFile(empty)
	if evs, err := DecodeTrace(data); err != nil || len(evs) != 1 || evs[0].Name != "resume" {
		t.Errorf("resume-into-empty: evs=%v err=%v", evs, err)
	}
}

func TestRegistryCountersAndHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops").Add(3)
	r.Counter("ops").Add(4)
	if v := r.Counter("ops").Value(); v != 7 {
		t.Errorf("ops = %d, want 7", v)
	}
	r.Counter("peak").Max(5)
	r.Counter("peak").Max(2)
	if v := r.Counter("peak").Value(); v != 5 {
		t.Errorf("peak = %d, want 5", v)
	}
	h := r.Histogram("lat")
	h.Observe(500)     // ≤ 1µs bucket
	h.Observe(3_000)   // ≤ 4µs bucket
	h.Observe(1 << 62) // +Inf bucket
	s := h.Snapshot()
	if s.Count != 3 || s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[len(s.Counts)-1] != 1 {
		t.Errorf("histogram snapshot %+v", s)
	}

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		"# TYPE embsp_ops gauge\nembsp_ops 7\n",
		"# TYPE embsp_lat_seconds histogram\n",
		`embsp_lat_seconds_bucket{le="1e-06"} 1`,
		`embsp_lat_seconds_bucket{le="+Inf"} 3`,
		"embsp_lat_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters     map[string]int64             `json:"counters"`
		BucketBounds []int64                      `json:"histogram_bucket_bounds_ns"`
		Histograms   map[string]HistogramSnapshot `json:"histograms"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("metrics JSON does not parse: %v\n%s", err, js.String())
	}
	if doc.Counters["ops"] != 7 || doc.Histograms["lat"].Count != 3 {
		t.Errorf("metrics JSON content: %+v", doc)
	}
	if len(doc.BucketBounds) != 15 || doc.BucketBounds[0] != 1000 {
		t.Errorf("bucket bounds %v", doc.BucketBounds)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(2)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body) //nolint:errcheck
		return b.String()
	}
	if body := get("/metrics"); !strings.Contains(body, "embsp_hits 2") {
		t.Errorf("/metrics:\n%s", body)
	}
	if body := get("/metrics.json"); !strings.Contains(body, `"hits": 2`) {
		t.Errorf("/metrics.json:\n%s", body)
	}
}

func TestWriteReport(t *testing.T) {
	phases := []PhaseTotal{
		{Cat: CatEngine, Name: "compute", Count: 4, Nanos: 60e6},
		{Cat: CatEngine, Name: "fetch-ctx", Count: 4, Nanos: 40e6},
		{Cat: CatIO, Name: "phys-read", Count: 16, Nanos: 30e6},
	}
	var buf bytes.Buffer
	WriteReport(&buf, phases, 100*time.Millisecond)
	out := buf.String()
	for _, want := range []string{"phase report (wall clock 100ms)", "compute", "60.0%", "fetch-ctx", "(total)", "phys-read", "io spans run concurrently"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// compute (the larger phase) is listed before fetch-ctx.
	if strings.Index(out, "compute") > strings.Index(out, "fetch-ctx") {
		t.Errorf("phases not sorted by duration:\n%s", out)
	}
}

func TestDecodeTraceRejectsGarbage(t *testing.T) {
	if _, err := DecodeTrace(nil); err == nil {
		t.Error("empty input decoded")
	}
	if _, err := DecodeTrace([]byte("{}")); err == nil {
		t.Error("non-array input decoded")
	}
	if _, err := DecodeTrace([]byte("[{]")); err == nil {
		t.Error("malformed array decoded")
	}
	// The canonical terminated form decodes too.
	evs, err := DecodeTrace([]byte(`[{"name":"a","ph":"X"}]`))
	if err != nil || len(evs) != 1 {
		t.Errorf("terminated array: %v %v", evs, err)
	}
}

// NewWriter returns a tracer writing trace_event JSON to w (the array
// header included); runs use Open or New.
func NewWriter(w io.Writer) *Tracer {
	t := New()
	t.w = bufio.NewWriterSize(w, 16<<10)
	t.w.WriteString("[\n") //nolint:errcheck // surfaces on Flush
	return t
}

// Handler returns an http.Handler serving /metrics (Prometheus text)
// and /metrics.json.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	Mount(mux, r)
	return mux
}
