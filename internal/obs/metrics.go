package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a named scalar metric. Some are monotone sums (Add),
// some are final aggregates (Set), some are high-water marks (Max);
// the registry does not distinguish — the publisher picks the fold.
// A nil counter (from a nil registry) is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Set replaces the counter's value.
func (c *Counter) Set(n int64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// Max raises the counter to n if n is larger (high-water fold).
func (c *Counter) Max(n int64) {
	if c == nil {
		return
	}
	for {
		cur := c.v.Load()
		if n <= cur || c.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBounds are the histogram bucket upper bounds in nanoseconds:
// fixed log-spaced powers of 4 from 1µs to ~4.5min, plus an implicit
// +Inf bucket. Fixed bounds keep the exposition's shape deterministic
// — two runs differ only in which buckets the timings land in, never
// in which buckets exist.
var histBounds = func() [15]int64 {
	var b [15]int64
	v := int64(1000)
	for i := range b {
		b[i] = v
		v *= 4
	}
	return b
}()

// Histogram is a fixed-bucket duration histogram. A nil histogram is
// a no-op.
type Histogram struct {
	mu     sync.Mutex
	counts [len(histBounds) + 1]int64 // last bucket is +Inf
	n      int64
	sum    int64 // nanoseconds
}

// Observe records one duration in nanoseconds.
func (h *Histogram) Observe(nanos int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(histBounds) && nanos > histBounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.n++
	h.sum += nanos
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count    int64   `json:"count"`
	SumNanos int64   `json:"sum_ns"`
	Counts   []int64 `json:"bucket_counts"` // per bucket; last is +Inf
}

// Mean returns the mean observation as a duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}

// Snapshot returns a copy of the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.n, SumNanos: h.sum, Counts: make([]int64, len(h.counts))}
	copy(s.Counts, h.counts[:])
	return s
}

// Registry holds named counters and histograms. It is safe for
// concurrent use, and a nil registry hands out nil (no-op) metrics,
// so publishers never need to guard.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// BucketBoundsNanos returns the histogram bucket upper bounds (the
// final +Inf bucket is implied).
func BucketBoundsNanos() []int64 {
	out := make([]int64, len(histBounds))
	copy(out, histBounds[:])
	return out
}

// WriteJSON writes the registry as a JSON document: counter values
// plus histogram snapshots (bucket bounds listed once).
func (r *Registry) WriteJSON(w io.Writer) error {
	type doc struct {
		Counters     map[string]int64             `json:"counters"`
		BucketBounds []int64                      `json:"histogram_bucket_bounds_ns"`
		Histograms   map[string]HistogramSnapshot `json:"histograms"`
	}
	d := doc{
		Counters:     make(map[string]int64),
		BucketBounds: BucketBoundsNanos(),
		Histograms:   make(map[string]HistogramSnapshot),
	}
	if r != nil {
		r.mu.Lock()
		counters := make(map[string]*Counter, len(r.counters))
		for n, c := range r.counters {
			counters[n] = c
		}
		hists := make(map[string]*Histogram, len(r.hists))
		for n, h := range r.hists {
			hists[n] = h
		}
		r.mu.Unlock()
		for n, c := range counters {
			d.Counters[n] = c.Value()
		}
		for n, h := range hists {
			d.Histograms[n] = h.Snapshot()
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d) // map keys are emitted sorted
}

// WritePrometheus writes the registry in the Prometheus text
// exposition format: scalar metrics as gauges, histograms with
// cumulative le buckets and second-valued sums, all names prefixed
// "embsp_" and emitted in sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	cnames := make([]string, 0, len(r.counters))
	for n := range r.counters {
		cnames = append(cnames, n)
	}
	hnames := make([]string, 0, len(r.hists))
	for n := range r.hists {
		hnames = append(hnames, n)
	}
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()
	sort.Strings(cnames)
	sort.Strings(hnames)
	for _, n := range cnames {
		pn := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, counters[n].Value()); err != nil {
			return err
		}
	}
	for _, n := range hnames {
		pn := promName(n) + "_seconds"
		s := hists[n].Snapshot()
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		cum := int64(0)
		for i, c := range s.Counts {
			cum += c
			le := "+Inf"
			if i < len(histBounds) {
				le = strconv.FormatFloat(float64(histBounds[i])/1e9, 'g', -1, 64)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", pn, float64(s.SumNanos)/1e9, pn, s.Count); err != nil {
			return err
		}
	}
	return nil
}

// promName maps a registry name onto a valid Prometheus metric name.
func promName(s string) string {
	b := []byte("embsp_" + s)
	for i := range b {
		c := b[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == ':') {
			b[i] = '_'
		}
	}
	return string(b)
}

// Mount registers the registry's /metrics (Prometheus text) and
// /metrics.json handlers on an existing mux, for servers that expose
// metrics alongside their own API (the job daemon mounts them on its
// front-end mux).
func Mount(mux *http.ServeMux, r *Registry) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.WriteJSON(w) //nolint:errcheck // client went away
	})
}

// Serve starts the debug HTTP endpoint on addr: the registry's
// /metrics and /metrics.json, the stdlib pprof pages under
// /debug/pprof/, and expvar under /debug/vars. It returns the running
// server and the address it actually listens on (useful with ":0").
// The caller owns shutdown via srv.Close.
func Serve(addr string, r *Registry) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	mux := http.NewServeMux()
	Mount(mux, r)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	return srv, ln.Addr().String(), nil
}
