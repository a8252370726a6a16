package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"embsp"
	"embsp/internal/words"
)

// env is the state of one workload run: the flags, the scratch root every
// state directory is created under, the span list, and the verification
// tally that becomes the result's attempted/failed.
type env struct {
	seed    uint64
	seconds float64
	quick   bool
	dir     string    // scratch root of this run; removed when it ends
	rec     *recorder // nil unless -trace 1

	// steps are the wall clocks of the timed steps of the set-up under way
	// (see step and setupSeconds).
	steps []float64

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string // the first few, for the report
	dirs      int
}

// newEnv creates the scratch root of one run under dir.
func newEnv(dir string, seed uint64, seconds float64, quick bool) (*env, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(scratch)
	if err != nil {
		return nil, err
	}
	return &env{seed: seed, seconds: seconds, quick: quick, dir: abs}, nil
}

func (e *env) close() { os.RemoveAll(e.dir) }

// check tallies one verified operation; a false ok is a failure that makes
// the command exit non-zero after printing.
func (e *env) check(ok bool, format string, args ...any) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if !ok {
		e.failed++
		if len(e.failures) < 8 {
			e.failures = append(e.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// freshDir creates a new, empty directory under the run's scratch root.
func (e *env) freshDir(name string) (string, error) {
	e.mu.Lock()
	e.dirs++
	dir := filepath.Join(e.dir, fmt.Sprintf("%s-%d", name, e.dirs))
	e.mu.Unlock()
	return dir, os.MkdirAll(dir, 0o777)
}

// step runs one step of a set-up (a program build, a reference run) under a
// span and notes its wall clock.
func (e *env) step(parent int, name string, f func() error) (timing, error) {
	sp := e.rec.start(parent, name)
	t, err := clocked(f)
	e.rec.end(sp)
	e.steps = append(e.steps, t.wall)
	return t, err
}

// pick picks the full or the -quick value.
func (e *env) pick(full, quick int) int {
	if e.quick {
		return quick
	}
	return full
}

// timing is the cost of one timed call: its clocks, and the counts the
// process made meanwhile. The counts repeat from run to run where the clocks
// on a shared host do not, which is why the gated metrics are counts.
type timing struct {
	wall, user, sys float64 // seconds
	// steal is the CPU time the hypervisor kept from the guest meanwhile,
	// summed over its CPUs (/proc/stat; 0 where that is not available).
	steal float64
	// allocBytes and allocs are the heap bytes and objects allocated.
	allocBytes, allocs float64
	// writeBytes and rwCalls are the bytes passed to write system calls and
	// the read and write system calls made, files and sockets alike
	// (/proc/self/io; 0 where that is not available).
	writeBytes, rwCalls float64
}

func rusage() syscall.Rusage {
	var r syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &r) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return r
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// clocked runs f and reports its wall clock and the process's user and
// system CPU over the same interval (RUSAGE_SELF delta: every goroutine the
// call used, GC included). It costs two system calls, so it suits the steps
// of a set-up and of the layer drives, which last from a fraction of a
// millisecond.
func clocked(f func() error) (timing, error) {
	r0 := rusage()
	t0 := time.Now()
	err := f()
	wall := time.Since(t0).Seconds()
	r1 := rusage()
	return timing{
		wall: wall,
		user: tvSeconds(r1.Utime) - tvSeconds(r0.Utime),
		sys:  tvSeconds(r1.Stime) - tvSeconds(r0.Stime),
	}, err
}

// timedRun is clocked plus the counts of timing, for a workload iteration.
// Reading the counts stops the world and parses two /proc files, which is why
// the steps of a set-up and the layer drives do without. A forced collection
// comes first, so the iteration pays for its own garbage and not its
// predecessor's, and the heap's peak does not depend on where the last cycle
// happened to end.
func timedRun(f func() error) (timing, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	h0 := readHostCounters()
	t, err := clocked(f)
	h1 := readHostCounters()
	runtime.ReadMemStats(&m1)
	t.steal = h1.steal - h0.steal
	t.allocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	t.allocs = float64(m1.Mallocs - m0.Mallocs)
	t.writeBytes = h1.writeBytes - h0.writeBytes
	t.rwCalls = h1.rwCalls - h0.rwCalls
	return t, err
}

// hostCounters are the cumulative host-side counts timedRun takes deltas of.
type hostCounters struct {
	steal               float64 // seconds
	writeBytes, rwCalls float64
}

// atZeroSteal estimates what xs would read on an unloaded host. On a guest
// whose hypervisor is oversubscribed, the time stolen during a call adds to
// its wall clock and to the CPU time charged to it, and varies from a
// hundredth to several times the call's own length within one run; the
// median of xs then follows the host's load, not the program. The estimate
// is the Theil-Sen line of xs against the steal read around the same calls,
// at zero steal: the median of xs - slope*steal, the slope being the median
// of pairwise slopes kept within [0, 1]. With no steal, or fewer than eight
// calls to fit a line to, it is the median.
func atZeroSteal(xs, steal []float64) float64 {
	if len(xs) < 8 {
		return median(xs)
	}
	var slopes []float64
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			if d := steal[j] - steal[i]; math.Abs(d) > 1e-3 {
				slopes = append(slopes, (xs[j]-xs[i])/d)
			}
		}
	}
	slope := math.Min(math.Max(median(slopes), 0), 1)
	rest := make([]float64, len(xs))
	for i := range xs {
		rest[i] = xs[i] - slope*steal[i]
	}
	return median(rest)
}

// peakRSSMiB is the process's ru_maxrss (KiB on Linux).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is quantile, but 0 unless at least ten samples lie beyond it:
// a tail the sample cannot support is not printed.
func tailQuantile(xs []float64, q float64) float64 {
	if math.Floor(float64(len(xs))*(1-q)+1e-9) < 10 {
		return 0
	}
	return quantile(xs, q)
}

// digestVPs is the FNV-1a digest of every VP's saved context words, the
// ground truth of the bitwise-identity contract (as embsp-run -soak compares
// them, digested so the reference result need not be kept).
func digestVPs(vps []embsp.VP) uint64 {
	h := fnv.New64a()
	enc := words.NewEncoder(nil)
	var buf [8]byte
	for _, vp := range vps {
		enc.Reset()
		vp.Save(enc)
		for _, w := range enc.Words() {
			for i := range buf {
				buf[i] = byte(w >> (8 * i))
			}
			h.Write(buf[:])
		}
		h.Write([]byte{'|'}) // context boundaries shift the digest
	}
	return h.Sum64()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// sleepActualMS measures what time.Sleep(1ms) really takes on this host
// (≈1.9 ms on the authoring guest): the unit the emulated drive latency of
// sort_lat is really paid in.
func sleepActualMS(n int) float64 {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		time.Sleep(time.Millisecond)
		xs[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(xs)
}

// span is one interval the harness recorded around a call it made.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for the root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// SelfNS is the span's duration minus the part of it its children cover.
	SelfNS int64 `json:"self_ns"`
}

// recorder keeps the harness's own spans in memory until the run ends. A nil
// recorder (every -trace 0 run) records nothing.
type recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{epoch: time.Now(), workload: workload}
}

// start opens a span under parent and returns its id.
func (r *recorder) start(parent int, name string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Workload: r.workload,
		StartNS: time.Since(r.epoch).Nanoseconds(),
	})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].EndNS = time.Since(r.epoch).Nanoseconds()
}

// finish computes every span's self time: its duration minus the union of
// its children's intervals (children of one span may overlap, as the two
// clients' jobs do on serve_mix).
func (r *recorder) finish() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for i := range r.spans {
		s := &r.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		var covered, reach int64 = 0, s.StartNS
		for _, k := range kids {
			from, to := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		s.SelfNS = s.EndNS - s.StartNS - covered
	}
	return r.spans
}

// write stores the spans as JSON; called once, when the run ends.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	data, err := json.MarshalIndent(r.finish(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}
