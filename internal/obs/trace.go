// Package obs is the observability layer of the simulator: a
// low-overhead span tracer that records per-superstep/per-group phase
// intervals as Chrome trace_event JSON, a metrics registry exposing
// the run's counters and duration histograms in JSON and
// Prometheus-text form, and a per-phase wall-clock report.
//
// Everything in this package is wall-clock observability, outside the
// model: nothing here feeds the config fingerprint or the identity
// contract (internal/core/identity.go). A nil *Tracer or *Registry is a
// valid, zero-cost no-op — every method checks its receiver and skips
// even the clock read — so the engines thread the pointers
// unconditionally and pay nothing when observability is off.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// Span categories. Engine-category spans tile a processor's timeline
// exclusively (no two overlap on one processor), so their durations
// sum to the run's wall clock; io-category spans are the physical
// transfers running concurrently underneath them.
const (
	CatEngine = "engine"
	CatIO     = "io"
)

// phaseAgg accumulates one phase's totals for the report.
type phaseAgg struct {
	count int64
	nanos int64
}

// Tracer records spans. It is safe for concurrent use; the engines'
// per-processor goroutines and the file store's I/O workers all share
// one tracer. A nil tracer is a no-op on every method.
//
// The trace file is the Chrome trace_event JSON array format, one
// event per line. The array is deliberately never closed with "]":
// Chrome's loader (and DecodeTrace) accept the unterminated array,
// which is what lets a trace survive a crash mid-run and be reopened
// in append mode by a resumed run.
type Tracer struct {
	epoch time.Time // set once at construction; read without the lock

	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	buf []byte // scratch for one encoded event
	agg map[string]*phaseAgg
	reg *Registry
	err error // first write error; reported by Flush/Close
}

// New returns a memory-only tracer: spans are aggregated per phase
// (for Phases and WriteReport) but no trace file is written.
func New() *Tracer {
	return &Tracer{epoch: time.Now(), agg: make(map[string]*phaseAgg)}
}

// Open returns a tracer writing trace_event JSON to path. With resume
// false the file is created fresh; with resume true it is opened in
// append mode and a "resume" instant event marks the boundary, so a
// crashed-and-resumed run yields one continuous trace (timestamps
// restart at the resumed process's epoch).
func Open(path string, resume bool) (*Tracer, error) {
	flags := os.O_WRONLY | os.O_CREATE
	if resume {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o666)
	if err != nil {
		return nil, err
	}
	t := New()
	t.f = f
	t.w = bufio.NewWriterSize(f, 64<<10)
	header := !resume
	if resume {
		if st, serr := f.Stat(); serr == nil && st.Size() == 0 {
			header = true // nothing to append to: start a fresh array
		}
	}
	if header {
		if _, err := t.w.WriteString("[\n"); err != nil {
			f.Close()
			return nil, err
		}
	}
	if resume {
		t.Instant(CatEngine, "resume", 0, 0)
	}
	return t, nil
}

// AttachRegistry mirrors every completed span into a per-phase
// duration histogram of r (metric "phase_<name>").
func (t *Tracer) AttachRegistry(r *Registry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.reg = r
	t.mu.Unlock()
}

// Span is one in-flight interval, produced by Begin and finished by
// End. The zero Span (and any Span from a nil tracer) is inert.
type Span struct {
	t     *Tracer
	cat   string
	name  string
	pid   int
	tid   int
	step  int
	group int
	start time.Time
}

// Begin starts a span with no step/group arguments. pid is the
// processor (Chrome process lane), tid the thread lane within it (the
// engines use 0; the file store uses 1+drive).
func (t *Tracer) Begin(cat, name string, pid, tid int) Span {
	return t.BeginStep(cat, name, pid, tid, -1, -1)
}

// BeginStep starts a span annotated with a superstep index and group
// index (either may be -1 to omit it).
func (t *Tracer) BeginStep(cat, name string, pid, tid, step, group int) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, cat: cat, name: name, pid: pid, tid: tid, step: step, group: group, start: time.Now()}
}

// End completes the span: it is aggregated into the per-phase totals
// and, when the tracer has an output, encoded as one complete ("X")
// trace event.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.complete(s, time.Now())
}

func (t *Tracer) complete(s Span, end time.Time) {
	dur := end.Sub(s.start)
	if dur < 0 {
		dur = 0
	}
	ts := s.start.Sub(t.epoch)
	t.mu.Lock()
	key := s.cat + "/" + s.name
	a := t.agg[key]
	if a == nil {
		a = &phaseAgg{}
		t.agg[key] = a
	}
	a.count++
	a.nanos += dur.Nanoseconds()
	reg := t.reg
	if t.w != nil {
		t.buf = appendSpanEvent(t.buf[:0], s, ts, dur)
		if _, err := t.w.Write(t.buf); err != nil && t.err == nil {
			t.err = err
		}
	}
	t.mu.Unlock()
	if reg != nil {
		reg.Histogram("phase_" + s.name).Observe(dur.Nanoseconds())
	}
}

// Instant records a zero-duration marker event (e.g. the resume
// boundary). It does not contribute to the phase totals.
func (t *Tracer) Instant(cat, name string, pid, tid int) {
	if t == nil {
		return
	}
	ts := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w == nil {
		return
	}
	b := t.buf[:0]
	b = append(b, `{"name":`...)
	b = appendJSONString(b, name)
	b = append(b, `,"cat":`...)
	b = appendJSONString(b, cat)
	b = append(b, `,"ph":"i","s":"g","ts":`...)
	b = appendMicros(b, ts)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, "},\n"...)
	t.buf = b
	if _, err := t.w.Write(b); err != nil && t.err == nil {
		t.err = err
	}
}

// Flush writes buffered events through to the trace file. The engines
// call it at every durable barrier, so a killed run's trace survives
// to the same superstep as its journal.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLocked()
}

func (t *Tracer) flushLocked() error {
	if t.w != nil {
		if err := t.w.Flush(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// Close flushes and closes the trace file (leaving the JSON array
// unterminated on purpose; see the type comment). The tracer's phase
// totals remain readable after Close.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.flushLocked()
	if t.f != nil {
		if cerr := t.f.Close(); err == nil {
			err = cerr
		}
		t.f = nil
	}
	t.w = nil
	return err
}

// PhaseTotal is one phase's aggregate: how many spans and how much
// total wall-clock time the run spent in it.
type PhaseTotal struct {
	Cat   string
	Name  string
	Count int64
	Nanos int64
}

// Phases returns the per-phase totals, sorted by category then name.
func (t *Tracer) Phases() []PhaseTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]PhaseTotal, 0, len(t.agg))
	for key, a := range t.agg {
		cat, name, _ := cutString(key, '/')
		out = append(out, PhaseTotal{Cat: cat, Name: name, Count: a.count, Nanos: a.nanos})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cat != out[j].Cat {
			return out[i].Cat < out[j].Cat
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func cutString(s string, sep byte) (before, after string, found bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == sep {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

// appendSpanEvent encodes one complete ("X") trace event followed by
// ",\n" — the one-event-per-line array body DecodeTrace undoes.
func appendSpanEvent(b []byte, s Span, ts, dur time.Duration) []byte {
	b = append(b, `{"name":`...)
	b = appendJSONString(b, s.name)
	b = append(b, `,"cat":`...)
	b = appendJSONString(b, s.cat)
	b = append(b, `,"ph":"X","ts":`...)
	b = appendMicros(b, ts)
	b = append(b, `,"dur":`...)
	b = appendMicros(b, dur)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(s.pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(s.tid), 10)
	if s.step >= 0 || s.group >= 0 {
		b = append(b, `,"args":{`...)
		if s.step >= 0 {
			b = append(b, `"step":`...)
			b = strconv.AppendInt(b, int64(s.step), 10)
			if s.group >= 0 {
				b = append(b, ',')
			}
		}
		if s.group >= 0 {
			b = append(b, `"group":`...)
			b = strconv.AppendInt(b, int64(s.group), 10)
		}
		b = append(b, '}')
	}
	b = append(b, "},\n"...)
	return b
}

// appendMicros formats a duration as trace_event microseconds with
// nanosecond precision (negative durations clamp to zero).
func appendMicros(b []byte, d time.Duration) []byte {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	b = append(b, '.')
	frac := ns % 1000
	b = append(b, byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	return b
}

// appendJSONString appends s as a JSON string literal, escaping
// exactly what RFC 8259 requires (invalid UTF-8 becomes U+FFFD, the
// same policy as encoding/json).
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for _, r := range s {
		switch {
		case r == '"':
			b = append(b, '\\', '"')
		case r == '\\':
			b = append(b, '\\', '\\')
		case r == '\n':
			b = append(b, '\\', 'n')
		case r == '\r':
			b = append(b, '\\', 'r')
		case r == '\t':
			b = append(b, '\\', 't')
		case r < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xF])
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, '"')
}

// Event is one decoded trace_event entry.
type Event struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	PID  int64            `json:"pid"`
	TID  int64            `json:"tid"`
	S    string           `json:"s,omitempty"`
	Args map[string]int64 `json:"args,omitempty"`
}

// DecodeTrace parses a Chrome trace_event JSON array, tolerating the
// unterminated arrays this package writes (missing closing bracket,
// trailing comma) — the same leniency Chrome's own loader applies.
func DecodeTrace(data []byte) ([]Event, error) {
	s := bytes.TrimSpace(data)
	if len(s) == 0 || s[0] != '[' {
		return nil, fmt.Errorf("obs: not a trace_event array (missing '[')")
	}
	if s[len(s)-1] != ']' {
		s = bytes.TrimRight(s, " \t\r\n,")
		s = append(append(make([]byte, 0, len(s)+1), s...), ']')
	}
	var evs []Event
	if err := json.Unmarshal(s, &evs); err != nil {
		return nil, fmt.Errorf("obs: invalid trace: %w", err)
	}
	return evs, nil
}
