package disk

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"embsp/internal/prng"
)

// The store conformance suite: one seeded script per case, replayed
// against every store kind. Each replay records everything a caller
// can observe of the model — returned tracks, read payloads, which
// guarded calls were refused, raw exports, Stats and StoreState — and every store's transcript must equal the in-memory
// Array's. The cases also assert the absolute expectations of the
// per-store tests they replace (free-list reuse order, release guards,
// snapshot/rollback, flat-vs-tier accounting).

const confD, confB = 3, 8

// confOpener opens a store kind in dir: fresh, or resuming what an
// earlier store left there.
type confOpener func(t *testing.T, dir string, resume bool) Backend

// confStores lists the store kinds under test: name and constructor.
// The worker kinds run at a small emulated latency, without which the
// file store starts no workers.
func confStores() []struct {
	name string
	open confOpener
} {
	cfg := Config{D: confD, B: confB}
	file := func(lat time.Duration) confOpener {
		return func(t *testing.T, dir string, resume bool) Backend {
			f, err := OpenFileOpts(dir, cfg, resume, FileOptions{AccessLatency: lat})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	mapped := func(t *testing.T, dir string, resume bool) Backend {
		if !MmapSupported() {
			t.Skip("no mmap on this platform")
		}
		m, err := OpenMapped(dir, cfg, resume, MappedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	tier := func(base confOpener) confOpener {
		return func(t *testing.T, dir string, resume bool) Backend {
			return NewTier(base(t, dir, resume), TierOptions{})
		}
	}
	return []struct {
		name string
		open confOpener
	}{
		{"array", func(*testing.T, string, bool) Backend { return MustNewArray(cfg) }},
		{"file", file(0)},
		{"file-workers", file(time.Microsecond)},
		{"mapped", mapped},
		{"tier-over-file", tier(file(time.Microsecond))},
		{"tier-over-mapped", tier(mapped)},
	}
}

// transcript is everything one replay observed, in script order.
type transcript struct {
	Tracks  []int      // every track Alloc returned
	Reads   [][]uint64 // every ReadOp payload
	Refused []bool     // whether each guarded call returned an error
	Exports [][]uint64 // every ExportTrack payload (nil = blank)
	Stats   []Stats
	States  []StoreState
}

// replay wraps a store so a script reads like plain store calls while
// the transcript fills in.
type replay struct {
	t        *testing.T
	s        Backend
	payloads *prng.Rand // source of written payloads
	// reopen closes a durable store and opens its directory again; the
	// in-memory array, whose medium dies with it, stays as it is.
	reopen func()
	transcript
}

func (r *replay) alloc(d int) int {
	tr := r.s.Alloc(d)
	r.Tracks = append(r.Tracks, tr)
	return tr
}

// write stores a fresh pseudo-random payload.
func (r *replay) write(addrs ...Addr) {
	reqs := make([]WriteReq, len(addrs))
	for i, a := range addrs {
		src := make([]uint64, confB)
		for j := range src {
			src[j] = r.payloads.Uint64() | 1 // never all-zero: blank is distinguishable
		}
		reqs[i] = WriteReq{Disk: a.Disk, Track: a.Track, Src: src}
	}
	if err := r.s.WriteOp(reqs); err != nil {
		r.t.Fatalf("WriteOp(%v): %v", addrs, err)
	}
}

func (r *replay) read(addrs ...Addr) [][]uint64 {
	reqs := make([]ReadReq, len(addrs))
	for i, a := range addrs {
		reqs[i] = ReadReq{Disk: a.Disk, Track: a.Track, Dst: make([]uint64, confB)}
	}
	if err := r.s.ReadOp(reqs); err != nil {
		r.t.Fatalf("ReadOp(%v): %v", addrs, err)
	}
	out := make([][]uint64, len(reqs))
	for i := range reqs {
		out[i] = reqs[i].Dst
	}
	r.Reads = append(r.Reads, out...)
	return out
}

func (r *replay) release(d, t int) {
	if err := r.s.Release(d, t); err != nil {
		r.t.Fatalf("Release(%d,%d): %v", d, t, err)
	}
}

// refused records whether a call the model must guard returned an error.
func (r *replay) refused(err error) bool {
	r.Refused = append(r.Refused, err != nil)
	return err != nil
}

// observe snapshots the model: Stats and StoreState.
func (r *replay) observe() StoreState {
	st := r.s.State()
	r.Stats = append(r.Stats, r.s.Stats())
	r.States = append(r.States, st)
	return st
}

// rollback returns the store to a captured state, keeping its
// statistics: the superstep replay.
func (r *replay) rollback(to StoreState) {
	if err := Rollback(r.s, to); err != nil {
		r.t.Fatalf("Rollback: %v", err)
	}
}

// export quiesces the store (queued writes are invisible to the raw
// read) and exports one track.
func (r *replay) export(d, t int) []uint64 {
	if err := r.s.Sync(); err != nil {
		r.t.Fatal(err)
	}
	p, err := r.s.ExportTrack(d, t)
	if err != nil {
		r.t.Fatalf("ExportTrack(%d,%d): %v", d, t, err)
	}
	r.Exports = append(r.Exports, p)
	return p
}

func isBlank(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return false
		}
	}
	return true
}

var confCases = []struct {
	name   string
	script func(r *replay)
}{
	// Freed tracks are reused LIFO, newest first, before the drive grows.
	{"alloc-reuse-order", func(r *replay) {
		t0, t1, t2 := r.alloc(0), r.alloc(0), r.alloc(0)
		for _, tr := range []int{t0, t1, t2} {
			r.release(0, tr)
		}
		for i, want := range []int{t2, t1, t0, 3} {
			if got := r.alloc(0); got != want {
				r.t.Errorf("reuse #%d = %d, want %d", i, got, want)
			}
		}
		r.observe()
	}},

	// Double frees and frees outside the allocated range are refused and
	// leave the allocator untouched.
	{"release-guards", func(r *replay) {
		t0 := r.alloc(0)
		r.release(0, t0)
		before := r.observe()
		for _, bad := range []struct {
			what string
			d, t int
		}{
			{"double release", 0, t0},
			{"never-allocated track", 0, 99},
			{"negative drive", -1, 0},
			{"out-of-range drive", confD, 0},
			{"negative track", 0, -1},
			{"track on an untouched drive", 1, 0},
		} {
			if !r.refused(r.s.Release(bad.d, bad.t)) {
				r.t.Errorf("%s accepted", bad.what)
			}
		}
		if after := r.observe(); !reflect.DeepEqual(before, after) {
			r.t.Errorf("refused releases changed the state:\nbefore %+v\nafter  %+v", before, after)
		}
	}},

	// Malformed operations are refused before any accounting.
	{"op-guards", func(r *replay) {
		buf, short := make([]uint64, confB), make([]uint64, confB-1)
		for d := 0; d < confD; d++ {
			r.alloc(d)
		}
		r.write(Addr{0, 0})
		before := r.observe()
		r.refused(r.s.ReadOp([]ReadReq{{Disk: 0, Track: 0, Dst: buf}, {Disk: 0, Track: 1, Dst: buf}}))
		r.refused(r.s.WriteOp([]WriteReq{{Disk: 1, Track: 0, Src: buf}, {Disk: 1, Track: 1, Src: buf}}))
		r.refused(r.s.ReadOp([]ReadReq{{Disk: confD, Track: 0, Dst: buf}}))
		r.refused(r.s.ReadOp([]ReadReq{{Disk: 0, Track: -1, Dst: buf}}))
		r.refused(r.s.ReadOp([]ReadReq{{Disk: 0, Track: 0, Dst: buf}, {Disk: 1, Track: 0, Dst: short}}))
		r.refused(r.s.WriteOp([]WriteReq{{Disk: 0, Track: 0, Src: buf}, {Disk: 1, Track: 0, Src: short}}))
		for i, ref := range r.Refused {
			if !ref {
				r.t.Errorf("malformed op #%d accepted", i)
			}
		}
		if err := r.s.ReadOp(nil); err != nil {
			r.t.Errorf("empty ReadOp: %v", err)
		}
		if err := r.s.WriteOp(nil); err != nil {
			r.t.Errorf("empty WriteOp: %v", err)
		}
		if after := r.observe(); !reflect.DeepEqual(before, after) {
			r.t.Errorf("refused and empty ops were accounted:\nbefore %+v\nafter  %+v", before, after)
		}
	}},

	// State → an aborted attempt's allocations and writes → Rollback:
	// committed data survives, the attempt's tracks are
	// retracted, wiped and handed out again in the same order.
	{"snapshot-restore", func(r *replay) {
		committed := r.alloc(0)
		r.write(Addr{0, committed})
		want := r.read(Addr{0, committed})[0]
		freed := r.alloc(1)
		r.release(1, freed)
		mark := r.s.State()

		fresh, reused := r.alloc(0), r.alloc(1)
		if reused != freed {
			r.t.Fatalf("Alloc after Release = %d, want %d", reused, freed)
		}
		r.write(Addr{0, fresh}, Addr{1, reused})
		r.rollback(mark)

		if got := r.read(Addr{0, committed})[0]; !reflect.DeepEqual(got, want) {
			r.t.Errorf("committed track damaged by rollback: %v, want %v", got, want)
		}
		for _, got := range r.read(Addr{0, fresh}, Addr{1, freed}) {
			if !isBlank(got) {
				r.t.Errorf("aborted attempt's data leaked through rollback: %v", got)
			}
		}
		if got := r.alloc(0); got != fresh {
			r.t.Errorf("Alloc after rollback = %d, want %d again", got, fresh)
		}
		if got := r.alloc(1); got != freed {
			r.t.Errorf("free list not restored: Alloc = %d, want %d", got, freed)
		}
		for _, got := range r.read(Addr{0, fresh}, Addr{1, freed}) {
			if !isBlank(got) {
				r.t.Errorf("re-allocated track after rollback holds data: %v", got)
			}
		}
		r.observe()
	}},

	// State → further mutation → AdoptState: the metadata returns to the
	// capture exactly (tracks written since read blank again).
	{"state-adopt", func(r *replay) {
		a, b := r.alloc(0), r.alloc(2)
		r.write(Addr{0, a}, Addr{2, b})
		r.release(2, b)
		st := r.observe()
		later := r.alloc(1)
		r.write(Addr{1, later})
		r.read(Addr{0, a})
		if err := r.s.AdoptState(st); err != nil {
			r.t.Fatalf("AdoptState of a captured state: %v", err)
		}
		if got := r.observe(); !reflect.DeepEqual(got, st) {
			r.t.Errorf("State after AdoptState:\n got %+v\nwant %+v", got, st)
		}
		if got := r.read(Addr{1, later})[0]; !isBlank(got) {
			r.t.Errorf("track allocated after the adopted state read %v, want zeros", got)
		}
		if got := r.alloc(2); got != b {
			r.t.Errorf("adopted free list: Alloc = %d, want %d", got, b)
		}
		r.observe()
	}},

	// Export/ImportTrack move payloads without accounting.
	{"dirty-export-import", func(r *replay) {
		a, b := r.alloc(0), r.alloc(1)
		r.write(Addr{0, a}, Addr{1, b})
		r.write(Addr{0, a})
		before := r.observe()
		payload := r.export(0, a)
		if payload == nil {
			r.t.Fatal("export of a written track = nil")
		}
		if got := r.export(1, b+5); got != nil {
			r.t.Errorf("export beyond the bump mark = %v, want nil", got)
		}
		c := r.alloc(2)
		if got := r.export(2, c); got != nil {
			r.t.Errorf("export of an allocated, never-written track = %v, want nil", got)
		}
		if err := r.s.ImportTrack(2, c, payload); err != nil {
			r.t.Fatal(err)
		}
		if got := r.export(2, c); !reflect.DeepEqual(got, payload) {
			r.t.Errorf("export after import = %v, want %v", got, payload)
		}
		r.refused(r.s.ImportTrack(confD, 0, payload))
		r.refused(r.s.ImportTrack(0, 0, payload[:confB-1]))
		r.refused(r.s.ImportTrack(0, 0, nil))
		_, err := r.s.ExportTrack(0, -1)
		r.refused(err)
		after := r.observe()
		after.Next[2]-- // the Alloc above is the only model change
		if !reflect.DeepEqual(before, after) {
			r.t.Errorf("raw export/import touched the model:\nbefore %+v\nafter  %+v", before, after)
		}
		if got := r.read(Addr{0, a})[0]; !reflect.DeepEqual(got, payload) {
			r.t.Errorf("ReadOp = %v, exported %v", got, payload)
		}
	}},

	// Blank tracks read zeros: allocated and never written, beyond the
	// bump mark, released. A released track's buffer may serve a later
	// write (the Array's spare list), but never shows: a released and
	// re-allocated track reads zeros before its first write, also when the
	// allocation is rolled back and made again, and the tracks written
	// meanwhile — which take the recycled buffers — each keep their own
	// payload. The pool canary is on, so a stale buffer would read as the
	// canary, not as zeros.
	{"recycled-stay-blank", func(r *replay) {
		SetPoolCanary(0xDEADBEEFCAFEF00D)
		defer SetPoolCanary(0)
		blank := func(what string, d, t int) {
			if got := r.read(Addr{d, t})[0]; !isBlank(got) {
				r.t.Errorf("%s read %v, want zeros", what, got)
			}
			if a, ok := r.s.(*Array); ok {
				if got, err := a.ExportTrack(d, t); got != nil || err != nil {
					r.t.Errorf("ExportTrack of %s = %v, %v, want nil (blank)", what, got, err)
				}
			}
		}
		t0 := r.alloc(0)
		blank("allocated, never-written track", 0, t0)
		blank("track beyond the bump mark", 0, 1000)
		r.write(Addr{0, t0})
		r.release(0, t0)
		blank("released track", 0, t0)
		if again := r.alloc(0); again != t0 {
			r.t.Fatalf("Alloc after Release = %d, want recycled %d", again, t0)
		}
		blank("recycled track", 0, t0)

		mark := r.s.State()
		other := r.alloc(0)
		r.write(Addr{0, t0}, Addr{1, r.alloc(1)})
		r.write(Addr{0, other})
		r.rollback(mark)
		blank("rolled-back track", 0, other)
		if again := r.alloc(0); again != other {
			r.t.Fatalf("Alloc after rollback = %d, want %d again", again, other)
		}
		blank("track re-allocated after rollback", 0, other)

		// Two writes that take recycled buffers must not share one.
		r.release(0, t0)
		t0 = r.alloc(0)
		r.write(Addr{0, t0})
		r.write(Addr{0, other})
		if got := r.read(Addr{0, t0}); reflect.DeepEqual(got, r.read(Addr{0, other})) || isBlank(got[0]) {
			r.t.Errorf("tracks written from recycled buffers read alike or blank: %v", got)
		}
		r.observe()
	}},

	// A fresh track — allocated and not written since — reads zeros and
	// exports nil whatever its slot holds: a slot written, released and
	// allocated again, and a slot a closed store wrote after a State that
	// listed it fresh, once that state is adopted on reopen.
	{"fresh-stays-blank", func(r *replay) {
		stale := func(what string, d, t int) {
			if got := r.read(Addr{d, t})[0]; !isBlank(got) {
				r.t.Errorf("%s read %v, want zeros", what, got)
			}
			if got := r.export(d, t); got != nil {
				r.t.Errorf("%s exported %v, want nil", what, got)
			}
		}
		t0 := r.alloc(0)
		r.write(Addr{0, t0})
		r.release(0, t0)
		if again := r.alloc(0); again != t0 {
			r.t.Fatalf("Alloc after Release = %d, want recycled %d", again, t0)
		}
		stale("re-allocated track", 0, t0)

		t1 := r.alloc(1)
		st := r.observe()
		if want := [][]int{{t0}, {t1}, nil}; !reflect.DeepEqual(st.Fresh, want) {
			r.t.Fatalf("State lists %v fresh, want %v", st.Fresh, want)
		}
		r.write(Addr{0, t0}, Addr{1, t1})
		if err := r.s.Sync(); err != nil {
			r.t.Fatal(err)
		}
		r.reopen()
		if err := r.s.AdoptState(st); err != nil {
			r.t.Fatalf("AdoptState of a captured state: %v", err)
		}
		stale("track written after a state that lists it fresh", 0, t0)
		stale("track written after a state that lists it fresh", 1, t1)
		r.write(Addr{1, t1})
		if got := r.export(1, t1); got == nil {
			r.t.Error("a track written after the adoption exports nil")
		}
		if got := r.observe().Fresh; !reflect.DeepEqual(got, [][]int{{t0}, nil, nil}) {
			r.t.Errorf("State lists %v fresh after a write, want only track %d of drive 0", got, t0)
		}
	}},

	// A long seeded mix of every model operation.
	{"seeded-mix", func(r *replay) {
		rnd := prng.New(0x5eed)
		var live [confD][]int
		for op := 0; op < 400; op++ {
			d := rnd.Intn(confD)
			switch k := rnd.Intn(10); {
			case k < 3:
				live[d] = append(live[d], r.alloc(d))
			case k < 4 && len(live[d]) > 0:
				i := rnd.Intn(len(live[d]))
				r.release(d, live[d][i])
				live[d] = append(live[d][:i], live[d][i+1:]...)
			case k < 7:
				var addrs []Addr
				for dd := range live {
					if n := len(live[dd]); n > 0 && rnd.Bool() {
						addrs = append(addrs, Addr{dd, live[dd][rnd.Intn(n)]})
					}
				}
				if len(addrs) > 0 {
					r.write(addrs...)
				}
			case k < 9:
				var addrs []Addr
				for dd := range live {
					if rnd.Bool() {
						addrs = append(addrs, Addr{dd, rnd.Intn(40)}) // live, freed or beyond the mark
					}
				}
				if len(addrs) > 0 {
					r.read(addrs...)
				}
			default: // a run of allocations over consecutive drives
				n, first := rnd.Intn(2*confD)+1, rnd.Intn(confD)
				for i := 0; i < n; i++ {
					dd := (first + i) % confD
					live[dd] = append(live[dd], r.alloc(dd))
				}
			}
			if op%100 == 99 {
				r.observe()
			}
		}
	}},
}

// TestStoreConformance replays every case against every store kind
// and requires each transcript to equal the in-memory Array's.
func TestStoreConformance(t *testing.T) {
	for _, c := range confCases {
		t.Run(c.name, func(t *testing.T) {
			var ref *transcript
			for _, st := range confStores() {
				t.Run(st.name, func(t *testing.T) {
					dir := t.TempDir()
					r := &replay{t: t, s: st.open(t, dir, false), payloads: prng.New(0xC0FFEE)}
					defer func() { r.s.Close() }()
					r.reopen = func() {
						if _, mem := r.s.(*Array); mem {
							return
						}
						if err := r.s.Close(); err != nil {
							t.Fatal(err)
						}
						r.s = st.open(t, dir, true)
					}
					c.script(r)
					if ref == nil {
						ref = &r.transcript
						return
					}
					got, want := reflect.ValueOf(r.transcript), reflect.ValueOf(*ref)
					for i := 0; i < got.NumField(); i++ {
						if g, w := got.Field(i).Interface(), want.Field(i).Interface(); !reflect.DeepEqual(g, w) {
							t.Errorf("%s differs from the array's:\n got %s\nwant %s", got.Type().Field(i).Name, short(g), short(w))
						}
					}
				})
			}
		})
	}
}

// short renders a transcript field for a failure message, clipped.
func short(v any) string {
	s := fmt.Sprintf("%+v", v)
	if len(s) > 600 {
		s = s[:600] + " …"
	}
	return s
}
