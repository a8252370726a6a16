package disk

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// AdoptState takes a StoreState decoded from the journal or from a
// NodeSnapshot that arrived over the wire. The shared model validates
// it once for every backend: a malformed state is a typed error that
// leaves the store as it was — never a panic, and never an allocator
// that later hands one track out twice.

// adoptStores opens one store of every backend kind over a D-drive,
// B-word geometry (the tier stands for every chain: it forwards the
// state to its backend's model). The worker store runs at a small
// emulated latency, which is what starts its workers.
func adoptStores(tb testing.TB, cfg Config) map[string]Backend {
	tb.Helper()
	file := func(lat time.Duration) *File {
		f, err := OpenFileOpts(tb.TempDir(), cfg, false, FileOptions{AccessLatency: lat})
		if err != nil {
			tb.Fatal(err)
		}
		return f
	}
	stores := map[string]Backend{
		"array":          MustNewArray(cfg),
		"file":           file(0),
		"file-workers":   file(time.Microsecond),
		"tier-over-file": NewTier(file(0), TierOptions{}),
	}
	if MmapSupported() {
		m, err := OpenMapped(tb.TempDir(), cfg, false, MappedOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		stores["mapped"] = m
	}
	tb.Cleanup(func() {
		for _, s := range stores {
			s.Close()
		}
	})
	return stores
}

// validState2 is a well-formed two-drive state with a free list and a
// fresh track.
func validState2() StoreState {
	return StoreState{
		Stats: Stats{Ops: 3, WriteOps: 3, BlocksWritten: 5, PerDrive: []DriveStats{{BlocksWritten: 3, SeqAccesses: 3}, {BlocksWritten: 2, RandAccesses: 2}}},
		Next:  []int{4, 3},
		Last:  []int{2, -1},
		Free:  [][]int{{1, 3}, nil},
		Fresh: [][]int{nil, {2}},
	}
}

func TestAdoptStateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name   string
		mangle func(s *StoreState)
	}{
		{"short Next", func(s *StoreState) { s.Next = s.Next[:1] }},
		{"long Last", func(s *StoreState) { s.Last = append(s.Last, 0) }},
		{"missing Free", func(s *StoreState) { s.Free = nil }},
		{"short Stats.PerDrive", func(s *StoreState) { s.Stats.PerDrive = s.Stats.PerDrive[:1] }},
		{"missing Stats.PerDrive", func(s *StoreState) { s.Stats.PerDrive = nil }},
		{"negative Next", func(s *StoreState) { s.Next[1] = -1; s.Free[1] = nil }},
		{"Last below -1", func(s *StoreState) { s.Last[0] = -2 }},
		{"duplicated free entry", func(s *StoreState) { s.Free[0] = []int{1, 3, 1} }},
		{"free entry at the bump mark", func(s *StoreState) { s.Free[0] = []int{1, 4} }},
		{"free entry beyond the bump mark", func(s *StoreState) { s.Free[1] = []int{70} }},
		{"negative free entry", func(s *StoreState) { s.Free[0] = []int{-1} }},
		{"short Fresh", func(s *StoreState) { s.Fresh = s.Fresh[:1] }},
		{"long Fresh", func(s *StoreState) { s.Fresh = append(s.Fresh, nil) }},
		{"fresh entry beyond the bump mark", func(s *StoreState) { s.Fresh[1] = []int{3} }},
		{"negative fresh entry", func(s *StoreState) { s.Fresh[0] = []int{-1} }},
		{"fresh entry on the free list", func(s *StoreState) { s.Fresh[0] = []int{3} }},
		{"duplicated fresh entry", func(s *StoreState) { s.Fresh[1] = []int{0, 2, 0} }},
	}
	for name, s := range adoptStores(t, Config{D: 2, B: 4}) {
		t.Run(name, func(t *testing.T) {
			if err := s.AdoptState(validState2()); err != nil {
				t.Fatalf("well-formed state refused: %v", err)
			}
			want := s.State()
			for _, c := range cases {
				bad := validState2()
				c.mangle(&bad)
				err := s.AdoptState(bad)
				var se *stateError
				if !errors.As(err, &se) {
					t.Errorf("%s: AdoptState = %v, want a *stateError", c.name, err)
				}
				if got := s.State(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: refused state changed the store:\n got %+v\nwant %+v", c.name, got, want)
				}
			}
			// The store still works, from the last good state.
			if got := s.Alloc(0); got != 3 {
				t.Errorf("Alloc(0) after refused adoptions = %d, want 3 (top of the adopted free list)", got)
			}
		})
	}
}

// fuzzState decodes arbitrary bytes into a two-drive-ish StoreState:
// table lengths 0..3 and small signed entries, so every malformed
// shape of the table test (and their combinations) is a short input.
// Fresh is nil when its drawn length is 0.
func fuzzState(data []byte) StoreState {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(int8(b))
	}
	ints := func() []int {
		n := next() & 3
		out := make([]int, n)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	var s StoreState
	s.Next, s.Last = ints(), ints()
	s.Stats.PerDrive = make([]DriveStats, next()&3)
	s.Free = make([][]int, next()&3)
	for d := range s.Free {
		s.Free[d] = ints()
	}
	if n := next() & 3; n > 0 {
		s.Fresh = make([][]int, n)
		for d := range s.Fresh {
			s.Fresh[d] = ints()
		}
	}
	return s
}

// FuzzAdoptState: for arbitrary states, every backend either refuses
// with a typed error and stays unchanged, or adopts a state it can
// then run on — the adopted fresh tracks read zeros, allocations are
// pairwise distinct, releases and I/O on them succeed — without a
// panic.
func FuzzAdoptState(f *testing.F) {
	f.Add([]byte{2, 4, 3, 2, 2, 0xff, 2, 2, 2, 1, 3, 0})                  // validState2's shape
	f.Add([]byte{1, 4, 2, 2, 0xff, 2, 2, 0, 0})                           // short Next
	f.Add([]byte{2, 4, 3, 2, 2, 0xff, 1, 2, 0, 0})                        // short PerDrive
	f.Add([]byte{2, 0xff, 3, 2, 2, 0xff, 2, 2, 0, 0})                     // negative Next
	f.Add([]byte{2, 4, 3, 2, 0xfe, 0xff, 2, 2, 0, 0})                     // Last < -1
	f.Add([]byte{2, 4, 3, 2, 2, 0xff, 2, 2, 3, 1, 3, 1, 0})               // duplicated free entry
	f.Add([]byte{2, 4, 3, 2, 2, 0xff, 2, 2, 1, 4, 0})                     // free entry >= Next
	f.Add([]byte{2, 127, 127, 2, 126, 126, 2, 2, 3, 5, 6, 7, 3, 0, 1, 2}) // large well-formed
	f.Add([]byte{2, 4, 3, 2, 2, 0xff, 2, 2, 2, 1, 3, 0, 2, 0, 1, 2})      // validState2 with its fresh track
	f.Add([]byte{2, 4, 3, 2, 2, 0xff, 2, 2, 2, 1, 3, 0, 1, 0})            // one-drive Fresh
	f.Add([]byte{2, 4, 3, 2, 2, 0xff, 2, 2, 2, 1, 3, 0, 2, 1, 3, 0})      // fresh entry on the free list
	f.Add([]byte{2, 4, 3, 2, 2, 0xff, 2, 2, 2, 1, 3, 0, 2, 0, 2, 1, 1})   // duplicated fresh entry
	f.Add([]byte{2, 4, 3, 2, 2, 0xff, 2, 2, 2, 1, 3, 0, 2, 0, 1, 3})      // fresh entry >= Next
	cfg := Config{D: 2, B: 4}
	stores := adoptStores(f, cfg)
	buf := make([]uint64, cfg.B)
	f.Fuzz(func(t *testing.T, data []byte) {
		st := fuzzState(data)
		for name, s := range stores {
			before := s.State()
			if err := s.AdoptState(st); err != nil {
				var se *stateError
				if !errors.As(err, &se) {
					t.Fatalf("%s: AdoptState error %v is not a *stateError", name, err)
				}
				if got := s.State(); !reflect.DeepEqual(got, before) {
					t.Fatalf("%s: refused state changed the store:\n got %+v\nwant %+v", name, got, before)
				}
				continue
			}
			for d, fresh := range st.Fresh {
				for _, tr := range fresh {
					buf[0] = 1
					if err := s.ReadOp([]ReadReq{{Disk: d, Track: tr, Dst: buf}}); err != nil || buf[0] != 0 {
						t.Fatalf("%s: adopted fresh track %d of drive %d read %v (%v), want zeros", name, tr, d, buf, err)
					}
				}
			}
			seen := make(map[Addr]bool)
			for i := 0; i < 8; i++ {
				a := Addr{Disk: i % cfg.D}
				a.Track = s.Alloc(a.Disk)
				if seen[a] {
					t.Fatalf("%s: track %v allocated twice after adopting %+v", name, a, st)
				}
				seen[a] = true
				if err := s.WriteOp([]WriteReq{{Disk: a.Disk, Track: a.Track, Src: buf}}); err != nil {
					t.Fatalf("%s: write %v: %v", name, a, err)
				}
				if err := s.ReadOp([]ReadReq{{Disk: a.Disk, Track: a.Track, Dst: buf}}); err != nil {
					t.Fatalf("%s: read %v: %v", name, a, err)
				}
			}
			for a := range seen {
				if err := s.Release(a.Disk, a.Track); err != nil {
					t.Fatalf("%s: release %v: %v", name, a, err)
				}
			}
			for d := 0; d < cfg.D; d++ {
				s.Alloc(d)
			}
			s.Stats()
		}
	})
}

// TestAdoptStateLeavesTheStageIdle: adopting a state while the staging
// cache is busy — fills staged or queued and writes queued behind the
// workers — leaves nothing queued or staged and the whole budget free.
// The adopted metadata describes a store with nothing in flight, and a
// staged copy of a track the state rolls back must never be served
// (File.AdoptState drains the queues and drops the cache; a tier drops
// its own cache and has the store below do the same).
func TestAdoptStateLeavesTheStageIdle(t *testing.T) {
	const D, B, lat = 4, 8, 20 * time.Millisecond
	open := func(t *testing.T) *File {
		f, err := OpenFileOpts(t.TempDir(), Config{D: D, B: B}, false, FileOptions{AccessLatency: lat})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// busy writes a stripe and takes the mark, stages that stripe back
	// through s (stage), queues a second stripe's writes and adopts the
	// mark while they are in flight.
	busy := func(t *testing.T, s Store, stage func([]Addr)) {
		t.Helper()
		addrs, w, _ := stripe(s, 1, 0, 1, 2, 3)
		if err := s.WriteOp(w); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		mark := s.State()
		stage(addrs)
		_, next, _ := stripe(s, 2, 0, 1, 2, 3)
		if err := s.WriteOp(next); err != nil {
			t.Fatal(err)
		}
		if err := s.AdoptState(mark); err != nil {
			t.Fatal(err)
		}
	}
	idle := func(t *testing.T, label string, s *stage) {
		t.Helper()
		queued := 0
		for _, q := range s.queues {
			q.mu.Lock()
			queued += q.n
			q.mu.Unlock()
		}
		s.mu.Lock()
		staged := len(s.cache)
		s.mu.Unlock()
		if queued != 0 || staged != 0 || s.acct.Used() != 0 {
			t.Errorf("%s after AdoptState: %d transfers queued, %d entries staged, %d budget words held, want none", label, queued, staged, s.acct.Used())
		}
	}

	t.Run("file", func(t *testing.T) {
		f := open(t)
		defer f.Close()
		// The fills queue on every drive, the writes behind them.
		busy(t, f, f.Prefetch)
		idle(t, "file", f.st)
	})
	t.Run("tier-over-file", func(t *testing.T) {
		f := open(t)
		tier := NewTier(f, TierOptions{})
		defer tier.Close()
		// The fills land in the tier; the writes pass through and queue
		// behind the file store's workers.
		busy(t, tier, func(addrs []Addr) {
			tier.Prefetch(addrs)
			waitStaged(t, tier, D)
		})
		idle(t, "tier", tier.st)
		idle(t, "file below the tier", f.st)
	})
}
