package disk

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"embsp/internal/prng"
)

// driveScript runs one deterministic mixed op sequence (writes, reads,
// allocs, releases, an area reservation) against any store and returns
// the payload of every read, so two stores can be compared both on
// accounting and on bytes.
func driveScript(t *testing.T, s Store, d, b int) []uint64 {
	t.Helper()
	r := prng.New(0x7137)
	var got []uint64
	buf := make([]uint64, b)
	write := func(disk, track int) {
		src := make([]uint64, b)
		for i := range src {
			src[i] = r.Uint64()
		}
		if err := s.WriteOp([]WriteReq{{Disk: disk, Track: track, Src: src}}); err != nil {
			t.Fatal(err)
		}
	}
	read := func(disk, track int) {
		if err := s.ReadOp([]ReadReq{{Disk: disk, Track: track, Dst: buf}}); err != nil {
			t.Fatal(err)
		}
		got = append(got, append([]uint64(nil), buf...)...)
	}
	var addrs []Addr
	for i := 0; i < 2*d; i++ {
		a := Addr{Disk: (1 + i) % d}
		a.Track = s.Alloc(a.Disk)
		write(a.Disk, a.Track)
		addrs = append(addrs, a)
	}
	for i := len(addrs) - 1; i >= 0; i-- {
		read(addrs[i].Disk, addrs[i].Track)
	}
	tr0 := s.Alloc(0)
	write(0, tr0)
	read(0, tr0)
	read(0, tr0+100) // blank
	if err := s.Release(0, tr0); err != nil {
		t.Fatal(err)
	}
	read(0, tr0) // blank again after release
	mark := s.State()
	tr1 := s.Alloc(d - 1)
	write(d-1, tr1)
	if err := Rollback(s, mark); err != nil {
		t.Fatal(err)
	}
	read(d-1, tr1) // rolled back: blank
	return got
}

// latentFile opens a file store with 1 µs of emulated latency, which
// is what starts its workers and its staging cache.
func latentFile(t *testing.T, d, b int) *File {
	t.Helper()
	f, err := OpenFileOpts(t.TempDir(), Config{D: d, B: b}, false, FileOptions{AccessLatency: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// waitStaged spins until the staging cache holds n completed fills
// (the workers run asynchronously).
func waitStaged(t *testing.T, s *stage, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		done := 0
		for _, e := range s.cache {
			if e.done && !e.write && e.err == nil {
				done++
			}
		}
		s.mu.Unlock()
		if done >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("staged %d blocks, want %d", done, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTierWriteInvalidatesStaged: a track staged in the file store
// below a tier and then overwritten through the tier reads back with
// the new bytes — the write-through drops the stale staged copy — and
// once the write has landed the cache holds no budget.
func TestTierWriteInvalidatesStaged(t *testing.T) {
	const d, b = 2, 4
	f := latentFile(t, d, b)
	tr := NewTier(f, TierOptions{})
	t.Cleanup(func() { tr.Close() })
	track := tr.Alloc(0)
	if err := tr.WriteOp([]WriteReq{{Disk: 0, Track: track, Src: []uint64{1, 1, 1, 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Sync(); err != nil { // the write lands and leaves the cache
		t.Fatal(err)
	}
	f.Prefetch([]Addr{{Disk: 0, Track: track}})
	waitStaged(t, f.st, 1)
	fresh := []uint64{2, 2, 2, 2}
	if err := tr.WriteOp([]WriteReq{{Disk: 0, Track: track, Src: fresh}}); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, b)
	if err := tr.ReadOp([]ReadReq{{Disk: 0, Track: track, Dst: dst}}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dst, fresh) {
		t.Fatalf("read %v after overwrite, want %v (stale staged copy served)", dst, fresh)
	}
	f.st.drain()
	if got := f.st.acct.Used(); got != 0 {
		t.Fatalf("invalidated entry still holds %d budget words", got)
	}
}

// TestTierAllocRestoreDropsCache: a rollback through a tier empties the
// staging cache of the file store below it and returns its budget, and
// the rolled-back track reads blank.
func TestTierAllocRestoreDropsCache(t *testing.T) {
	const d, b = 2, 4
	f := latentFile(t, d, b)
	tr := NewTier(f, TierOptions{})
	t.Cleanup(func() { tr.Close() })
	mark := tr.State()
	track := tr.Alloc(0)
	if err := tr.WriteOp([]WriteReq{{Disk: 0, Track: track, Src: []uint64{5, 5, 5, 5}}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Sync(); err != nil { // the write lands and leaves the cache
		t.Fatal(err)
	}
	f.Prefetch([]Addr{{Disk: 0, Track: track}})
	waitStaged(t, f.st, 1)
	if err := Rollback(tr, mark); err != nil {
		t.Fatal(err)
	}
	if got := f.st.acct.Used(); got != 0 {
		t.Fatalf("rolled-back cache still holds %d budget words", got)
	}
	dst := []uint64{7, 7, 7, 7}
	if err := tr.ReadOp([]ReadReq{{Disk: 0, Track: track, Dst: dst}}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dst, make([]uint64, b)) {
		t.Fatalf("a rolled-back track read %v, want zeros", dst)
	}
}

// TestTierStacked: a two-tier chain is itself a Backend; it accounts
// identically to flat, and the chain walk finds both tiers outermost
// first.
func TestTierStacked(t *testing.T) {
	const d, b = 2, 4
	inner := NewTier(newTest(t, d, b), TierOptions{})
	outer := NewTier(inner, TierOptions{})
	defer outer.Close()

	flat := newTest(t, d, b)
	fb := driveScript(t, flat, d, b)
	ob := driveScript(t, outer, d, b)
	for i := range fb {
		if fb[i] != ob[i] {
			t.Fatalf("read word %d = %d through the chain, %d flat", i, ob[i], fb[i])
		}
	}
	if fs, cs := flat.State(), outer.State(); !reflect.DeepEqual(fs, cs) {
		t.Fatalf("states differ:\nflat:  %+v\nchain: %+v", fs, cs)
	}
	var tiers []*Tier
	for tr := Find[*Tier](outer); tr != nil; tr = Find[*Tier](tr.Inner()) {
		tiers = append(tiers, tr)
	}
	if len(tiers) != 2 || tiers[0] != outer || tiers[1] != inner {
		t.Fatalf("the chain walk finds %d tiers, want the outer and the inner one", len(tiers))
	}
}

// TestTierStateRoundTripOverFile: the composed State of a tier over a
// file store survives an AdoptState round trip into a fresh chain,
// byte-for-byte and stat-for-stat — the crash-resume path.
func TestTierStateRoundTripOverFile(t *testing.T) {
	const d, b = 2, 4
	dir := t.TempDir()
	f, err := OpenFileOpts(dir, Config{D: d, B: b}, false, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTier(f, TierOptions{})
	driveScript(t, tr, d, b)
	st := tr.State()
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := OpenFileOpts(dir, Config{D: d, B: b}, true, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr2 := NewTier(f2, TierOptions{})
	defer tr2.Close()
	if err := tr2.AdoptState(st); err != nil {
		t.Fatal(err)
	}
	st2 := tr2.State()
	if st.Stats.Ops != st2.Stats.Ops || st.Stats.BlocksRead != st2.Stats.BlocksRead ||
		st.Stats.BlocksWritten != st2.Stats.BlocksWritten {
		t.Fatalf("adopted stats differ: %+v vs %+v", st.Stats, st2.Stats)
	}
	for i := 0; i < d; i++ {
		if st.Next[i] != st2.Next[i] || st.Last[i] != st2.Last[i] {
			t.Fatalf("adopted allocator/chain state differs at drive %d", i)
		}
	}
}

// failingWrites is a store whose every WriteOp fails.
type failingWrites struct{ Store }

var errWriteFailed = errors.New("disk: injected write failure")

func (failingWrites) WriteOp([]WriteReq) error { return errWriteFailed }

// TestTierWriteOpReturnsBackendError: a tier writes through inside the
// call, so a backend's write error is WriteOp's own, not one deferred to
// the next Sync.
func TestTierWriteOpReturnsBackendError(t *testing.T) {
	const d, b = 2, 4
	tr := NewTier(failingWrites{newTest(t, d, b)}, TierOptions{})
	err := tr.WriteOp([]WriteReq{{Disk: 0, Track: tr.Alloc(0), Src: make([]uint64, b)}})
	if !errors.Is(err, errWriteFailed) {
		t.Fatalf("WriteOp over a failing backend = %v, want %v", err, errWriteFailed)
	}
	if err := tr.Sync(); err != nil {
		t.Fatalf("Sync after the failed write = %v, want nil: the error was WriteOp's", err)
	}
}
