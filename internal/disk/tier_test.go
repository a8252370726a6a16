package disk

import (
	"testing"
	"time"

	"embsp/internal/prng"
)

// newTierTest stacks a tier on a file store with 1 µs of emulated
// latency, which is what starts the tier's fill workers.
func newTierTest(t *testing.T, d, b int, opt TierOptions) *Tier {
	t.Helper()
	tr := NewTier(latentFile(t, d, b), opt)
	t.Cleanup(func() { tr.Close() })
	return tr
}

// latentFile opens a file store with 1 µs of emulated latency.
func latentFile(t *testing.T, d, b int) *File {
	t.Helper()
	f, err := OpenFileOpts(t.TempDir(), Config{D: d, B: b}, false, FileOptions{AccessLatency: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

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

// allocAll allocates n tracks on every drive of s.
func allocAll(s Store, n int) {
	for d := 0; d < s.Config().D; d++ {
		for i := 0; i < n; i++ {
			s.Alloc(d)
		}
	}
}

// waitStaged spins until the tier has n completed staged entries (fill
// workers run asynchronously).
func waitStaged(t *testing.T, tr *Tier, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tr.mu.Lock()
		done := int64(0)
		for _, e := range tr.st.cache {
			if e.done && e.err == nil {
				done++
			}
		}
		tr.mu.Unlock()
		if done >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("staged %d blocks, want %d", done, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTierPrefetchHitAndConsume: a prefetched block is served from the
// tier (a hit) and consumed by that read — the next read of the same
// track misses to the backend with the same bytes. Pseudo-streaming:
// a staged group flows through the tier once.
func TestTierPrefetchHitAndConsume(t *testing.T) {
	const d, b = 2, 4
	tr := newTierTest(t, d, b, TierOptions{})
	allocAll(tr, 6) // tracks 0..5: unallocated tracks read blank
	src := []uint64{9, 8, 7, 6}
	if err := tr.WriteOp([]WriteReq{{Disk: 1, Track: 5, Src: src}}); err != nil {
		t.Fatal(err)
	}
	tr.Prefetch([]Addr{{Disk: 1, Track: 5}})
	waitStaged(t, tr, 1)

	dst := make([]uint64, b)
	for pass := 0; pass < 2; pass++ { // staged, then consumed
		if err := tr.ReadOp([]ReadReq{{Disk: 1, Track: 5, Dst: dst}}); err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if dst[i] != src[i] {
				t.Fatalf("pass %d: read %v, want %v", pass, dst, src)
			}
		}
	}
	ov := tr.st.overlap()
	if ov.PrefetchIssued != 1 || ov.PrefetchHits != 1 || ov.PrefetchMisses != 1 {
		t.Fatalf("tier overlap = %+v, want 1 fill, 1 hit (first read), 1 miss (second read)", ov)
	}
	if got := tr.st.acct.Used(); got != 0 {
		t.Fatalf("consumed entry still holds %d budget words", got)
	}
}

// TestTierBudgetBoundsFills: with a one-track budget, prefetching many
// blocks admits exactly one fill; the rest are silently skipped and the
// later reads just miss.
func TestTierBudgetBoundsFills(t *testing.T) {
	const d, b = 2, 4
	tr := newTierTest(t, d, b, TierOptions{CacheWords: b})
	var addrs []Addr
	for i := 0; i < 6; i++ {
		if err := tr.WriteOp([]WriteReq{{Disk: i % d, Track: 10 + i/d, Src: make([]uint64, b)}}); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, Addr{Disk: i % d, Track: 10 + i/d})
	}
	tr.Prefetch(addrs)
	if n := tr.st.overlap().PrefetchIssued; n != 1 {
		t.Fatalf("admitted %d fills into a one-track budget, want 1", n)
	}
	if high := tr.st.acct.High(); high != b {
		t.Fatalf("budget high water = %d words, want %d", high, b)
	}
	dst := make([]uint64, b)
	for _, a := range addrs {
		if err := tr.ReadOp([]ReadReq{{Disk: a.Disk, Track: a.Track, Dst: dst}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTierWriteInvalidatesStaged: writing a track drops its staged
// copy, so the next read returns the new bytes (served by the backend,
// not the stale staging entry).
func TestTierWriteInvalidatesStaged(t *testing.T) {
	const d, b = 2, 4
	tr := newTierTest(t, d, b, TierOptions{})
	allocAll(tr, 4) // tracks 0..3: unallocated tracks read blank
	old := []uint64{1, 1, 1, 1}
	if err := tr.WriteOp([]WriteReq{{Disk: 0, Track: 3, Src: old}}); err != nil {
		t.Fatal(err)
	}
	tr.Prefetch([]Addr{{Disk: 0, Track: 3}})
	waitStaged(t, tr, 1)
	fresh := []uint64{2, 2, 2, 2}
	if err := tr.WriteOp([]WriteReq{{Disk: 0, Track: 3, Src: fresh}}); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, b)
	if err := tr.ReadOp([]ReadReq{{Disk: 0, Track: 3, Dst: dst}}); err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		if dst[i] != fresh[i] {
			t.Fatalf("read %v after overwrite, want %v (stale staged copy served)", dst, fresh)
		}
	}
	if got := tr.st.acct.Used(); got != 0 {
		t.Fatalf("invalidated entry still holds %d budget words", got)
	}
}

// TestTierAllocRestoreDropsCache: an allocator rollback empties the
// staging cache wholesale and returns its budget.
func TestTierAllocRestoreDropsCache(t *testing.T) {
	const d, b = 2, 4
	tr := newTierTest(t, d, b, TierOptions{})
	mark := tr.State()
	track := tr.Alloc(0)
	if err := tr.WriteOp([]WriteReq{{Disk: 0, Track: track, Src: []uint64{5, 5, 5, 5}}}); err != nil {
		t.Fatal(err)
	}
	tr.Prefetch([]Addr{{Disk: 0, Track: track}})
	waitStaged(t, tr, 1)
	if err := Rollback(tr, mark); err != nil {
		t.Fatal(err)
	}
	if got := tr.st.acct.Used(); got != 0 {
		t.Fatalf("rolled-back cache still holds %d budget words", got)
	}
	dst := []uint64{7, 7, 7, 7}
	if err := tr.ReadOp([]ReadReq{{Disk: 0, Track: track, Dst: dst}}); err != nil {
		t.Fatal(err)
	}
	for i, w := range dst {
		if w != 0 {
			t.Fatalf("word %d of a rolled-back track = %d, want 0", i, w)
		}
	}
}

// TestTierStacked: a two-tier chain is itself a Backend; ops account
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
	fs, cs := flat.Stats(), outer.Stats()
	if fs.Ops != cs.Ops || fs.BlocksRead != cs.BlocksRead || fs.BlocksWritten != cs.BlocksWritten {
		t.Fatalf("op stats differ:\nflat:  %+v\nchain: %+v", fs, cs)
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

// TestTierCloseFailsQueuedFills: Close with fills still queued must not
// hang, must fail the queued entries (so no reader could wait forever)
// and must return the staging budget.
func TestTierCloseFailsQueuedFills(t *testing.T) {
	const d, b = 2, 4
	tr := NewTier(latentFile(t, d, b), TierOptions{})
	var addrs []Addr
	for i := 0; i < 32; i++ {
		a := Addr{Disk: i % d, Track: i / d}
		if err := tr.WriteOp([]WriteReq{{Disk: a.Disk, Track: a.Track, Src: make([]uint64, b)}}); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	tr.Prefetch(addrs)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tr.st.acct.Used(); got != 0 {
		t.Fatalf("closed tier still holds %d budget words", got)
	}
}
