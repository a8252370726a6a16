package disk

// The physical schedule's guarantees as counts (DESIGN.md §16.3, next to
// core's TestBarrierSequenceAndCounts). Each used to be held by a
// wall-clock ratio of whole runs, which measures the host; a count
// measures the code. Only Overlap() (a chain's, or a tier's own) and the
// tracer's span counts are read — no counter exists for these tests
// alone.

import (
	"slices"
	"testing"
	"time"

	"embsp/internal/obs"
)

func openCounted(t *testing.T, d int, opt FileOptions) *File {
	t.Helper()
	f, err := OpenFileOpts(t.TempDir(), Config{D: d, B: 16}, false, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// stripe allocates one fresh track on each of the given drives and
// returns their addresses with a write and a read request per track.
func stripe(s Store, fill uint64, drives ...int) ([]Addr, []WriteReq, []ReadReq) {
	b := s.Config().B
	var addrs []Addr
	var w []WriteReq
	var r []ReadReq
	for _, d := range drives {
		t := s.Alloc(d)
		addrs = append(addrs, Addr{Disk: d, Track: t})
		w = append(w, WriteReq{Disk: d, Track: t, Src: track(b, fill+uint64(d)<<32)})
		r = append(r, ReadReq{Disk: d, Track: t, Dst: make([]uint64, b)})
	}
	return addrs, w, r
}

// mixedOps is the sequence the zero-latency tests share, on a D = 4
// store: twice, write a D-wide stripe, hint it, read it back and free
// one of its tracks (so the second round also reuses a released track).
func mixedOps(t *testing.T, s Store) {
	t.Helper()
	for round := uint64(1); round <= 2; round++ {
		addrs, w, r := stripe(s, round<<48, 0, 1, 2, 3)
		if err := s.WriteOp(w); err != nil {
			t.Fatal(err)
		}
		s.(Prefetcher).Prefetch(addrs)
		if err := s.ReadOp(r); err != nil {
			t.Fatal(err)
		}
		for i := range r {
			if !slices.Equal(r[i].Dst, w[i].Src) {
				t.Fatalf("round %d: drive %d read back other bytes than were written", round, r[i].Disk)
			}
		}
		if err := s.Release(addrs[0].Disk, addrs[0].Track); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSyncFsyncsDirtiedDrivesOnce: a drive is fsynced only by the
// barrier's Sync, once if it took bytes since the last one, and a
// barrier after nothing costs none — on the worker store under
// emulated latency, with prefetch hints between the writes: a hint
// moves reads ahead and makes nothing durable.
func TestSyncFsyncsDirtiedDrivesOnce(t *testing.T) {
	tr := obs.New()
	f := openCounted(t, 4, FileOptions{AccessLatency: 100 * time.Microsecond, Tracer: tr})
	if n := f.Workers(); n != 4 {
		t.Fatalf("store under emulated latency started %d workers, want one per drive (4)", n)
	}
	fsyncs := func() (n int64) {
		for _, ph := range tr.Phases() {
			if ph.Name == "phys-fsync" {
				n += ph.Count
			}
		}
		return n
	}
	var written []Addr
	for _, c := range []struct {
		drives []int
		want   int64
	}{{[]int{0, 2}, 2}, {nil, 0}, {[]int{1}, 1}, {[]int{0, 1, 2, 3}, 4}, {nil, 0}} {
		addrs, w, _ := stripe(f, 1, c.drives...)
		before := fsyncs()
		for i := range w {
			f.Prefetch(written)
			if err := f.WriteOp(w[i : i+1]); err != nil {
				t.Fatal(err)
			}
		}
		written = append(written, addrs...)
		f.Prefetch(written)
		f.st.drain()
		if got := fsyncs() - before; got != 0 {
			t.Errorf("writes to drives %v and prefetch hints: %d fsyncs before the barrier, want 0", c.drives, got)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := fsyncs() - before; got != c.want {
			t.Errorf("Sync after writes to drives %v: %d fsyncs, want %d", c.drives, got, c.want)
		}
	}
}

// TestZeroLatencyStaysInline: with nothing to wait for, the store
// starts no workers — every transfer happens inside the call, no fill
// is issued and no write is queued.
func TestZeroLatencyStaysInline(t *testing.T) {
	f := openCounted(t, 4, FileOptions{})
	if n := f.Workers(); n != 0 {
		t.Fatalf("zero-latency store started %d workers, want 0", n)
	}
	mixedOps(t, f)
	if ov := f.Overlap(); ov.PrefetchIssued != 0 || ov.AsyncWrites != 0 {
		t.Errorf("zero-latency store queued work: %d fills issued, %d async writes, want 0 and 0", ov.PrefetchIssued, ov.AsyncWrites)
	}
}

// TestTierWithoutFillWorkersStagesNothing: over a page-cache-fast
// store the tier is an accounting shim — no staging round-trip, its
// own or the backend's (TestTierNoRegression's 5% ratio).
func TestTierWithoutFillWorkersStagesNothing(t *testing.T) {
	tier := NewTier(openCounted(t, 4, FileOptions{}), TierOptions{})
	mixedOps(t, tier)
	if own, ov := tier.st.overlap(), tier.Overlap(); own.PrefetchIssued != 0 || ov.PrefetchIssued != 0 || ov.AsyncWrites != 0 {
		t.Errorf("tier staged %d tracks, chain issued %d fills and %d async writes, want 0, 0 and 0", own.PrefetchIssued, ov.PrefetchIssued, ov.AsyncWrites)
	}
}

// TestLatencyDrivesAllDrivesAtOnce: under per-track latency one D-wide
// operation is D transfers in flight together, writes absorbed by the
// write-behind and hinted reads served from the cache — what
// TestPipelineSpeedupGuard read off a 1.5x speed-up. A lock held
// across the sleep, a worker clamp or a drain per transfer reads
// peak 1. The peak is exact: each worker marks its transfer begun
// microseconds after the enqueue and then sleeps 20 ms, so even this
// 2-vCPU host under -race has all D marked long before the first ends.
func TestLatencyDrivesAllDrivesAtOnce(t *testing.T) {
	const D = 8
	f := openCounted(t, D, FileOptions{AccessLatency: 20 * time.Millisecond})
	addrs, w, r := stripe(f, 7, 0, 1, 2, 3, 4, 5, 6, 7)

	if err := f.WriteOp(w); err != nil {
		t.Fatal(err)
	}
	f.st.drain()
	if ov := f.Overlap(); ov.AsyncWrites != D || ov.ConcurrentPeak != D {
		t.Errorf("D-wide write: %d async writes, peak %d in flight, want %d and %d", ov.AsyncWrites, ov.ConcurrentPeak, D, D)
	}

	f.ResetOverlap()
	f.Prefetch(addrs)
	if err := f.ReadOp(r); err != nil {
		t.Fatal(err)
	}
	if ov := f.Overlap(); ov.PrefetchIssued != D || ov.PrefetchHits != D || ov.ConcurrentPeak != D {
		t.Errorf("hinted D-wide read: %d fills, %d hits, peak %d in flight, want %d each", ov.PrefetchIssued, ov.PrefetchHits, ov.ConcurrentPeak, D)
	}
	for i := range r {
		if !slices.Equal(r[i].Dst, w[i].Src) {
			t.Fatalf("drive %d read back other bytes than were written", r[i].Disk)
		}
	}
}

// TestTierLatencyDrivesAllDrivesAtOnce is the tier twin: over a file
// store under 20 ms latency — which is what starts the tier's fill
// workers — a D-wide Prefetch is D tier fills in flight together, each
// a backend read on its own drive's worker, and the hinted D-wide read
// is D staged hits. It reads the tier's own overlap counters, since
// the chain's Overlap folds in the file store's peak, which is D from
// its own transfers alone.
func TestTierLatencyDrivesAllDrivesAtOnce(t *testing.T) {
	const D = 8
	tier := NewTier(openCounted(t, D, FileOptions{AccessLatency: 20 * time.Millisecond}), TierOptions{})
	t.Cleanup(func() { tier.Close() })
	addrs, w, r := stripe(tier, 7, 0, 1, 2, 3, 4, 5, 6, 7)
	if err := tier.WriteOp(w); err != nil {
		t.Fatal(err)
	}
	if err := tier.Sync(); err != nil {
		t.Fatal(err)
	}

	tier.Prefetch(addrs)
	if err := tier.ReadOp(r); err != nil {
		t.Fatal(err)
	}
	if ov := tier.st.overlap(); ov.PrefetchIssued != D || ov.PrefetchHits != D || ov.ConcurrentPeak != D {
		t.Errorf("hinted D-wide read through the tier: %d fills, %d hits, peak %d in flight, want %d each", ov.PrefetchIssued, ov.PrefetchHits, ov.ConcurrentPeak, D)
	}
	for i := range r {
		if !slices.Equal(r[i].Dst, w[i].Src) {
			t.Fatalf("drive %d read back other bytes than were written", r[i].Disk)
		}
	}
}
