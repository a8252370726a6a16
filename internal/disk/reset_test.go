package disk

import (
	"testing"
	"time"
)

// TestResetStatsLeavesOverlapIntact pins the split between the model
// statistics and the wall-clock overlap counters: the engines call
// ResetStats after the setup phase to separate setup from run
// accounting, and before this split existed that reset silently
// discarded the overlap history too, making EMStats.Overlap undercount
// any run with a mid-run reset.
func TestResetStatsLeavesOverlapIntact(t *testing.T) {
	// A small emulated latency starts the worker queues, which route
	// writes and prefetches — at zero latency the store is synchronous
	// and generates no overlap activity to preserve.
	const D, B = 2, 8
	f, err := OpenFileOpts(t.TempDir(), Config{D: D, B: B}, false, FileOptions{
		AccessLatency: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Generate model and overlap activity: async writes through the
	// write-behind cache, then a prefetch served back from it.
	var addrs []Addr
	for i := 0; i < 2*D; i++ {
		d := i % D
		tr := f.Alloc(d)
		if err := f.WriteOp([]WriteReq{{Disk: d, Track: tr, Src: track(B, uint64(i))}}); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, Addr{Disk: d, Track: tr})
	}
	f.Prefetch(addrs)
	dst := make([]uint64, B)
	for _, a := range addrs {
		if err := f.ReadOp([]ReadReq{{Disk: a.Disk, Track: a.Track, Dst: dst}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	before := f.Overlap()
	if before.AsyncWrites == 0 && before.PrefetchIssued == 0 {
		t.Fatalf("workload generated no overlap activity: %+v", before)
	}
	if f.Stats().Ops == 0 {
		t.Fatal("workload generated no model operations")
	}

	f.ResetStats()
	if got := f.Stats(); got.Ops != 0 || got.BlocksRead != 0 || got.BlocksWritten != 0 {
		t.Errorf("ResetStats left model stats: %+v", got)
	}
	if got := f.Overlap(); got != before {
		t.Errorf("ResetStats changed the overlap counters:\nbefore %+v\nafter  %+v", before, got)
	}

	// The counters stay monotone across the reset: more traffic only
	// adds to the preserved history.
	d0 := addrs[0]
	if err := f.ReadOp([]ReadReq{{Disk: d0.Disk, Track: d0.Track, Dst: dst}}); err != nil {
		t.Fatal(err)
	}
	after := f.Overlap()
	if after.PrefetchHits+after.PrefetchMisses < before.PrefetchHits+before.PrefetchMisses {
		t.Errorf("overlap history went backwards: before %+v, after %+v", before, after)
	}

	// ResetOverlap is the explicit observability-side reset.
	f.ResetOverlap()
	if got := f.Overlap(); got != (OverlapStats{}) {
		t.Errorf("ResetOverlap left counters: %+v", got)
	}
}

// ResetOverlap zeroes the wall-clock overlap counters (including the
// concurrency peak), leaving the model statistics alone — the
// observability-side complement of ResetStats.
func (f *File) ResetOverlap() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.st.ov = OverlapStats{}
	f.st.xfer.peak.Store(0)
}
