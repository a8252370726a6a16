package disk

// Concurrency stress for the worker-backed file store, aimed at the
// race detector: many goroutines hammer every public entry point of
// one store at once. The assertions are deliberately weak (no panics,
// no lost writes on private tracks) — the point is that `go test
// -race ./...` explores the lock discipline of the cache, the queues,
// the barrier's concurrent fsyncs and the overlap counters under real
// contention. The stores run at a small emulated latency, which is what
// starts their workers.

import (
	"sync"
	"testing"
	"time"
)

const raceLatency = 10 * time.Microsecond

// raceStore opens a worker-backed store with a deliberately tiny cache
// so budget-exhausted write stalls and prefetch rejections are hit.
func raceStore(t *testing.T, d, b int) *File {
	t.Helper()
	f, err := OpenFileOpts(t.TempDir(), Config{D: d, B: b}, false, FileOptions{
		CacheWords:    int64(2 * d * (b + 2)),
		AccessLatency: raceLatency,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return f
}

// TestFileConcurrentOps runs readers, writers, prefetchers, allocator
// traffic and barrier syncs concurrently. Each worker goroutine owns a
// private track per drive (so its read-back values are deterministic)
// while all of them share the store's drives, queues and cache.
func TestFileConcurrentOps(t *testing.T) {
	const d, b, workers, rounds = 4, 16, 8, 40
	f := raceStore(t, d, b)

	// Pre-allocate a private track per (worker, drive).
	tracks := make([][]int, workers)
	for w := range tracks {
		tracks[w] = make([]int, d)
		for dr := 0; dr < d; dr++ {
			tracks[w][dr] = f.Alloc(dr)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := make([]uint64, b)
			dst := make([]uint64, b)
			for r := 0; r < rounds; r++ {
				wreqs := make([]WriteReq, d)
				for dr := 0; dr < d; dr++ {
					for i := range src {
						src[i] = uint64(w<<24 | r<<12 | i)
					}
					wreqs[dr] = WriteReq{Disk: dr, Track: tracks[w][dr], Src: src}
				}
				if err := f.WriteOp(wreqs); err != nil {
					t.Errorf("worker %d: WriteOp: %v", w, err)
					return
				}
				// Prefetch everyone's tracks — hits, misses and budget
				// rejections all race with the writes above.
				var addrs []Addr
				for _, ts := range tracks {
					for dr, tr := range ts {
						addrs = append(addrs, Addr{Disk: dr, Track: tr})
					}
				}
				f.Prefetch(addrs)
				for dr := 0; dr < d; dr++ {
					if err := f.ReadOp([]ReadReq{{Disk: dr, Track: tracks[w][dr], Dst: dst}}); err != nil {
						t.Errorf("worker %d: ReadOp: %v", w, err)
						return
					}
					if dst[1] != uint64(w<<24|r<<12|1) {
						t.Errorf("worker %d round %d: read back %#x, want %#x", w, r, dst[1], w<<24|r<<12|1)
						return
					}
				}
				switch r % 4 {
				case 0:
					if err := f.Sync(); err != nil {
						t.Errorf("worker %d: Sync: %v", w, err)
						return
					}
				case 1:
					_ = f.Stats()
					_ = f.Overlap()
				case 2:
					// Allocator churn on a scratch track.
					tr := f.Alloc(w % d)
					if err := f.Release(w%d, tr); err != nil {
						t.Errorf("worker %d: Release: %v", w, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestFileConcurrentAllocRestore interleaves snapshot/restore cycles
// (the retry path's rollback, over still-queued writes) with reads and
// writes on stable tracks from other goroutines.
func TestFileConcurrentAllocRestore(t *testing.T) {
	const d, b = 3, 8
	f := raceStore(t, d, b)

	stable := make([]int, d)
	src := make([]uint64, b)
	for dr := 0; dr < d; dr++ {
		stable[dr] = f.Alloc(dr)
		for i := range src {
			src[i] = uint64(1000*dr + i)
		}
		if err := f.WriteOp([]WriteReq{{Disk: dr, Track: stable[dr], Src: src}}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Rollback loop: allocate a burst of tracks, write them, roll back.
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]uint64, b)
		for i := range buf {
			buf[i] = 0xDEAD
		}
		for i := 0; i < 30; i++ {
			m := f.State()
			var reqs []WriteReq
			for dr := 0; dr < d; dr++ {
				reqs = append(reqs, WriteReq{Disk: dr, Track: f.Alloc(dr), Src: buf})
			}
			if err := f.WriteOp(reqs); err != nil {
				t.Errorf("burst write: %v", err)
				return
			}
			if err := Rollback(f, m); err != nil {
				t.Errorf("rollback: %v", err)
				return
			}
		}
		close(stop)
	}()
	// Reader loop: the stable tracks must read back unchanged through
	// every concurrent rollback.
	wg.Add(1)
	go func() {
		defer wg.Done()
		dst := make([]uint64, b)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for dr := 0; dr < d; dr++ {
				if err := f.ReadOp([]ReadReq{{Disk: dr, Track: stable[dr], Dst: dst}}); err != nil {
					t.Errorf("stable read: %v", err)
					return
				}
				if dst[1] != uint64(1000*dr+1) {
					t.Errorf("stable track %d/%d corrupted: %#x", dr, stable[dr], dst[1])
					return
				}
			}
		}
	}()
	wg.Wait()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestFileConcurrentSyncClose races barrier syncs against ongoing
// write traffic, then closes mid-flight queues via Close — the drain
// in Close must win cleanly.
func TestFileConcurrentSyncClose(t *testing.T) {
	const d, b = 4, 8
	f, err := OpenFileOpts(t.TempDir(), Config{D: d, B: b}, false, FileOptions{AccessLatency: raceLatency})
	if err != nil {
		t.Fatal(err)
	}
	tracks := make([]int, d)
	for dr := range tracks {
		tracks[dr] = f.Alloc(dr)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := make([]uint64, b)
			for i := 0; i < 20; i++ {
				var reqs []WriteReq
				for dr := 0; dr < d; dr++ {
					reqs = append(reqs, WriteReq{Disk: dr, Track: tracks[dr], Src: src})
				}
				if err := f.WriteOp(reqs); err != nil {
					t.Errorf("WriteOp: %v", err)
					return
				}
				if i%5 == 0 {
					if err := f.Sync(); err != nil {
						t.Errorf("Sync: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
