package disk

// Pool-correctness stress: the worker store recycles payload buffers
// through blockPool, and the one catastrophic failure mode is a
// buffer returning to the pool while a reader still aliases it — the
// next fill would scribble over data already promised to the caller.
// These tests make that failure loud: a canary word is stamped into
// every buffer on release (SetPoolCanary), so any use-after-release
// surfaces as canary values in delivered payloads instead of a silent
// rare corruption. Run with -race they also explore the refcount and
// free-list lock discipline under real contention.

import (
	"sync"
	"testing"
	"time"
)

const canaryWord uint64 = 0xBADC0DE5BADC0DE5

// canaryStore opens a worker-backed store — the emulated access latency
// is what starts its workers, so every read and write takes the queued
// path — with a small cache to force budget stalls and entry retirement
// under pressure.
func canaryStore(t *testing.T, d, b int) *File {
	t.Helper()
	SetPoolCanary(canaryWord)
	t.Cleanup(func() { SetPoolCanary(0) })
	f, err := OpenFileOpts(t.TempDir(), Config{D: d, B: b}, false, FileOptions{
		CacheWords:    int64(3 * d * (b + 2)),
		AccessLatency: 200 * time.Microsecond,
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

// TestPoolCanaryReadBack cycles writes and read-backs through the
// queued worker path and verifies every word of every delivered
// payload. Write-behind captures, prefetch fills and private fills
// all recycle buffers between rounds; a single canary word in a
// read-back means a buffer was pooled while still referenced.
func TestPoolCanaryReadBack(t *testing.T) {
	const d, b, workers, rounds = 4, 32, 6, 25
	f := canaryStore(t, d, b)

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
			srcs := make([][]uint64, d)
			for dr := range srcs {
				srcs[dr] = make([]uint64, b)
			}
			dst := make([]uint64, b)
			for r := 0; r < rounds; r++ {
				wreqs := make([]WriteReq, 0, d)
				for dr := 0; dr < d; dr++ {
					for i := range srcs[dr] {
						srcs[dr][i] = uint64(w)<<40 | uint64(r)<<20 | uint64(dr)<<10 | uint64(i)
					}
					wreqs = append(wreqs, WriteReq{Disk: dr, Track: tracks[w][dr], Src: srcs[dr]})
				}
				if err := f.WriteOp(wreqs); err != nil {
					t.Errorf("worker %d: WriteOp: %v", w, err)
					return
				}
				// Prefetch everybody's tracks so fills race the
				// write-behind captures for pooled buffers.
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
					for i, got := range dst {
						want := uint64(w)<<40 | uint64(r)<<20 | uint64(dr)<<10 | uint64(i)
						if got == canaryWord && want != canaryWord {
							t.Errorf("worker %d round %d drive %d word %d: CANARY delivered — buffer recycled while live", w, r, dr, i)
							return
						}
						if got != want {
							t.Errorf("worker %d round %d drive %d word %d: got %#x want %#x", w, r, dr, i, got, want)
							return
						}
					}
				}
				if r%5 == 0 {
					if err := f.Sync(); err != nil {
						t.Errorf("worker %d: Sync: %v", w, err)
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

// TestPoolCanaryWipeReuse interleaves allocator churn (queued writes of
// tracks then rolled back, whose cached copies the rollback drops and
// recycles) with reads of stable data: a rollback must never bleed
// canaries or zeros into tracks a reader holds.
func TestPoolCanaryWipeReuse(t *testing.T) {
	const d, b = 3, 16
	f := canaryStore(t, d, b)

	stable := make([]int, d)
	src := make([]uint64, b)
	for dr := 0; dr < d; dr++ {
		stable[dr] = f.Alloc(dr)
		for i := range src {
			src[i] = uint64(7000*dr + i + 1)
		}
		if err := f.WriteOp([]WriteReq{{Disk: dr, Track: stable[dr], Src: src}}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		buf := make([]uint64, b)
		for i := range buf {
			buf[i] = 0xF00D
		}
		for i := 0; i < 20; i++ {
			m := f.State()
			var reqs []WriteReq
			for dr := 0; dr < d; dr++ {
				reqs = append(reqs, WriteReq{Disk: dr, Track: f.Alloc(dr), Src: buf})
			}
			if err := f.WriteOp(reqs); err != nil {
				t.Errorf("burst write: %v", err)
				return
			}
			// The burst tracks read blank again.
			if err := Rollback(f, m); err != nil {
				t.Errorf("rollback: %v", err)
				return
			}
		}
	}()
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
				for i, got := range dst {
					if want := uint64(7000*dr + i + 1); got != want {
						t.Errorf("stable track %d/%d word %d: got %#x want %#x", dr, stable[dr], i, got, want)
						return
					}
				}
			}
		}
	}()
	wg.Wait()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestBlockPoolBasics pins the pool contract itself: recycled buffers
// come back full-length, the canary is stamped on release, and the
// free list respects its retention bound.
func TestBlockPoolBasics(t *testing.T) {
	SetPoolCanary(canaryWord)
	defer SetPoolCanary(0)
	p := newBlockPool(8, 2)
	a, b, c := p.get(), p.get(), p.get()
	for i := range a {
		a[i] = 1
	}
	p.put(a)
	p.put(b)
	p.put(c) // over capacity: dropped
	if len(p.free) != 2 {
		t.Fatalf("free list holds %d buffers, want 2 (bounded retention)", len(p.free))
	}
	got := p.get()
	if len(got) != 8 {
		t.Fatalf("recycled buffer has len %d, want 8", len(got))
	}
	for i, w := range got {
		if w != canaryWord {
			t.Fatalf("recycled buffer word %d = %#x, want canary %#x", i, w, canaryWord)
		}
	}
	// Undersized foreign buffers must be rejected, not kept.
	p.put(make([]uint64, 4))
	if len(p.free) != 1 {
		t.Fatalf("free list holds %d buffers after get + undersized put, want 1", len(p.free))
	}
}
