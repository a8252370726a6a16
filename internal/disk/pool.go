package disk

import (
	"sync"
	"sync/atomic"
)

// poolCanary, when non-zero, is stamped into every payload buffer on
// its way back to the block pool. Tests set it (via SetPoolCanary) to
// prove the pooled worker path never recycles a buffer a reader still
// aliases: if delivered data ever shows the canary, a buffer was
// returned to the pool while live.
var poolCanary atomic.Uint64

// SetPoolCanary installs (or, with 0, removes) the canary word stamped
// into pooled payload buffers on release. Testing hook only; it has no
// effect on correctness, just makes use-after-release loud.
func SetPoolCanary(w uint64) { poolCanary.Store(w) }

// blockPool is a bounded free list of B-word buffers under its own
// mutex, which keeps the hot path allocation-free without sync.Pool's
// per-Put boxing. The Array keeps the buffers of its released tracks in
// an unbounded one (its spare list); the worker store recycles the
// payload buffers that flow through its queues (prefetch fills, private
// fills, write-behind captures) in a bounded one. Fills and retires
// happen once per physically-touched track, so without recycling the
// worker store allocates (and the collector chases) one B-word slice
// per track per pass.
type blockPool struct {
	mu   sync.Mutex
	size int // buffer length in words
	cap  int // max buffers kept
	free [][]uint64
}

func newBlockPool(words, capacity int) *blockPool {
	return &blockPool{size: words, cap: capacity}
}

// get returns a buffer of the pool's length. The contents are
// unspecified (possibly a canary fill); every consumer overwrites the
// buffer in full before using it.
func (p *blockPool) get() []uint64 {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	return make([]uint64, p.size)
}

// put recycles a buffer, stamped with the canary when one is set.
// Callers must guarantee no reader still holds a reference
// (File.retire enforces this with a per-entry refcount).
func (p *blockPool) put(b []uint64) {
	if cap(b) < p.size {
		return
	}
	b = b[:p.size]
	if c := poolCanary.Load(); c != 0 {
		for i := range b {
			b[i] = c
		}
	}
	p.mu.Lock()
	if len(p.free) < p.cap {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}
