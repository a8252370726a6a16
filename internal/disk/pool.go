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

// bufPool is a bounded free list of equal-length buffers under its own
// mutex, which keeps the hot path allocation-free without sync.Pool's
// per-Put boxing. The Array keeps the buffers of its wiped tracks in an
// unbounded one (its spare list). Two instances serve the worker path:
//
// blockPool recycles the B-word payload buffers that flow through it
// (prefetch fills, private fills, write-behind captures). Fills and
// retires happen once per physically-touched track, so without
// recycling the worker store allocates (and the collector chases) one
// B-word slice per track per pass — measurable garbage at zero drive
// latency. bytePool recycles the slot-sized scratch buffers of inline
// reads (which run outside File.mu and so cannot share the store's
// single scratch slot).
type bufPool[T any] struct {
	mu    sync.Mutex
	size  int // buffer length
	cap   int // max buffers kept
	free  [][]T
	stamp func([]T) // run on every buffer on its way back; nil = none
}

type (
	blockPool = bufPool[uint64]
	bytePool  = bufPool[byte]
)

func newBlockPool(words, capacity int) *blockPool {
	return &blockPool{size: words, cap: capacity, stamp: stampCanary}
}

func newBytePool(bytes, capacity int) *bytePool {
	return &bytePool{size: bytes, cap: capacity}
}

func stampCanary(b []uint64) {
	if c := poolCanary.Load(); c != 0 {
		for i := range b {
			b[i] = c
		}
	}
}

// get returns a buffer of the pool's length. The contents are
// unspecified (possibly a canary fill); every consumer overwrites the
// buffer in full before using it.
func (p *bufPool[T]) get() []T {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	return make([]T, p.size)
}

// put recycles a buffer. Callers must guarantee no reader still holds
// a reference (File.retire enforces this with a per-entry refcount).
func (p *bufPool[T]) put(b []T) {
	if cap(b) < p.size {
		return
	}
	b = b[:p.size]
	if p.stamp != nil {
		p.stamp(b)
	}
	p.mu.Lock()
	if len(p.free) < p.cap {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}
