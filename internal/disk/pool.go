package disk

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"embsp/internal/mem"
)

// poolCanary, when non-zero, is stamped into every payload buffer on
// its way back to the block pool. Tests set it (via SetPoolCanary) to
// prove the staging cache never recycles a buffer a reader still
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
// an unbounded one (its spare list); a staging cache recycles the
// payload buffers that flow through its queues (prefetch fills, private
// fills, write-behind captures) in a bounded one. Fills and retires
// happen once per physically-touched track, so without recycling the
// cache allocates (and the collector chases) one B-word slice per track
// per pass.
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
// (stage.retire enforces this with a per-entry refcount).
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

// stage is the file store's staging cache under emulated latency,
// Buurlage et al.'s pseudo-streaming: one worker per drive moves the
// store's bytes while the caller computes. Prefetch stages the next
// group's blocks, a read consumes each staged block once, a miss is a
// private fill on its drive's worker, and a write is a write-behind
// entry that lands asynchronously. Every entry is one slot, charged B+2
// words against the cache budget.
//
// Every field but the queues is guarded by the store's lock, mu, which
// also orders the store's model accounting: an operation charges the
// model and touches the cache and the queues in one critical section,
// so each drive's physical order is its accounting order. A stage
// without workers (queues nil) stages nothing.
type stage struct {
	f     *File       // the store the cache stages for
	mu    *sync.Mutex // the store's lock, &f.mu
	cache map[Addr]*entry
	acct  *mem.Accountant // the cache budget in words
	pool  *blockPool      // recycled payload buffers
	ov    OverlapStats
	werr  error // first deferred write error, surfaced at Sync/Close

	queues []*ioQueue // one per drive; nil when no workers run
	wg     sync.WaitGroup
	xfer   inflight // transfers executing right now
}

// entry is one track in a staging cache: a staged (or in-flight) fill,
// a private fill one ReadOp waits on, or a write-behind payload on its
// way to the drive. data is immutable once done; all other fields are
// guarded by the store's lock. data buffers come from the stage's pool,
// so an entry is only retired to the pool once it is done, unreachable
// from the cache map and no reader holds a reference (refs counts
// ReadOp waiters between their registration and their delivery copy).
type entry struct {
	data  []uint64
	err   error
	write bool
	done  bool          // transfer completed
	gone  bool          // no longer reachable from the cache map
	refs  int           // ReadOp waiters still aliasing data
	ready chan struct{} // closed when done
	words int64         // budget words held (0 when none)
}

// task is one queued transfer of entry e at a, or, with e nil, a
// completion fence that signals wg and moves no bytes.
type task struct {
	a  Addr
	e  *entry
	wg *sync.WaitGroup
}

// ioQueue is one worker's task queue: a growable ring, so steady-state
// pushes and pops recycle the same backing array instead of appending
// a fresh slice element per transfer.
type ioQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []task
	head int
	n    int
	stop bool
}

// push appends a task and wakes the worker.
func (q *ioQueue) push(t task) {
	q.mu.Lock()
	if q.n == len(q.buf) {
		nb := make([]task, max(16, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			nb[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = nb, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = t
	q.n++
	q.cond.Signal()
	q.mu.Unlock()
}

// pop removes the oldest task. Caller holds q.mu and has checked n > 0.
func (q *ioQueue) pop() task {
	t := q.buf[q.head]
	q.buf[q.head] = task{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return t
}

// newStage returns f's staging cache without workers, which holds
// nothing (a nil map and no pool). budget bounds it in words: 0 picks
// 4·D entries, negative means unbounded.
func newStage(f *File, budget int64) *stage {
	if budget == 0 {
		budget = int64(4*f.cfg.D) * f.slotWords()
	}
	return &stage{
		f:    f,
		mu:   &f.mu,
		acct: mem.NewAccountant(max(budget, 0)), // mem: non-positive limit = unlimited
	}
}

// start runs one worker per drive, each with a scratch slot.
func (s *stage) start() {
	cfg := s.f.cfg
	s.cache = make(map[Addr]*entry)
	s.pool = newBlockPool(cfg.B, 8*cfg.D)
	s.queues = make([]*ioQueue, cfg.D)
	s.wg.Add(cfg.D)
	for i := range s.queues {
		q := &ioQueue{}
		q.cond = sync.NewCond(&q.mu)
		s.queues[i] = q
		go s.worker(q, make([]byte, s.f.slotB))
	}
}

// worker serves one drive's queue in FIFO order. Once stopped it still
// empties the queue: a queued write lands, a queued fill fails, so no
// reader waits forever and every entry returns its budget.
func (s *stage) worker(q *ioQueue, buf []byte) {
	defer s.wg.Done()
	for {
		q.mu.Lock()
		for q.n == 0 && !q.stop {
			q.cond.Wait()
		}
		if q.n == 0 {
			q.mu.Unlock()
			return
		}
		t, stopped := q.pop(), q.stop
		q.mu.Unlock()
		switch {
		case t.e == nil:
			t.wg.Done()
		case stopped && !t.e.write:
			s.mu.Lock()
			s.complete(t.a, t.e, nil, fmt.Errorf("disk: store closed with fill of track %d on drive %d queued", t.a.Track, t.a.Disk))
			s.mu.Unlock()
		default:
			s.run(t, buf)
		}
	}
}

// run moves one entry's bytes and completes it.
func (s *stage) run(t task, buf []byte) {
	s.xfer.begin()
	defer s.xfer.end()
	data := t.e.data
	if !t.e.write {
		data = s.pool.get()
	}
	err := s.f.move(buf, t.a, t.e.write, data)
	s.mu.Lock()
	s.complete(t.a, t.e, data, err)
	s.mu.Unlock()
}

// complete marks e done with its payload and error, under the lock. A
// landed write-behind leaves the map — from here on a reader goes to
// the drive, which holds the same bytes — and so does a failed fill,
// which must not be served: the next read misses and takes the error,
// if it is still real, from below.
func (s *stage) complete(a Addr, e *entry, data []uint64, err error) {
	e.data, e.err, e.done = data, err, true
	close(e.ready)
	if e.write {
		s.f.markWritten(a.Disk)
		if err != nil && s.werr == nil {
			s.werr = fmt.Errorf("disk: deferred write of track %d on drive %d failed: %w", a.Track, a.Disk, err)
		}
	}
	if e.write || err != nil {
		s.unlink(a, e)
	}
	s.retire(e)
}

// enqueue queues e's transfer on drive a.Disk's worker. Called under
// the lock, which keeps each drive's queue order its accounting order.
func (s *stage) enqueue(a Addr, e *entry) { s.queues[a.Disk].push(task{a: a, e: e}) }

// drain blocks until every transfer queued so far has completed.
// Called without the lock.
func (s *stage) drain() {
	if len(s.queues) == 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(s.queues))
	for _, q := range s.queues {
		q.push(task{wg: &wg})
	}
	wg.Wait()
}

// stop ends the workers once their queues are empty (see worker).
// Called without the lock; the store must not be in use.
func (s *stage) stop() {
	for _, q := range s.queues {
		q.mu.Lock()
		q.stop = true
		q.cond.Signal()
		q.mu.Unlock()
	}
	s.wg.Wait()
	s.queues = nil
}

// retire releases e's budget and recycles its payload buffer once it
// is done, unreachable from the cache map, and unreferenced by any
// reader. Called under the lock; idempotent.
func (s *stage) retire(e *entry) {
	if !e.done || !e.gone || e.refs > 0 {
		return
	}
	if e.words > 0 {
		s.acct.Release(e.words)
		e.words = 0
	}
	if e.data != nil {
		s.pool.put(e.data)
		e.data = nil
	}
}

// unlink takes e, the entry for a, out of the cache map. Called under
// the lock.
func (s *stage) unlink(a Addr, e *entry) {
	if !e.gone {
		if s.cache[a] == e {
			delete(s.cache, a)
		}
		e.gone = true
	}
}

// drop unlinks and retires the entry for a, if any: its track was
// written, freed or rolled back. Called under the lock.
func (s *stage) drop(a Addr) {
	if e, ok := s.cache[a]; ok {
		s.unlink(a, e)
		s.retire(e)
	}
}

// dropAll empties the cache. Called under the lock.
func (s *stage) dropAll() {
	for a := range s.cache {
		s.drop(a)
	}
}

// prefetch stages the given blocks: one budget-charged entry and one
// queued fill each. Purely physical — no model accounting — and a
// block that cannot be admitted (budget exhausted, address out of
// range, blank by metadata or already cached) is silently skipped: the
// later read simply misses. A no-op without workers.
func (s *stage) prefetch(addrs []Addr) {
	if s.queues == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range addrs {
		if a.Disk < 0 || a.Disk >= len(s.queues) || a.Track < 0 {
			continue
		}
		if _, ok := s.cache[a]; ok || s.f.blank(a.Disk, a.Track) {
			continue
		}
		if s.acct.Grab(s.f.slotWords()) != nil {
			break
		}
		e := &entry{words: s.f.slotWords(), ready: make(chan struct{})}
		s.cache[a] = e
		s.enqueue(a, e)
		s.ov.PrefetchIssued++
	}
}

// pending is one ReadOp request waiting on an entry.
type pending struct {
	i int
	e *entry
}

// hit is a ReadOp's first phase for request i, under the lock, after
// the store charged it: a completed entry (a staged fill or a
// write-behind payload) is copied now — a staged fill is consumed, for
// a staged group streams through once — and an in-flight fill is
// registered in waits. It reports whether the cache held the track; a
// miss is counted, and the store serves it.
func (s *stage) hit(i int, r ReadReq, waits []pending) ([]pending, bool) {
	a := Addr{Disk: r.Disk, Track: r.Track}
	e, ok := s.cache[a]
	if !ok {
		s.ov.PrefetchMisses++
		return waits, false
	}
	s.ov.PrefetchHits++
	if !e.done && !e.write {
		e.refs++
		return append(waits, pending{i, e}), true
	}
	// Read-your-write: a write-behind entry's payload is the cached
	// data, whether or not the physical write landed yet.
	copy(r.Dst, e.data)
	if !e.write {
		s.unlink(a, e)
		s.retire(e)
	}
	return waits, true
}

// wait is a ReadOp's second phase, without the lock: it blocks until
// every registered entry is done and returns how long that stalled.
func wait(waits []pending) (stall time.Duration) {
	for _, w := range waits {
		select {
		case <-w.e.ready:
		default:
			t0 := time.Now()
			<-w.e.ready
			stall += time.Since(t0)
		}
	}
	return stall
}

// deliver is a ReadOp's third phase, under the lock: copy each waited
// entry into its request and return the first request whose entry
// failed (len(reqs), nil when none did), then release the reference
// taken in phase 1, consume the entry, and retire it if nobody needs it
// — the refcount is what keeps a pooled payload buffer alive between a
// concurrent reader's registration and its copy.
func (s *stage) deliver(reqs []ReadReq, waits []pending, stall time.Duration) (failIdx int, failErr error) {
	failIdx = len(reqs)
	for _, w := range waits {
		if w.e.err == nil {
			copy(reqs[w.i].Dst, w.e.data)
		} else if w.i < failIdx {
			failIdx, failErr = w.i, w.e.err
		}
		w.e.refs--
		s.unlink(Addr{Disk: reqs[w.i].Disk, Track: reqs[w.i].Track}, w.e)
		s.retire(w.e)
	}
	s.ov.StallNanos += stall.Nanoseconds()
	return failIdx, failErr
}

// overlap returns the cache's overlap counters with its transfer peak.
// Takes the lock.
func (s *stage) overlap() OverlapStats {
	s.mu.Lock()
	o := s.ov
	s.mu.Unlock()
	o.ConcurrentPeak = s.xfer.peak.Load()
	return o
}
