// Package mem provides an internal-memory accountant for the EM-BSP
// simulation. The model grants each real processor M words of internal
// memory; the simulation engine must hold at most Θ(k·µ) words at any
// time (contexts and messages of the current group plus staging
// buffers). The accountant makes that claim checkable: every buffer
// the engine materializes is grabbed against the budget, and exceeding
// it is an error rather than a silent fidelity leak.
//
// The job daemon reuses the same accountant one level up: per-tenant
// quotas and the daemon-wide run budget are Accountants whose Grab
// failure becomes an admission refusal (HTTP 429), and whose blocking
// ReserveCtx is how an admitted job waits for running jobs to release
// capacity — unblocking immediately if the waiting job is cancelled.
package mem

import (
	"context"
	"fmt"
	"sync"
)

// Accountant tracks internal memory usage in words against a limit.
// It is safe for concurrent use.
type Accountant struct {
	mu    sync.Mutex
	limit int64
	used  int64
	high  int64
	// waiters is the FIFO queue of blocked ReserveCtx calls. Capacity
	// freed by Release/Rewind is handed to the oldest waiter first
	// (its reservation is made on its behalf before its channel is
	// closed), so a large reservation cannot be starved by a stream of
	// small ones racing it to the lock.
	waiters []*waiter
}

// waiter is one blocked ReserveCtx: its reservation size and the
// channel closed when the reservation has been granted on its behalf.
type waiter struct {
	n       int64
	granted bool
	ready   chan struct{}
}

// NewAccountant returns an accountant with the given limit in words.
// A non-positive limit disables enforcement (unlimited memory); usage
// is still tracked.
func NewAccountant(limit int64) *Accountant {
	return &Accountant{limit: limit}
}

// Limit returns the configured limit (0 means unlimited).
func (a *Accountant) Limit() int64 { return a.limit }

// Used returns the currently held words.
func (a *Accountant) Used() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// High returns the high-water mark of held words.
func (a *Accountant) High() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.high
}

// Grab reserves n words, failing if the limit would be exceeded.
func (a *Accountant) Grab(n int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.grabLocked(n)
}

func (a *Accountant) grabLocked(n int64) error {
	if n < 0 {
		return fmt.Errorf("mem: negative grab %d", n)
	}
	if a.limit > 0 && a.used+n > a.limit {
		return fmt.Errorf("mem: internal memory exceeded: used %d + grab %d > limit %d words", a.used, n, a.limit)
	}
	a.used += n
	if a.used > a.high {
		a.high = a.used
	}
	return nil
}

// ReserveCtx reserves n words like Grab, but when the budget is
// currently exhausted it blocks until enough capacity is released —
// or until ctx is cancelled, in which case it returns ctx's error with
// nothing reserved. A reservation that could never fit (n exceeds the
// limit itself) fails immediately rather than stalling forever.
//
// Blocked reservations are served strictly oldest-first: freed
// capacity is handed to the head of the queue (even while younger,
// smaller reservations are waiting behind it), so a large reservation
// is guaranteed to proceed once enough capacity has drained, instead
// of losing every re-check race to smaller ones.
func (a *Accountant) ReserveCtx(ctx context.Context, n int64) error {
	if n < 0 {
		return fmt.Errorf("mem: negative reserve %d", n)
	}
	a.mu.Lock()
	if a.limit > 0 && n > a.limit {
		a.mu.Unlock()
		return fmt.Errorf("mem: reserve %d words can never fit the limit of %d", n, a.limit)
	}
	// Joining behind existing waiters even when n would fit right now
	// keeps the handoff fair: capacity freed for the queue head must
	// not be snatched by a latecomer.
	if len(a.waiters) == 0 && (a.limit <= 0 || a.used+n <= a.limit) {
		a.grabLocked(n) //nolint:errcheck // fits by the checks above
		a.mu.Unlock()
		return nil
	}
	w := &waiter{n: n, ready: make(chan struct{})}
	a.waiters = append(a.waiters, w)
	a.mu.Unlock()
	select {
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: the reservation was
			// already made on our behalf, so hand it straight back.
			a.used -= w.n
			a.wakeLocked()
			a.mu.Unlock()
			return ctx.Err()
		}
		for i, q := range a.waiters {
			if q == w {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				break
			}
		}
		// Removing a waiter can unblock the ones behind it.
		a.wakeLocked()
		a.mu.Unlock()
		return ctx.Err()
	case <-w.ready:
		return nil
	}
}

// Release returns n words to the budget, waking any ReserveCtx waiters.
// Releasing more than is held panics: that is an accounting bug, not a
// runtime condition.
func (a *Accountant) Release(n int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n < 0 || n > a.used {
		panic(fmt.Sprintf("mem: release %d with %d held", n, a.used))
	}
	a.used -= n
	a.wakeLocked()
}

// AdoptHigh raises the high-water mark to at least h. The EM engines
// journal the mark at every barrier commit and adopt it on resume, so
// a resumed run reports the same MemHigh as an uninterrupted one.
func (a *Accountant) AdoptHigh(h int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if h > a.high {
		a.high = h
	}
}

// Mark returns the current usage, for a later Rewind.
func (a *Accountant) Mark() int64 { return a.Used() }

// Rewind resets usage to a previous Mark, waking any ReserveCtx
// waiters. The EM engines use it when a fault aborts a superstep
// attempt partway: buffers grabbed by the aborted attempt are dropped
// wholesale rather than released one by one along the unwound error
// path, and words held at the mark that the attempt released — the
// contexts a barrier kept in memory, which its first round consumed —
// are held again. A mark was a usage the limit allowed, so it still is.
func (a *Accountant) Rewind(used int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if used < 0 || used > a.high {
		panic(fmt.Sprintf("mem: rewind to %d, above the high-water mark %d", used, a.high))
	}
	a.used = used
	a.wakeLocked()
}

// waiterCount reports the queued ReserveCtx waiters (test hook).
func (a *Accountant) waiterCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiters)
}

// wakeLocked grants reservations to queued ReserveCtx waiters,
// oldest first, for as long as the head fits the free capacity. The
// reservation is made here, on the waiter's behalf, before its
// channel is closed — a FIFO handoff, not a broadcast re-race.
func (a *Accountant) wakeLocked() {
	for len(a.waiters) > 0 {
		w := a.waiters[0]
		if a.limit > 0 && a.used+w.n > a.limit {
			return
		}
		a.grabLocked(w.n) //nolint:errcheck // fits by the check above
		w.granted = true
		close(w.ready)
		a.waiters = a.waiters[1:]
	}
}
