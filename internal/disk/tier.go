package disk

import (
	"fmt"
	"sync"
	"time"
)

// TierOptions configures one cache tier above a Store.
type TierOptions struct {
	// CacheWords bounds the tier's staging cache in words (payload
	// words; one track costs B). 0 picks a small default of 4·D
	// tracks; negative means unbounded.
	CacheWords int64
}

// inner is the Store a chain link is stacked on, embedded under this
// name so every method the link does not override reaches it by
// promotion.
type inner = Store

// Tier is a bounded intermediate store tier above any Store: a
// track-granular, mem.Accountant-charged staging cache in Buurlage et
// al.'s bulk-synchronous pseudo-streaming sense. Prefetch stages the
// next group's blocks into the tier while the current group computes,
// reads consume staged blocks, and writes pass through to the backend.
// The cache is the disk layer's one staging cache (stage, pool.go), the
// one File runs under latency; a tier's miss is one batched read of the
// backend, and a fill is a backend read on its drive's worker.
//
// No engine stacks a tier (DESIGN.md §17): no benchmark workload
// opened one, and over a real device, with no emulated latency, its fill
// workers never start. The type remains for the frozen benchmark module
// alone, whose disk.tier.* layer drive stacks one on a file store; it
// goes with ROADMAP item 1(d).
//
// The fill workers run exactly when the store below has emulated
// latency to hide — the file or mapped store's AccessLatency. At
// page-cache speed a staging copy costs more than the read it saves:
// Prefetch then forwards to the backend's own prefetcher (if any), and
// the tier is a pure accounting shim.
//
// The tier owns the model: all Stats — parallel I/O operation counts
// and the per-drive sequential/random access chains — are applied by
// the tier itself, synchronously at call time in request order,
// through the same account every flat store charges (model.go). The
// backend's Stats are a physical by-product (fills and forwarded
// traffic) and carry no model meaning under a tier; State() therefore
// composes the tier's Stats and access chains with the backend's
// allocator. The allocator itself is forwarded 1:1 (Alloc and Release go
// straight through, AdoptState hands the backend the whole state), so
// layout decisions are byte-identical to a flat store's; ExportTrack
// (the tier holds only clean copies) is the embedded backend's,
// promoted.
//
// Tier contents are cache, never durable state: every write goes
// through to the backend inside the WriteOp call, so the tier holds
// only clean copies of backend data. A crash loses nothing — resume
// re-opens the chain with an empty tier and re-fills on demand — and
// the commit journal's StoreState needs no tier fields beyond what a
// flat store records. Sync and durability are entirely the backend's.
//
// Error-path contract: a backend write failure surfaces at the next
// Sync or Close with accounting as if the write succeeded — the same
// documented deviation as the worker-backed File.
//
// All methods are safe for concurrent use, with File's contract:
// racing operations on the same track are ordered by whatever the
// race decides.
type Tier struct {
	inner
	below Prefetcher // the next prefetcher down the chain, nil when none
	cfg   Config

	mu  sync.Mutex // guards acc and st
	acc account    // the accounting half of the model; the allocator is the backend's
	st  *stage
}

// NewTier wraps a backend with one cache tier. The backend must be
// otherwise unused: all traffic has to flow through the tier, or its
// cache could serve stale data.
func NewTier(be Store, opt TierOptions) *Tier {
	cfg := be.Config()
	t := &Tier{
		inner: be,
		below: Find[Prefetcher](be),
		cfg:   cfg,
		acc:   newAccount(cfg.D),
	}
	t.st = newStage(&t.mu, cfg.D, int64(cfg.B), opt.CacheWords)
	if l := Find[interface{ latency() time.Duration }](be); l != nil && l.latency() > 0 {
		t.st.move = t.fill
		t.st.start(cfg, 0)
	}
	return t
}

// Inner returns the store the tier is stacked on.
func (t *Tier) Inner() Store { return t.inner }

// ReadOp performs one parallel read with the shared model's
// validation and accounting, applied by the tier itself in request
// order. Blocks staged in the tier cache are served (and
// consumed) from it; the rest are forwarded to the backend as one
// batched read straight into the caller's buffers.
func (t *Tier) ReadOp(reqs []ReadReq) error {
	if len(reqs) == 0 {
		return nil
	}
	if err := checkReads(t.cfg, reqs); err != nil {
		return err
	}

	prev := make([]int, len(reqs))
	t.mu.Lock()
	if len(t.st.cache) == 0 {
		// Fast path: nothing is staged, so every request misses and the
		// caller's batch forwards to the backend as-is — no staging
		// bookkeeping, no miss list to build. This is the steady state
		// whenever the fill workers are off (the tier as a pure
		// accounting shim), and what keeps the tier within a few percent
		// of the flat store there (TestTierNoRegression).
		for i, r := range reqs {
			prev[i] = t.acc.chargeRead(r.Disk, r.Track)
		}
		t.st.ov.PrefetchMisses += int64(len(reqs))
		t.mu.Unlock()

		failIdx, failErr := t.forward(reqs)
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.acc.settleRead(reqs, prev, failIdx, failErr)
	}

	// Phase 1, under the lock: apply all model accounting in request
	// order (drives are pairwise distinct, so the rollback below is
	// exact), serve completed staged entries immediately, register on
	// in-flight fills, and collect the misses.
	var waits []pending
	var misses []ReadReq
	var missIdx []int
	for i, r := range reqs {
		prev[i] = t.acc.chargeRead(r.Disk, r.Track)
		var hit bool
		if waits, hit = t.st.hit(i, r, waits); hit {
			continue
		}
		misses = append(misses, r)
		missIdx = append(missIdx, i)
	}
	t.mu.Unlock()

	// Phase 2, no lock: forward the misses to the backend in one
	// parallel op (their Dst buffers are the caller's — no staging
	// copy), and wait out in-flight fills.
	failIdx, failErr := len(reqs), error(nil)
	if at, err := t.forward(misses); err != nil {
		failIdx, failErr = missIdx[at], err
	}
	stall := wait(waits)

	// Phase 3, under the lock again: deliver waited fills and either
	// commit the op counters or roll back from the first failure.
	t.mu.Lock()
	defer t.mu.Unlock()
	failIdx, failErr = t.st.deliver(reqs, waits, stall, failIdx, failErr)
	return t.acc.settleRead(reqs, prev, failIdx, failErr)
}

// forward reads the given requests from the backend in one parallel
// op, straight into the caller's buffers. The batched error does not
// say which request failed; on failure the requests are replayed one by
// one to localize it, so the rollback in settleRead matches what a flat
// store would have left. Returns len(reqs), nil on success. Called
// without t.mu held.
func (t *Tier) forward(reqs []ReadReq) (failAt int, err error) {
	if err = t.inner.ReadOp(reqs); err == nil {
		return len(reqs), nil
	}
	for j := range reqs {
		if e2 := t.inner.ReadOp(reqs[j : j+1]); e2 != nil {
			return j, e2
		}
	}
	return 0, err
}

// WriteOp performs one parallel write, accounted by the tier and
// written through to the backend inside the call: the tier never
// holds dirty data (that is the cache-not-state crash argument —
// see the type comment). Stale staged copies of the written tracks
// are invalidated first. A backend write error is deferred to the
// next Sync or Close, with accounting as if the write succeeded
// (File's documented deviation).
func (t *Tier) WriteOp(reqs []WriteReq) error {
	if len(reqs) == 0 {
		return nil
	}
	if err := checkWrites(t.cfg, reqs); err != nil {
		return err
	}
	t.mu.Lock()
	for _, r := range reqs {
		t.acc.chargeWrite(r.Disk, r.Track)
		t.st.drop(Addr{Disk: r.Disk, Track: r.Track})
	}
	t.acc.chargeWriteOp(len(reqs))
	t.mu.Unlock()
	if err := t.inner.WriteOp(reqs); err != nil {
		t.mu.Lock()
		if t.st.werr == nil {
			t.st.werr = fmt.Errorf("disk: tier write-through failed: %w", err)
		}
		t.mu.Unlock()
	}
	return nil
}

// Alloc forwards to the backend (the single authoritative allocator
// of the chain) and invalidates any staged copy of the recycled
// track.
func (t *Tier) Alloc(d int) int {
	tr := t.inner.Alloc(d)
	t.mu.Lock()
	t.st.drop(Addr{Disk: d, Track: tr})
	t.mu.Unlock()
	return tr
}

// Release forwards to the backend and, on success, invalidates any
// staged copy of the freed track.
func (t *Tier) Release(d, tr int) error {
	if err := t.inner.Release(d, tr); err != nil {
		return err
	}
	t.mu.Lock()
	t.st.drop(Addr{Disk: d, Track: tr})
	t.mu.Unlock()
	return nil
}

// Stats returns a copy of the tier's model statistics — the
// authoritative accounting of the chain.
func (t *Tier) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.acc.snapshot()
}

// ResetStats zeroes the tier's model statistics and forwards to the
// backend so its physical by-product counters stay aligned with the
// measured window. Overlap counters are untouched.
func (t *Tier) ResetStats() {
	t.mu.Lock()
	t.acc.reset()
	t.mu.Unlock()
	t.inner.ResetStats()
}

// State composes the chain's checkpoint: the tier's model statistics
// and access chains over the backend's allocator. It is exactly what
// a flat store's State would hold for the same logical history, so
// journals written by tiered and flat runs are interchangeable.
func (t *Tier) State() StoreState {
	s := t.inner.State()
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Stats, s.Last = t.acc.snapshot(), t.acc.chain()
	return s
}

// AdoptState adopts a checkpoint into the chain: the full state
// (allocator included) into the backend, whose model validates it;
// then model statistics and access chains into the tier, and an
// emptied cache — adopted metadata must describe a tier with nothing
// staged. A superstep replay's Rollback comes through here too: staged
// copies of rolled-back tracks, fills still in flight included, must
// not survive it, and a wholesale drop is exact for a cache whose every
// entry is clean.
func (t *Tier) AdoptState(s StoreState) error {
	if err := t.inner.AdoptState(s); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.st.dropAll()
	t.acc.adopt(s)
	return nil
}

// Sync surfaces any deferred write-through error and makes the
// backend durable. The tier itself holds only clean data, so there is
// nothing of its own to flush.
func (t *Tier) Sync() error {
	t.mu.Lock()
	werr := t.st.werr
	t.mu.Unlock()
	if werr != nil {
		return werr
	}
	return t.inner.Sync()
}

// Close stops the fill workers, failing any still-queued fills, and
// closes the backend. A deferred write-through error surfaces here if
// no Sync caught it first.
func (t *Tier) Close() error {
	t.st.stop()
	t.mu.Lock()
	t.st.dropAll() // staged blocks die with the tier; return their budget
	werr := t.st.werr
	t.mu.Unlock()
	err := t.inner.Close()
	if werr != nil {
		return werr
	}
	return err
}

// Overlap returns the chain's wall-clock overlap counters: the tier's
// own (fills issued, staged hits and misses, stalls, fill
// concurrency) folded with the backend's.
func (t *Tier) Overlap() OverlapStats {
	o := t.st.overlap()
	o.Add(t.inner.Overlap())
	return o
}

// ImportTrack invalidates any staged copy and forwards to the
// backend.
func (t *Tier) ImportTrack(d, tr int, payload []uint64) error {
	t.mu.Lock()
	t.st.drop(Addr{Disk: d, Track: tr})
	t.mu.Unlock()
	return t.inner.ImportTrack(d, tr, payload)
}

// Prefetch stages the given blocks into the tier cache on the fill
// workers, so a later ReadOp consumes them at tier speed (see
// stage.prefetch). With no fill workers the hint is forwarded to the
// backend's own prefetcher unchanged; with fill workers the staging
// happens here alone (one staging layer per chain link, not two for
// the same bytes).
func (t *Tier) Prefetch(addrs []Addr) {
	if t.st.queues == nil && t.below != nil {
		t.below.Prefetch(addrs)
		return
	}
	t.st.prefetch(addrs)
}

// fill is a fill worker's transfer: one backend read per staged
// block, concurrently with the engine and with other drives' fills (the
// backend is safe for concurrent use, and fill traffic carries no
// model accounting the tier cares about).
func (t *Tier) fill(_ []byte, a Addr, _ bool, data []uint64) error {
	return t.inner.ReadOp([]ReadReq{{Disk: a.Disk, Track: a.Track, Dst: data}})
}
