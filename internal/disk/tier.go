package disk

import (
	"fmt"
	"sync"
	"time"

	"embsp/internal/mem"
	"embsp/internal/obs"
)

// TierOptions configures one cache tier above a Store.
type TierOptions struct {
	// CacheWords bounds the tier's staging cache in words (payload
	// words; one track costs B). 0 picks a small default of 4·D
	// tracks; negative means unbounded.
	CacheWords int64
	// AccessLatency emulates the access time of the tier's own medium:
	// every block served from the tier cache sleeps this long, the way
	// a scratchpad or NVMe device one level above the backend would.
	// Zero (the default) emulates nothing.
	AccessLatency time.Duration
	// FillWorkers is the number of background fill goroutines serving
	// Prefetch. 0 disables tier-level fills entirely: Prefetch then
	// forwards to the backend's own prefetcher (if any) and the tier
	// degrades to a pure accounting shim — the right choice when the
	// backend is page-cache fast, where staging a copy costs more than
	// the read it saves. Values above D are clamped to D.
	FillWorkers int
	// Tracer, when non-nil, records every fill as an "io"-category
	// "tier-fill" span labelled with TracePID and 1+drive.
	Tracer *obs.Tracer
	// TracePID labels the tier's spans with the owning processor id.
	TracePID int
	// Level labels the tier's statistics (0 = outermost).
	Level int
}

// TierStats is the wall-clock observability of one tier: cache traffic
// and capacity. Like OverlapStats these are outside the model
// contract — bitwise identity between tiered and flat runs is over
// everything except these counters.
type TierStats struct {
	// Level is the tier's position in the chain (0 = outermost).
	Level int `json:"level"`
	// CapWords is the configured cache capacity (0 = unbounded).
	CapWords int64 `json:"cap_words"`
	// Hits counts logical block reads served from the tier cache
	// (including reads that waited on an in-flight fill); Misses those
	// forwarded to the backend.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Fills counts blocks staged into the tier by Prefetch.
	Fills int64 `json:"fills"`
	// Drains counts blocks written through to the backend.
	Drains int64 `json:"drains"`
	// HighWords is the cache budget's high-water mark.
	HighWords int64 `json:"high_words"`
}

// tentry is one staged track in a tier's cache: a completed or
// in-flight prefetch fill. data is immutable once done; all other
// fields are guarded by Tier.mu. Entries are consumed on first read
// (pseudo-streaming: a staged group flows through once), dropped on
// any logical mutation of their track, and release their budget when
// done, unreachable and unreferenced.
type tentry struct {
	data  []uint64
	err   error
	done  bool
	gone  bool // no longer reachable from the cache map
	refs  int  // ReadOp waiters still aliasing data
	ready chan struct{}
	words int64
}

// inner is the Store a chain link is stacked on, embedded under this
// name so every method the link does not override reaches it by
// promotion.
type inner = Store

// Tier is a bounded intermediate store tier above any Store: a
// track-granular, mem.Accountant-charged staging cache that streams
// group-sized working sets between the engine and a slower backend.
// It is the generalized memory hierarchy of ROADMAP item 5 (scratch →
// M → D disks, in the bulk-synchronous pseudo-streaming sense of
// Buurlage et al.): Prefetch stages the next group's blocks into the
// tier while the current group computes, reads consume staged blocks
// at tier speed, and writes pass through to the backend, whose own
// write-behind machinery drains them while the next group fills.
//
// The tier owns the model: all Stats — parallel I/O operation counts
// and the per-drive sequential/random access chains — are applied by
// the tier itself, synchronously at call time in request order,
// through the same account every flat store charges (model.go). The
// backend's Stats are a physical by-product (fills and forwarded
// traffic) and carry no model meaning under a tier; State() therefore
// composes the tier's Stats and access chains with the backend's
// allocator. The allocator itself is forwarded 1:1 (Alloc, Release,
// AllocSnapshot/Restore go straight through), so layout
// decisions are byte-identical to a flat store's; with TakeDirty (the
// backend sees every logical mutation) and ExportTrack (the tier holds
// only clean copies), AllocSnapshot is the embedded backend's, promoted.
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
	lat   time.Duration
	tr    *obs.Tracer
	tpid  int
	level int
	nfill int

	mu     sync.Mutex // guards acc, cache, counters, werr
	acc    account    // the accounting half of the model; the allocator is the backend's
	cache  map[Addr]*tentry
	acct   *mem.Accountant
	ov     OverlapStats
	hits   int64
	misses int64
	fills  int64
	drains int64
	werr   error // first deferred write-through error, surfaced at Sync/Close

	fmu   sync.Mutex // guards the fill queue; acquired inside mu
	fcond *sync.Cond
	fq    []fillReq
	fstop bool

	wg   sync.WaitGroup
	xfer inflight // fills executing right now
}

type fillReq struct {
	a Addr
	e *tentry
}

// NewTier wraps a backend with one cache tier. The backend must be
// otherwise unused: all traffic has to flow through the tier, or its
// cache could serve stale data.
func NewTier(be Store, opt TierOptions) *Tier {
	cfg := be.Config()
	budget := opt.CacheWords
	if budget == 0 {
		budget = int64(4*cfg.D) * int64(cfg.B)
	}
	if budget < 0 {
		budget = 0 // mem: non-positive limit = unlimited
	}
	t := &Tier{
		inner: be,
		cfg:   cfg,
		lat:   opt.AccessLatency,
		tr:    opt.Tracer,
		tpid:  opt.TracePID,
		level: opt.Level,
		acc:   newAccount(cfg.D),
		cache: make(map[Addr]*tentry),
		acct:  mem.NewAccountant(budget),
	}
	if opt.FillWorkers > 0 {
		t.nfill = min(opt.FillWorkers, cfg.D)
		t.fcond = sync.NewCond(&t.fmu)
		t.wg.Add(t.nfill)
		for i := 0; i < t.nfill; i++ {
			go t.fillWorker()
		}
	}
	t.below = Find[Prefetcher](be)
	return t
}

// Inner returns the store the tier is stacked on.
func (t *Tier) Inner() Store { return t.inner }

// retire releases e's budget once it is completed, unreachable from
// the cache map and unreferenced. Called under t.mu; idempotent.
func (t *Tier) retire(e *tentry) {
	if !e.done || !e.gone || e.refs > 0 {
		return
	}
	if e.words > 0 {
		t.acct.Release(e.words)
		e.words = 0
	}
	e.data = nil
}

// dropEntry unlinks the cache entry for a, if any (its track was
// logically mutated, freed or rolled back). Called under t.mu.
func (t *Tier) dropEntry(a Addr) {
	if e, ok := t.cache[a]; ok {
		delete(t.cache, a)
		e.gone = true
		t.retire(e)
	}
}

// dropAll empties the tier cache. Called under t.mu.
func (t *Tier) dropAll() {
	for a := range t.cache {
		t.dropEntry(a)
	}
}

// delayHits emulates the tier medium's access time for n blocks
// served from the cache, sequentially as a single device would pay
// them. Called without t.mu held.
func (t *Tier) delayHits(n int) {
	if t.lat > 0 && n > 0 {
		time.Sleep(t.lat * time.Duration(n))
	}
}

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
	if len(t.cache) == 0 {
		// Fast path: nothing is staged, so every request misses and the
		// caller's batch forwards to the backend as-is — no staging
		// bookkeeping, no miss list to build. This is the steady state
		// whenever the fill workers are off (the tier as a pure
		// accounting shim), and what keeps the tier within a few percent
		// of the flat store there (TestTierNoRegression).
		for i, r := range reqs {
			prev[i] = t.acc.chargeRead(r.Disk, r.Track)
		}
		t.misses += int64(len(reqs))
		t.ov.PrefetchMisses += int64(len(reqs))
		t.mu.Unlock()

		failIdx, failErr := t.forward(reqs)
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.settleRead(reqs, prev, failIdx, failErr)
	}

	// Phase 1, under the lock: apply all model accounting in request
	// order (drives are pairwise distinct, so the rollback below is
	// exact), serve completed staged entries immediately, register on
	// in-flight fills, and collect the misses.
	type pending struct {
		i int
		e *tentry
	}
	var waits []pending
	var misses []ReadReq
	var missIdx []int
	served := 0
	for i, r := range reqs {
		prev[i] = t.acc.chargeRead(r.Disk, r.Track)
		a := Addr{Disk: r.Disk, Track: r.Track}
		if e, ok := t.cache[a]; ok {
			t.hits++
			t.ov.PrefetchHits++
			if e.done {
				// Consume the staged block: copy and unlink (a staged
				// group streams through the tier once).
				copy(r.Dst, e.data)
				served++
				t.dropEntry(a)
				continue
			}
			e.refs++
			waits = append(waits, pending{i, e})
			continue
		}
		t.misses++
		t.ov.PrefetchMisses++
		misses = append(misses, r)
		missIdx = append(missIdx, i)
	}
	t.mu.Unlock()

	// Phase 2, no lock: pay the tier's emulated access time for the
	// blocks it served, forward the misses to the backend in one
	// parallel op (their Dst buffers are the caller's — no staging
	// copy), and wait out in-flight fills.
	t.delayHits(served)
	failIdx, failErr := len(reqs), error(nil)
	if at, err := t.forward(misses); err != nil {
		failIdx, failErr = missIdx[at], err
	}
	var stall time.Duration
	nwaited := 0
	for _, w := range waits {
		select {
		case <-w.e.ready:
		default:
			t0 := time.Now()
			<-w.e.ready
			stall += time.Since(t0)
		}
		nwaited++
	}
	t.delayHits(nwaited)

	// Phase 3, under the lock again: deliver waited fills and either
	// commit the op counters or roll back from the first failure.
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range waits {
		if w.e.err != nil {
			if w.i < failIdx {
				failIdx, failErr = w.i, w.e.err
			}
		} else {
			copy(reqs[w.i].Dst, w.e.data)
		}
		w.e.refs--
		if !w.e.gone {
			a := Addr{Disk: reqs[w.i].Disk, Track: reqs[w.i].Track}
			if t.cache[a] == w.e {
				delete(t.cache, a)
			}
			w.e.gone = true
		}
		t.retire(w.e)
	}
	t.ov.StallNanos += stall.Nanoseconds()
	return t.settleRead(reqs, prev, failIdx, failErr)
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

// settleRead ends a ReadOp whose blocks were all charged up front:
// commit the operation, or — from the first failing request on — take
// the charges back, leaving what a flat store would have (requests
// before the failure accounted, the rest untouched). Called under t.mu.
func (t *Tier) settleRead(reqs []ReadReq, prev []int, failIdx int, failErr error) error {
	if failErr != nil {
		for i := failIdx; i < len(reqs); i++ {
			t.acc.refundRead(reqs[i].Disk, prev[i])
		}
		return failErr
	}
	t.acc.chargeReadOp(len(reqs))
	return nil
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
		t.dropEntry(Addr{Disk: r.Disk, Track: r.Track})
	}
	t.acc.chargeWriteOp(len(reqs))
	t.drains += int64(len(reqs))
	t.mu.Unlock()
	if err := t.inner.WriteOp(reqs); err != nil {
		t.mu.Lock()
		if t.werr == nil {
			t.werr = fmt.Errorf("disk: tier write-through failed: %w", err)
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
	t.dropEntry(Addr{Disk: d, Track: tr})
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
	t.dropEntry(Addr{Disk: d, Track: tr})
	t.mu.Unlock()
	return nil
}

// AllocRestore rolls the backend's allocator back and empties the
// tier cache: staged copies of rolled-back tracks (including fills
// still in flight) must not survive the rollback, and a wholesale
// drop is exact for a cache whose every entry is clean.
func (t *Tier) AllocRestore(m AllocMark) {
	t.inner.AllocRestore(m)
	t.mu.Lock()
	t.dropAll()
	t.mu.Unlock()
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
// measured window. Overlap and tier counters are untouched.
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
// staged.
func (t *Tier) AdoptState(s StoreState) error {
	if err := t.inner.AdoptState(s); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropAll()
	t.acc.adopt(s)
	return nil
}

// Sync surfaces any deferred write-through error and makes the
// backend durable. The tier itself holds only clean data, so there is
// nothing of its own to flush.
func (t *Tier) Sync() error {
	t.mu.Lock()
	werr := t.werr
	t.mu.Unlock()
	if werr != nil {
		return werr
	}
	return t.inner.Sync()
}

// Close stops the fill workers, fails any still-queued fills, and
// closes the backend. A deferred write-through error surfaces here if
// no Sync caught it first.
func (t *Tier) Close() error {
	if t.nfill > 0 {
		t.fmu.Lock()
		t.fstop = true
		t.fcond.Broadcast()
		t.fmu.Unlock()
		t.wg.Wait()
		t.nfill = 0
		// Fail leftover queued fills so no reader waits forever and
		// their budget is returned.
		t.fmu.Lock()
		left := t.fq
		t.fq = nil
		t.fmu.Unlock()
		t.mu.Lock()
		for _, fr := range left {
			fr.e.err = fmt.Errorf("disk: tier closed with fill of track %d on drive %d queued", fr.a.Track, fr.a.Disk)
			fr.e.done = true
			close(fr.e.ready)
			t.dropEntry(fr.a)
		}
		t.mu.Unlock()
	}
	t.mu.Lock()
	t.dropAll() // staged blocks die with the tier; return their budget
	werr := t.werr
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
	t.mu.Lock()
	o := t.ov
	t.mu.Unlock()
	o.ConcurrentPeak = t.xfer.peak.Load()
	o.Add(t.inner.Overlap())
	return o
}

// TierStats returns the tier's cache-traffic counters.
func (t *Tier) TierStats() TierStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TierStats{
		Level:     t.level,
		CapWords:  t.acct.Limit(),
		Hits:      t.hits,
		Misses:    t.misses,
		Fills:     t.fills,
		Drains:    t.drains,
		HighWords: t.acct.High(),
	}
}

// ImportTrack invalidates any staged copy and forwards to the
// backend.
func (t *Tier) ImportTrack(d, tr int, payload []uint64) error {
	t.mu.Lock()
	t.dropEntry(Addr{Disk: d, Track: tr})
	t.mu.Unlock()
	return t.inner.ImportTrack(d, tr, payload)
}

// Prefetch stages the given blocks into the tier cache on the fill
// workers, so a later ReadOp consumes them at tier speed. Purely
// physical: no model accounting, and a fill that cannot be admitted
// (budget exhausted, address out of range, already staged) is
// silently skipped — the later read simply misses. With no fill
// workers the hint is forwarded to the backend's own prefetcher
// unchanged; with fill workers the staging happens here alone (one
// staging layer per chain link, not two for the same bytes).
func (t *Tier) Prefetch(addrs []Addr) {
	if t.nfill == 0 {
		if t.below != nil {
			t.below.Prefetch(addrs)
		}
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range addrs {
		if a.Disk < 0 || a.Disk >= t.cfg.D || a.Track < 0 {
			continue
		}
		if _, ok := t.cache[a]; ok {
			continue
		}
		words := int64(t.cfg.B)
		if t.acct.Grab(words) != nil {
			break
		}
		e := &tentry{words: words, ready: make(chan struct{})}
		t.cache[a] = e
		t.fills++
		t.ov.PrefetchIssued++
		t.fmu.Lock()
		t.fq = append(t.fq, fillReq{a: a, e: e})
		t.fcond.Signal()
		t.fmu.Unlock()
	}
}

// fillWorker serves queued fills: one backend read per staged block,
// concurrently with the engine and with other fills (the backend is
// safe for concurrent use, and fill traffic carries no model
// accounting the tier cares about).
func (t *Tier) fillWorker() {
	defer t.wg.Done()
	for {
		t.fmu.Lock()
		for len(t.fq) == 0 && !t.fstop {
			t.fcond.Wait()
		}
		if t.fstop {
			// Exit immediately; Close fails whatever is left queued.
			t.fmu.Unlock()
			return
		}
		fr := t.fq[0]
		t.fq = t.fq[1:]
		t.fmu.Unlock()
		t.runFill(fr)
	}
}

func (t *Tier) runFill(fr fillReq) {
	t.xfer.begin()
	defer t.xfer.end()
	sp := t.tr.Begin(obs.CatIO, "tier-fill", t.tpid, 1+fr.a.Disk)
	data := make([]uint64, t.cfg.B)
	err := t.inner.ReadOp([]ReadReq{{Disk: fr.a.Disk, Track: fr.a.Track, Dst: data}})
	sp.End()
	t.mu.Lock()
	e := fr.e
	e.data, e.err = data, err
	e.done = true
	close(e.ready)
	if err != nil && !e.gone {
		// A failed fill must not be served; the next read misses and
		// takes the error (if still real) from the backend directly.
		if t.cache[fr.a] == e {
			delete(t.cache, fr.a)
		}
		e.gone = true
	}
	t.retire(e)
	t.mu.Unlock()
}
