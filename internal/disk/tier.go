package disk

import "sync"

// TierOptions configures a Tier; a tier holds no cache to size.
type TierOptions struct{}

// inner is the Store a chain link is stacked on, embedded under this
// name so every method the link does not override reaches it by
// promotion.
type inner = Store

// Tier is an accounting shim above any Store: a chain link that keeps
// its own model account — the parallel I/O operation counts and the
// per-drive sequential/random access chains — over the backend's
// allocator, and moves every block through to the backend inside the
// call. It holds no cache and starts no goroutine; the disk layer's one
// staging cache is the file store's (stage, pool.go).
//
// No engine stacks a tier (DESIGN.md §17). The type remains for the
// frozen benchmark module alone, whose disk.tier.* layer drive stacks
// one on a file store; it goes with ROADMAP item 1(d).
//
// The tier applies its Stats at call time in request order, through
// the account every flat store charges (model.go); the backend's Stats
// carry no model meaning under a tier, so State composes the tier's
// Stats and access chains with the backend's allocator. Everything else
// — the allocator, the raw track hooks, Sync and Close — is the
// backend's, promoted, so layout and durability are a flat store's.
//
// All methods are safe for concurrent use.
type Tier struct {
	inner
	cfg Config

	mu  sync.Mutex // guards acc
	acc account    // the accounting half of the model; the allocator is the backend's
}

// NewTier stacks an accounting tier on a backend. The backend must be
// otherwise unused: all traffic has to flow through the tier, or its
// Stats would miss it.
func NewTier(be Store, _ TierOptions) *Tier {
	cfg := be.Config()
	return &Tier{inner: be, cfg: cfg, acc: newAccount(cfg.D)}
}

// Inner returns the store the tier is stacked on.
func (t *Tier) Inner() Store { return t.inner }

// ReadOp performs one parallel read with the shared model's validation
// and accounting, applied by the tier itself in request order, and
// forwards the batch to the backend as-is, straight into the caller's
// buffers. On failure the requests from the failing one on are refunded,
// as a flat store leaves them.
func (t *Tier) ReadOp(reqs []ReadReq) error {
	if len(reqs) == 0 {
		return nil
	}
	if err := checkReads(t.cfg, reqs); err != nil {
		return err
	}
	prev := make([]int, len(reqs))
	t.mu.Lock()
	for i, r := range reqs {
		prev[i] = t.acc.chargeRead(r.Disk, r.Track)
	}
	t.mu.Unlock()
	failIdx, failErr := t.forward(reqs)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.acc.settleRead(reqs, prev, failIdx, failErr)
}

// forward reads the given requests from the backend in one parallel
// op. The batched error does not say which request failed; on failure
// the requests are replayed one by one to localize it, so the rollback
// in settleRead matches what a flat store would have left. Returns
// len(reqs), nil on success. Called without t.mu held.
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

// WriteOp performs one parallel write, accounted by the tier and written
// through to the backend inside the call. A backend error is returned
// here, with the operation accounted.
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
	}
	t.acc.chargeWriteOp(len(reqs))
	t.mu.Unlock()
	return t.inner.WriteOp(reqs)
}

// Stats returns a copy of the tier's model statistics — the
// authoritative accounting of the chain.
func (t *Tier) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.acc.snapshot()
}

// StatsInto is Stats into s's memory.
func (t *Tier) StatsInto(s *Stats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.acc.statsInto(s)
}

// ResetStats zeroes the tier's model statistics and the backend's.
func (t *Tier) ResetStats() {
	t.mu.Lock()
	t.acc.reset()
	t.mu.Unlock()
	t.inner.ResetStats()
}

// State composes the chain's checkpoint: the tier's model statistics
// and access chains over the backend's allocator. It is exactly what a
// flat store's State would hold for the same logical history.
func (t *Tier) State() StoreState {
	var s StoreState
	t.StateInto(&s)
	return s
}

// StateInto is State into s's memory.
func (t *Tier) StateInto(s *StoreState) {
	t.inner.StateInto(s)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.acc.statsInto(&s.Stats)
	s.Last = append(s.Last[:0], t.acc.lastTrack...)
}

// AdoptState adopts a checkpoint into the chain: the full state
// (allocator included) into the backend, whose model validates it, then
// the model statistics and access chains into the tier.
func (t *Tier) AdoptState(s StoreState) error {
	if err := t.inner.AdoptState(s); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.acc.adopt(s)
	return nil
}
