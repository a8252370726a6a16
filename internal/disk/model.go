package disk

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// The EM-model half of a store, written once. Everything the paper's
// disk model defines — D drives of B-word tracks, one parallel I/O
// operation touching at most one track per drive, the bump-plus-free-
// list track allocator behind the standard consecutive and linked
// formats, and the exact accounting the lemmas are read off — lives in
// this file. Array, File and Mapped embed a model by value, which
// gives them its exported methods and its mutex, and supply only the
// physical side (slotIO); Tier, the accounting shim that forwards the
// allocator to its backend, holds just the account.

// slotIO is the physical half of a store: move one track's payload.
// Array implements it over in-memory slices, File over pread/pwrite,
// Mapped over the mapping. readSlot is called only for tracks the
// allocator does not read as blank, and nothing asks a store to clear a
// track. The model calls it with its mutex held; none of the
// implementations touches model state.
type slotIO interface {
	readSlot(d, t int, dst []uint64) error
	writeSlot(d, t int, src []uint64) error
}

// account is the accounting half of the model: the Stats and the
// per-drive access chain behind the sequential/random split.
type account struct {
	stats     Stats
	lastTrack []int // per drive: previously accessed track, -1 initially
}

func newAccount(D int) account {
	a := account{stats: Stats{PerDrive: make([]DriveStats, D)}, lastTrack: make([]int, D)}
	for d := range a.lastTrack {
		a.lastTrack[d] = -1
	}
	return a
}

func (a *account) touch(d, t int) {
	if t == a.lastTrack[d]+1 {
		a.stats.PerDrive[d].SeqAccesses++
	} else {
		a.stats.PerDrive[d].RandAccesses++
	}
	a.lastTrack[d] = t
}

// chargeRead accounts one block read and returns the drive's previous
// chain position, which refundRead needs to take the charge back (the
// drives of one operation are pairwise distinct, so per-request
// rollback is exact).
func (a *account) chargeRead(d, t int) (prev int) {
	prev = a.lastTrack[d]
	a.touch(d, t)
	a.stats.PerDrive[d].BlocksRead++
	return prev
}

// refundRead undoes chargeRead of track t for the requests at and
// after a failed one — the block, the chain position and the
// sequential or random access touch counted — leaving what the
// synchronous path leaves behind: requests before the failure
// accounted, the rest untouched.
func (a *account) refundRead(d, t, prev int) {
	if t == prev+1 {
		a.stats.PerDrive[d].SeqAccesses--
	} else {
		a.stats.PerDrive[d].RandAccesses--
	}
	a.lastTrack[d] = prev
	a.stats.PerDrive[d].BlocksRead--
}

// chargeReadOp commits one parallel read of n blocks.
func (a *account) chargeReadOp(n int) {
	a.stats.Ops++
	a.stats.ReadOps++
	a.stats.BlocksRead += int64(n)
}

// settleRead ends a parallel read whose blocks were all charged up
// front, with prev their chains' previous positions: commit the
// operation, or — from the first failing request on — take the charges
// back, leaving what the synchronous path leaves behind.
func (a *account) settleRead(reqs []ReadReq, prev []int, failIdx int, failErr error) error {
	if failErr != nil {
		for i := failIdx; i < len(reqs); i++ {
			a.refundRead(reqs[i].Disk, reqs[i].Track, prev[i])
		}
		return failErr
	}
	a.chargeReadOp(len(reqs))
	return nil
}

// chargeWrite accounts one block write.
func (a *account) chargeWrite(d, t int) {
	a.touch(d, t)
	a.stats.PerDrive[d].BlocksWritten++
}

// chargeWriteOp commits one parallel write of n blocks.
func (a *account) chargeWriteOp(n int) {
	a.stats.Ops++
	a.stats.WriteOps++
	a.stats.BlocksWritten += int64(n)
}

func (a *account) snapshot() Stats {
	var s Stats
	a.statsInto(&s)
	return s
}

// statsInto copies the statistics into s, its per-drive table into the
// memory s holds.
func (a *account) statsInto(s *Stats) {
	per := s.PerDrive
	*s = a.stats
	s.PerDrive = append(per[:0], a.stats.PerDrive...)
}

// reset zeroes the statistics; the access chain is position, not
// statistics, and stays.
func (a *account) reset() {
	a.stats = Stats{PerDrive: make([]DriveStats, len(a.lastTrack))}
}

// adopt replaces the account with a validated captured state's.
func (a *account) adopt(s StoreState) {
	a.stats = s.Stats
	a.stats.PerDrive = append([]DriveStats(nil), s.Stats.PerDrive...)
	copy(a.lastTrack, s.Last)
}

// drive is one drive's track allocator. The tracks that read blank by
// metadata are those at or beyond top and those in blank. Every track in
// [top, next) is fresh — taken by the bump and not written since — so
// the common case, a bump allocation written before the next one, never
// touches the map.
type drive struct {
	next     int // bump allocator high-water mark
	top      int // start of the fresh run [top, next); top <= next
	freeList []int
	// blank holds the blank tracks below top: true for a free one
	// (mirroring freeList, for O(1) double-free checks), false for a
	// fresh one — allocated and not written since.
	blank map[int]bool
}

// mark records track t, below top, as blank: free, or fresh.
func (dr *drive) mark(t int, free bool) {
	if dr.blank == nil {
		dr.blank = make(map[int]bool)
	}
	dr.blank[t] = free
}

// leaveRun takes track t out of the fresh run, if it is in it; the run's
// tracks below t stay fresh, in the map.
func (dr *drive) leaveRun(t int) {
	if t < dr.top || t >= dr.next {
		return
	}
	for u := dr.top; u < t; u++ {
		dr.mark(u, false)
	}
	dr.top = t + 1
}

// unfresh ends track t's fresh state, if it has one: it is written.
func (dr *drive) unfresh(t int) {
	dr.leaveRun(t)
	if free, ok := dr.blank[t]; ok && !free {
		delete(dr.blank, t)
	}
}

// model is the EM-model half of a store: the account and the per-drive
// allocator, behind one mutex that also guards the embedding store's
// physical state. All exported methods are safe for concurrent use:
// operations serialize on the mutex, and racing operations on the same
// drive are ordered by whatever the race decides.
type model struct {
	mu sync.Mutex
	account
	cfg    Config
	drives []drive
	phys   slotIO // the embedding store
}

func (m *model) init(cfg Config, phys slotIO) {
	m.account = newAccount(cfg.D)
	m.cfg = cfg
	m.drives = make([]drive, cfg.D)
	m.phys = phys
}

// Config returns the store's drive configuration.
func (m *model) Config() Config { return m.cfg }

// Stats returns a copy of the accumulated I/O statistics.
func (m *model) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshot()
}

// StatsInto is Stats into s's memory.
func (m *model) StatsInto(s *Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.statsInto(s)
}

// ResetStats zeroes the model statistics, e.g. to exclude input
// staging from a measured experiment. Stored data is untouched, and so
// are wall-clock observability counters such as File's OverlapStats:
// they are outside the model contract, so a mid-run model reset (the
// engines reset after the setup phase to split setup from run
// accounting) must not discard them.
func (m *model) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reset()
}

var errDriveConflict = errors.New("disk: parallel I/O op addresses one drive twice")

// validateDistinct enforces the one-track-per-drive rule on a request
// list.
func validateDistinct(cfg Config, n int, at func(int) (disk, track int)) error {
	var seenLow uint64 // bitmask fast path for D <= 64
	var seen map[int]bool
	for i := 0; i < n; i++ {
		d, t := at(i)
		if d < 0 || d >= cfg.D {
			return fmt.Errorf("disk: drive %d out of range [0,%d)", d, cfg.D)
		}
		if t < 0 {
			return fmt.Errorf("disk: negative track %d", t)
		}
		if d < 64 {
			bit := uint64(1) << uint(d)
			if seenLow&bit != 0 {
				return errDriveConflict
			}
			seenLow |= bit
			continue
		}
		if seen == nil {
			seen = make(map[int]bool)
		}
		if seen[d] {
			return errDriveConflict
		}
		seen[d] = true
	}
	return nil
}

// checkReads validates one parallel read's request list before any
// accounting: drives in range and pairwise distinct, tracks
// non-negative, every buffer B words.
func checkReads(cfg Config, reqs []ReadReq) error {
	if err := validateDistinct(cfg, len(reqs), func(i int) (int, int) { return reqs[i].Disk, reqs[i].Track }); err != nil {
		return err
	}
	for _, r := range reqs {
		if len(r.Dst) != cfg.B {
			return fmt.Errorf("disk: read buffer has %d words, want B=%d", len(r.Dst), cfg.B)
		}
	}
	return nil
}

// checkWrites is checkReads for a parallel write.
func checkWrites(cfg Config, reqs []WriteReq) error {
	if err := validateDistinct(cfg, len(reqs), func(i int) (int, int) { return reqs[i].Disk, reqs[i].Track }); err != nil {
		return err
	}
	for _, r := range reqs {
		if len(r.Src) != cfg.B {
			return fmt.Errorf("disk: write buffer has %d words, want B=%d", len(r.Src), cfg.B)
		}
	}
	return nil
}

// ReadOp performs one parallel I/O operation reading len(reqs) tracks,
// at most one per drive, synchronously. It costs one operation
// regardless of how many drives participate (the model's flat cost G).
// An empty request list is a no-op and costs nothing. Tracks that are
// free, fresh or beyond the drive's bump mark read as zeros by
// metadata, whatever bytes the medium holds.
func (m *model) ReadOp(reqs []ReadReq) error {
	if len(reqs) == 0 {
		return nil
	}
	if err := checkReads(m.cfg, reqs); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range reqs {
		if m.blank(r.Disk, r.Track) {
			clear(r.Dst)
		} else if err := m.phys.readSlot(r.Disk, r.Track, r.Dst); err != nil {
			return err
		}
		m.chargeRead(r.Disk, r.Track)
	}
	m.chargeReadOp(len(reqs))
	return nil
}

// WriteOp performs one parallel I/O operation writing len(reqs) tracks,
// at most one per drive, synchronously.
func (m *model) WriteOp(reqs []WriteReq) error {
	if len(reqs) == 0 {
		return nil
	}
	if err := checkWrites(m.cfg, reqs); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range reqs {
		if err := m.phys.writeSlot(r.Disk, r.Track, r.Src); err != nil {
			return err
		}
		m.chargeWrite(r.Disk, r.Track)
		m.drives[r.Disk].unfresh(r.Track)
	}
	m.chargeWriteOp(len(reqs))
	return nil
}

// blank reports whether the track reads as zeros by allocator
// metadata alone: released, fresh (allocated and not written since),
// or beyond the bump mark (which covers tracks dirtied by a crashed
// attempt and later rolled back). This is what lets Alloc and Release
// stay metadata-only: no store writes a track to make it blank.
func (m *model) blank(d, t int) bool {
	dr := &m.drives[d]
	_, blank := dr.blank[t]
	return blank || t >= dr.top
}

// Blank is blank under the store's mutex: whether a read of track t on
// drive d, which must be a drive of the store, delivers zeros by
// allocator metadata alone.
func (m *model) Blank(d, t int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.blank(d, t)
}

// checkRaw range-checks a raw (accounting-free) track export or import.
func (m *model) checkRaw(op string, d, t int) error {
	if d < 0 || d >= m.cfg.D || t < 0 {
		return fmt.Errorf("disk: %s (%d,%d) out of range", op, d, t)
	}
	return nil
}

// beginImport checks a raw ImportTrack of B words and ends the track's
// fresh state: from here on it reads what the import writes.
func (m *model) beginImport(d, t int, payload []uint64) error {
	if err := m.checkRaw("ImportTrack", d, t); err != nil {
		return err
	}
	if len(payload) != m.cfg.B {
		return fmt.Errorf("disk: ImportTrack payload has %d words, want B=%d", len(payload), m.cfg.B)
	}
	m.drives[d].unfresh(t)
	return nil
}

// Alloc returns a free track on drive d, reusing freed tracks (newest
// first) before extending the drive — one allocation order for every
// store, so durable and in-memory runs lay data out identically. Used
// for standard-linked-format bucket blocks, whose placement is dynamic.
// The track is fresh until its first write: it reads blank by metadata,
// whatever bytes its slot holds from an earlier use or a crashed run,
// and nothing is written to clear it.
func (m *model) Alloc(d int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	dr := &m.drives[d]
	var t int
	if n := len(dr.freeList); n > 0 {
		t = dr.freeList[n-1]
		dr.freeList = dr.freeList[:n-1]
		dr.mark(t, false)
	} else {
		t = dr.next // the fresh run grows by it
		dr.next++
	}
	return t
}

// Release returns a track to the drive's free list; it reads as zeros
// from then on. The release is metadata-only, which is what makes the
// engines' commit ordering crash-safe: data referenced by the last
// durable commit record is never physically destroyed before the next
// record lands. Releasing a track that was never allocated, or the same
// track twice, is an error: a double free would hand one track to two
// allocations and silently corrupt the bucket structures built on it.
func (m *model) Release(d, t int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.release(d, t)
}

func (m *model) release(d, t int) error {
	if d < 0 || d >= m.cfg.D {
		return fmt.Errorf("disk: Release drive %d out of range [0,%d)", d, m.cfg.D)
	}
	dr := &m.drives[d]
	if t < 0 || t >= dr.next {
		return fmt.Errorf("disk: Release track %d on drive %d outside allocated range [0,%d)", t, d, dr.next)
	}
	if free := dr.blank[t]; free {
		return fmt.Errorf("disk: double release of track %d on drive %d", t, d)
	}
	dr.leaveRun(t)
	dr.mark(t, true)
	dr.freeList = append(dr.freeList, t)
	return nil
}

// freshLists returns each drive's fresh tracks in ascending order, in
// out's memory, or nil — allocating nothing — when no drive has one.
func (m *model) freshLists(out [][]int) [][]int {
	have := false
	for d := range m.drives {
		dr := &m.drives[d]
		if len(dr.blank) == len(dr.freeList) && dr.top == dr.next {
			continue
		}
		if !have {
			out, have = lists(out, len(m.drives)), true
		}
		for t, free := range dr.blank {
			if !free {
				out[d] = append(out[d], t)
			}
		}
		sort.Ints(out[d])
		for t := dr.top; t < dr.next; t++ {
			out[d] = append(out[d], t)
		}
	}
	if !have {
		return nil
	}
	return out
}

// lists returns n empty lists in ls's memory, each keeping its own.
func lists(ls [][]int, n int) [][]int {
	if n > cap(ls) {
		ls = append(ls[:cap(ls)], make([][]int, n-cap(ls))...)
	}
	ls = ls[:n]
	for i := range ls {
		ls[i] = ls[i][:0]
	}
	return ls
}

// row returns list d of per-drive lists that may be nil.
func row(lists [][]int, d int) []int {
	if lists == nil {
		return nil
	}
	return lists[d]
}

// load sets a new drive's bump mark and its free and fresh lists,
// checking every listed track: allocated (below the mark), and listed
// once across both lists.
func (dr *drive) load(d, next int, free, fresh []int) error {
	dr.next, dr.top = next, next
	dr.freeList = append([]int(nil), free...)
	for i, t := range append(free[:len(free):len(free)], fresh...) {
		what := "lists as fresh"
		if i < len(free) {
			what = "frees"
		}
		if t < 0 || t >= next {
			return &stateError{fmt.Sprintf("drive %d %s track %d outside its allocated range [0,%d)", d, what, t, next)}
		}
		if _, dup := dr.blank[t]; dup {
			return &stateError{fmt.Sprintf("drive %d %s track %d, which it already lists as free or fresh", d, what, t)}
		}
		dr.mark(t, i < len(free))
	}
	return nil
}

// State captures the store's persistent metadata: statistics, access
// chains and per-drive allocator state.
func (m *model) State() StoreState {
	var s StoreState
	m.StateInto(&s)
	return s
}

// StateInto is State into s's memory: its tables and lists are cut,
// grown and overwritten, so that a caller that captures every barrier's
// state into the same s allocates nothing once it has held the largest.
func (m *model) StateInto(s *StoreState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.statsInto(&s.Stats)
	s.Next = s.Next[:0]
	s.Last = append(s.Last[:0], m.lastTrack...)
	s.Free = lists(s.Free, len(m.drives))
	for d := range m.drives {
		s.Next = append(s.Next, m.drives[d].next)
		s.Free[d] = append(s.Free[d], m.drives[d].freeList...)
	}
	s.Fresh = m.freshLists(s.Fresh)
}

// stateError reports a StoreState that AdoptState refused.
type stateError struct{ reason string }

func (e *stateError) Error() string { return "disk: AdoptState: " + e.reason }

// AdoptState replaces the store's metadata with a captured State — the
// resume path, and through Rollback the superstep replay. Track contents
// stay as the medium holds them; any bytes written after the adopted
// state was captured are unreachable (free, fresh or beyond the bump
// mark) and read as zeros.
//
// States may come from outside the process — decoded from a journal, or
// from a NodeSnapshot that arrived over the wire — so everything the
// allocator and the accounting later index by is checked first: the
// drive counts of all five tables (Fresh may also be nil), non-negative
// bump marks, chain positions >= -1, and free and fresh lists that are
// duplicate-free, below their drive's bump mark and disjoint. A
// malformed state is a typed error and leaves the store unchanged.
func (m *model) AdoptState(s StoreState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.adoptState(s)
}

func (m *model) adoptState(s StoreState) error {
	D := m.cfg.D
	if len(s.Next) != D || len(s.Last) != D || len(s.Free) != D || len(s.Stats.PerDrive) != D || (s.Fresh != nil && len(s.Fresh) != D) {
		return &stateError{fmt.Sprintf("%d/%d/%d/%d/%d-drive state (next/last/free/stats/fresh) into a %d-drive store",
			len(s.Next), len(s.Last), len(s.Free), len(s.Stats.PerDrive), len(s.Fresh), D)}
	}
	drives := make([]drive, D)
	for d := range drives {
		if s.Next[d] < 0 {
			return &stateError{fmt.Sprintf("drive %d has negative bump mark %d", d, s.Next[d])}
		}
		if s.Last[d] < -1 {
			return &stateError{fmt.Sprintf("drive %d has last-track %d, want >= -1", d, s.Last[d])}
		}
		if err := drives[d].load(d, s.Next[d], s.Free[d], row(s.Fresh, d)); err != nil {
			return err
		}
	}
	m.adopt(s)
	copy(m.drives, drives)
	return nil
}

// SortedAddrs appends the keys of an address-keyed map to dst by drive,
// then track — the order every map iteration that causes I/O, or enters
// an encoded state or a snapshot, must take to stay deterministic — and
// returns the extended list. A caller that keeps the list passes it back
// cut to zero, and allocates nothing once it has held the largest map.
func SortedAddrs[V any](dst []Addr, m map[Addr]V) []Addr {
	n := len(dst)
	for a := range m {
		dst = append(dst, a)
	}
	slices.SortFunc(dst[n:], func(a, b Addr) int {
		if a.Disk != b.Disk {
			return cmp.Compare(a.Disk, b.Disk)
		}
		return cmp.Compare(a.Track, b.Track)
	})
	return dst
}
