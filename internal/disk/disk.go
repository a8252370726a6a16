// Package disk simulates the secondary-memory subsystem of the EM-BSP
// machine model (Section 3 of Dehne–Dittrich–Hutchinson).
//
// Each real processor owns D disk drives. A drive is a sequence of
// tracks, consecutively numbered from 0, accessed by direct random
// access. A track stores exactly one block of B records (here: 64-bit
// words). In a single parallel I/O operation the processor may
// transfer at most one track per drive — up to D·B words — at cost G.
// An operation involving fewer drives incurs the same cost; the model
// thereby gives an incentive to keep all drives busy, which is exactly
// what the paper's layout formats (standard consecutive format,
// standard linked format) achieve.
//
// Every store enforces the one-track-per-drive rule and counts
// parallel I/O operations, block transfers, per-drive load, and
// physically sequential vs. non-sequential track accesses, through the
// one EM-model core of model.go. All counts are exact; the quantities
// proved about in the paper's lemmas (numbers of parallel I/O
// operations, per-drive block balance) are read directly off these
// statistics. The stores differ only in where a track's words live:
// in memory (Array), in pread/pwrite drive files (File) or in mapped
// drive files (Mapped, which no engine opens); Tier is an accounting
// shim above any of them.
// All of them, and the layers other packages stack on them, are one
// interface, Store; a processor's stack of them is a chain that Find
// walks.
package disk

import (
	"fmt"
	"math"
	"sync/atomic"

	"embsp/internal/obs"
)

// Config describes the disk subsystem of one processor.
type Config struct {
	// D is the number of drives.
	D int
	// B is the track (block) size in words.
	B int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.D <= 0 {
		return fmt.Errorf("disk: D = %d, want > 0", c.D)
	}
	if c.B <= 0 {
		return fmt.Errorf("disk: B = %d, want > 0", c.B)
	}
	return nil
}

// Addr identifies one block: a (drive, track) pair.
type Addr struct {
	Disk  int
	Track int
}

// ReadReq asks one drive for one track. Dst must have length B; the
// track contents are copied into it. Reading a never-written track
// yields zeros (the drive is formatted but blank).
type ReadReq struct {
	Disk  int
	Track int
	Dst   []uint64
}

// WriteReq writes one track on one drive. Src must have length B.
type WriteReq struct {
	Disk  int
	Track int
	Src   []uint64
}

// DriveStats holds per-drive transfer counts.
type DriveStats struct {
	BlocksRead    int64
	BlocksWritten int64
	// SeqAccesses counts accesses whose track number immediately
	// follows the previously accessed track on the same drive;
	// RandAccesses counts the rest. The ratio indicates how well a
	// layout preserves physical locality.
	SeqAccesses  int64
	RandAccesses int64
}

// Stats aggregates I/O accounting for a store. Ops is the number of
// parallel I/O operations: the model time spent on I/O is G·Ops.
type Stats struct {
	Ops           int64
	ReadOps       int64
	WriteOps      int64
	BlocksRead    int64
	BlocksWritten int64
	PerDrive      []DriveStats
}

// Blocks returns the total number of blocks transferred.
func (s Stats) Blocks() int64 { return s.BlocksRead + s.BlocksWritten }

// Utilization returns the mean number of drives used per parallel I/O
// operation divided by D: 1.0 means every operation moved D blocks.
// A Stats with no operations or no per-drive table reports 0.
func (s Stats) Utilization() float64 {
	if s.Ops == 0 || len(s.PerDrive) == 0 {
		return 0
	}
	return float64(s.Blocks()) / float64(s.Ops*int64(len(s.PerDrive)))
}

// Add accumulates other into s. The two must have the same drive count
// (or s may be zero-valued); merging mismatched drive counts would
// silently attribute traffic to the wrong drives, so it panics.
func (s *Stats) Add(other Stats) {
	if s.PerDrive != nil && other.PerDrive != nil && len(s.PerDrive) != len(other.PerDrive) {
		panic(fmt.Sprintf("disk: Stats.Add of %d-drive stats into %d-drive stats", len(other.PerDrive), len(s.PerDrive)))
	}
	s.Ops += other.Ops
	s.ReadOps += other.ReadOps
	s.WriteOps += other.WriteOps
	s.BlocksRead += other.BlocksRead
	s.BlocksWritten += other.BlocksWritten
	if s.PerDrive == nil {
		s.PerDrive = make([]DriveStats, len(other.PerDrive))
	}
	for i := range other.PerDrive {
		s.PerDrive[i].BlocksRead += other.PerDrive[i].BlocksRead
		s.PerDrive[i].BlocksWritten += other.PerDrive[i].BlocksWritten
		s.PerDrive[i].SeqAccesses += other.PerDrive[i].SeqAccesses
		s.PerDrive[i].RandAccesses += other.PerDrive[i].RandAccesses
	}
}

// OverlapStats reports how much physical I/O the file store overlapped
// with its caller's computation (File.Overlap). These are wall-clock
// observability counters, not model quantities: the model Stats of a
// run are bitwise independent of them (the file store reschedules only
// physical byte movement, never accounting). The other stores move
// their bytes inside the call and have none.
type OverlapStats struct {
	// PrefetchIssued counts blocks submitted for asynchronous
	// prefetch; PrefetchHits counts logical block reads served from
	// the prefetch or write-behind cache, and PrefetchMisses those
	// that had to touch the drive file inside the call.
	PrefetchIssued int64
	PrefetchHits   int64
	PrefetchMisses int64
	// AsyncWrites counts blocks absorbed by the write-behind cache
	// without stalling the writer.
	AsyncWrites int64
	// StallNanos is the wall-clock time logical operations spent
	// waiting for physical transfers (including barrier drains).
	StallNanos int64
	// ConcurrentPeak is the high-water mark of physical transfers
	// executing at the same instant.
	ConcurrentPeak int64
}

// Add accumulates other into o (ConcurrentPeak takes the maximum).
func (o *OverlapStats) Add(other OverlapStats) {
	o.PrefetchIssued += other.PrefetchIssued
	o.PrefetchHits += other.PrefetchHits
	o.PrefetchMisses += other.PrefetchMisses
	o.AsyncWrites += other.AsyncWrites
	o.StallNanos += other.StallNanos
	o.ConcurrentPeak = max(o.ConcurrentPeak, other.ConcurrentPeak)
}

// Publish folds the counters into the metrics registry under
// overlap_* names, with the same accumulation semantics as Add (sums
// for the monotone counters, a high-water fold for the concurrency
// peak) so multi-store and multi-processor runs aggregate correctly.
// A nil registry is a no-op.
func (o OverlapStats) Publish(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Counter("overlap_prefetch_issued").Add(o.PrefetchIssued)
	r.Counter("overlap_prefetch_hits").Add(o.PrefetchHits)
	r.Counter("overlap_prefetch_misses").Add(o.PrefetchMisses)
	r.Counter("overlap_async_writes").Add(o.AsyncWrites)
	r.Counter("overlap_stall_nanos").Add(o.StallNanos)
	r.Counter("overlap_concurrent_peak").Max(o.ConcurrentPeak)
}

// inflight counts the physical transfers executing right now and keeps
// their high-water mark, OverlapStats.ConcurrentPeak.
type inflight struct{ running, peak atomic.Int64 }

// begin enters one transfer; the caller defers end.
func (g *inflight) begin() {
	n := g.running.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
}

func (g *inflight) end() { g.running.Add(-1) }

// Checksum is an FNV-1a-style fold over a block's words; any single
// bit flip changes it. It is the one checksum of the whole stack: the
// fault layer uses it to detect in-flight corruption, the file-backed
// store to detect torn writes, and the commit journal to frame its
// records.
func Checksum(ws []uint64) uint64 {
	h := uint64(1469598103934665603)
	for _, w := range ws {
		h ^= w
		h *= 1099511628211
	}
	return h
}

// Store is the one contract of the simulated disk subsystem, which
// every link of a processor's store chain implements: parallel track
// transfers, dynamic track allocation and I/O accounting; whole-state
// capture/adoption (the journal commit and resume, and through Rollback
// the superstep replay); durability; and the raw track hooks
// replication ships state through. *Array and *File are the physical
// stores an engine's chain ends in (*Mapped is one too); the redundancy layer
// (internal/redundancy), the fault layer (internal/fault) and the
// accounting shim *Tier are links that embed the Store beneath them,
// override what they change and expose it as Inner() Store — everything
// else reaches the base by promotion. Prefetch hints and the overlap
// counters are *File's own: the file store is the one store that stages
// blocks. The standard-consecutive-format areas (Reserve, ReadRange,
// WriteRange, FreeArea) are the in-memory Array's alone: the Figure 2
// demo and the PDM baselines lay files out on one, and no engine does.
type Store interface {
	// Config returns the drive-count/block-size configuration.
	Config() Config
	// ReadOp performs one parallel read of at most one track per drive.
	ReadOp(reqs []ReadReq) error
	// WriteOp performs one parallel write of at most one track per drive.
	WriteOp(reqs []WriteReq) error
	// Alloc returns a free track on drive d.
	Alloc(d int) int
	// Release returns a track to drive d's free list. The track reads as
	// zeros, and Blank answers true, from the next barrier at the latest:
	// a physical store frees it at once, and a link may hold the release
	// until its barrier — the parity link keeps the bytes its stripe's
	// parity encodes until FlushParity. No engine reads a track it
	// released.
	Release(d, t int) error
	// Blank reports whether track t of drive d reads as zeros by
	// allocator metadata alone: free, fresh or beyond the drive's bump
	// mark. d must be a drive of the store.
	Blank(d, t int) bool
	// Stats returns a copy of the accumulated I/O statistics.
	Stats() Stats
	// StatsInto is Stats into s's memory, its per-drive table reused.
	StatsInto(s *Stats)
	// ResetStats zeroes the model statistics. The file store's
	// wall-clock overlap counters (File.Overlap) stay untouched: they
	// are outside the model contract and mid-run model resets must not
	// discard them.
	ResetStats()
	// State captures the store's complete persistent metadata: I/O
	// statistics plus per-drive allocator state. Together with the
	// track contents (which the durable stores keep on real disk) it
	// defines the store exactly; the engines journal it at every
	// barrier commit.
	State() StoreState
	// StateInto is State into s's memory, whose tables and lists it
	// reuses: the engines capture the state at every barrier, and a
	// capture into the same s allocates nothing once it has held the
	// largest. Its Fresh is nil, as State's, when no drive has one.
	StateInto(s *StoreState)
	// AdoptState replaces the store's metadata with a previously
	// captured State — the resume path's inverse of State. The state
	// comes from a journal or over the wire, so it is validated in full
	// and a malformed one is an error that leaves the store unchanged.
	AdoptState(s StoreState) error
	// Sync makes all written track contents durable (fsync for *File,
	// msync+fsync for *Mapped, a no-op for the in-memory *Array). The
	// engines call it before appending a commit record to the journal,
	// so a journal record never refers to data that could still be lost.
	Sync() error
	// Close releases the store's resources. The store must not be used
	// afterwards.
	Close() error
	// ExportTrack reads one track's committed payload raw — no model
	// accounting, no emulated latency. nil payload means blank by
	// metadata; a track listed as written whose slot does not decode is
	// a *CorruptTrackError, never zeros.
	ExportTrack(d, t int) ([]uint64, error)
	// ImportTrack writes one track's B-word payload raw; the track is no
	// longer fresh.
	ImportTrack(d, t int, payload []uint64) error
}

// Backend is the name Store had while it was one of three nested
// interfaces.
type Backend = Store

var (
	_ Store = (*Array)(nil)
	_ Store = (*File)(nil)
	_ Store = (*Mapped)(nil)
	_ Store = (*Tier)(nil)
)

// Find walks a store chain from s inward — each link's Inner() — and
// returns the outermost link that is a T, or T's zero value (nil for
// the pointer types links are looked up by) when there is none: how a
// caller holding only the chain reaches one store's or layer's own
// surface (*File's prefetch hint and overlap counters, the parity and
// fault layers).
func Find[T any](s Store) (found T) {
	for s != nil {
		if t, ok := s.(T); ok {
			return t
		}
		link, ok := s.(interface{ Inner() Store })
		if !ok {
			break
		}
		s = link.Inner()
	}
	return found
}

// StoreState is the persistent metadata of a Store: everything except
// the track contents themselves. The fields mirror the per-drive
// allocator (bump high-water mark, last accessed track, free list,
// fresh set) and the accumulated statistics; the engines serialize it
// into the commit journal and feed it back via AdoptState on resume.
type StoreState struct {
	Stats Stats
	// Next holds each drive's bump-allocator high-water mark.
	Next []int
	// Last holds each drive's previously accessed track (-1 initially);
	// it feeds the sequential-vs-random access statistics, so restoring
	// it keeps resumed runs' Stats bitwise identical.
	Last []int
	// Free holds each drive's free list, in stack order.
	Free [][]int
	// Fresh holds each drive's fresh tracks — allocated and not written
	// since — in ascending order, or is nil when no drive has one. A
	// fresh track reads blank whatever its slot holds, so the bytes a
	// crashed attempt wrote to a track fresh at the journaled barrier
	// are never returned after a resume.
	Fresh [][]int
}

// Rollback returns s's allocator to a captured state and keeps its
// current statistics and access chains — the superstep replay, which
// charges the aborted attempt's operations. Every track allocated since
// the capture is free, fresh or beyond the bump mark again, so what an
// aborted attempt wrote reads blank by metadata. The caller must
// guarantee that no track allocated at the capture has been released
// since (the engines' checkpoint discipline: barrier state is freed only
// after the next barrier). The captured state stays valid for further
// rollbacks.
func Rollback(s Store, to StoreState) error {
	cur := s.State()
	to.Stats, to.Last = cur.Stats, cur.Last
	return s.AdoptState(to)
}

// Array simulates the D drives of one processor in memory: the shared
// EM model over tracks held as slices. All methods are safe for
// concurrent use (the model's contract).
type Array struct {
	model
	tracks [][][]uint64 // [drive][track] payload, nil when never written or released; guarded by mu
	spare  *blockPool   // buffers of released tracks, for the next writes; used under mu
}

// NewArray returns a blank disk subsystem.
func NewArray(cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Array{tracks: make([][][]uint64, cfg.D), spare: newBlockPool(cfg.B, math.MaxInt)}
	a.model.init(cfg, a)
	return a, nil
}

// MustNewArray is NewArray for statically valid configurations.
func MustNewArray(cfg Config) *Array {
	a, err := NewArray(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// The Array's physical half: tracks are slices, nil until written. A
// released track's buffer goes to the spare list, where the next write
// of a nil track takes it, so the drives allocate their peak number of
// live blocks once. The model reads only tracks that are not blank,
// reads copy and a write covers all B words, so a recycled buffer — or
// the old buffer of a fresh or rolled-back track — cannot show through.

func (a *Array) readSlot(d, t int, dst []uint64) error {
	if tr := a.tracks[d]; t < len(tr) && tr[t] != nil {
		copy(dst, tr[t])
	} else {
		clear(dst)
	}
	return nil
}

func (a *Array) writeSlot(d, t int, src []uint64) error {
	for t >= len(a.tracks[d]) {
		a.tracks[d] = append(a.tracks[d], nil)
	}
	if a.tracks[d][t] == nil {
		a.tracks[d][t] = a.spare.get()
	}
	copy(a.tracks[d][t], src)
	return nil
}

// A slice copy has no span and no latency: the raw moves are the same.
func (a *Array) getSlot(d, t int, dst []uint64) error { return a.readSlot(d, t, dst) }
func (a *Array) putSlot(d, t int, src []uint64) error { return a.writeSlot(d, t, src) }

// Release returns a track to the drive's free list, with the model's
// guards against double and out-of-range frees. The in-memory array
// has nothing to keep for a crash, so it also gives the track's words
// back right away.
func (a *Array) Release(d, t int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	err := a.release(d, t)
	if err == nil && t < len(a.tracks[d]) && a.tracks[d][t] != nil {
		a.spare.put(a.tracks[d][t])
		a.tracks[d][t] = nil
	}
	return err
}

// Sync is a no-op: the in-memory array has nothing to make durable.
func (a *Array) Sync() error { return nil }

// Close is a no-op for the in-memory array.
func (a *Array) Close() error { return nil }
