// Package redundancy adds drive redundancy to the simulated disk
// subsystem, in one scheme with two widths: XOR parity groups (stripes)
// across the D drives of one processor. Under parity a stripe holds up
// to D-1 data tracks and its parity track rotates over the drives
// (RAID-5 style), single-drive-failure tolerance at one parity track per
// D-1 data tracks. Under mirror a stripe holds one data track, and the
// "parity" of one member is its copy, on the next live drive after the
// member's (2× capacity). Everything below — degraded reads, remaps,
// the barrier flush, the scrub and Reconcile — serves both unchanged.
//
// The layer is a link of a processor's store chain, between the
// fault-injection layer (internal/fault) and the disk.Store beneath.
// Data tracks keep their identity mapping — Alloc is the inner store's
// own, so the engines' layout is untouched — while parity tracks are
// allocated from the same store, interleaved with client allocations.
//
// Parity follows the engine's lifetimes, which is the natural RAID-5
// variant for a BSP-style engine that rewrites its live state every
// compound superstep. A track joins a stripe when it is first written:
// WriteOp folds the data it has in memory into the stripe's cached
// parity, a full stripe's parity goes to disk while the superstep still
// writes, and the barrier (FlushParity) writes the rest and closes every
// stripe — so a stripe holds one superstep's tracks, which die together;
// a client that keeps some of them longer seals them into stripes of
// their own (Seal).
// A track leaves its stripe without I/O (Release): the next barrier drops
// a stripe all of whose members have left, and folds the leavers out of
// any other in one batched read. Only a rewrite of a striped member in
// place pays the classic read-modify-write small-write penalty (the old
// data is read back, charged as a real parallel I/O, before it is
// overwritten); the
// parity value of a stripe so touched is cached between the touch and
// the barrier, so it costs at most one parity read and one parity write
// per superstep no matter how often its members change.
//
// On top of the stripes the layer provides:
//
//   - degraded-mode reads: a read of a track whose drive has died, or
//     whose content fails its recorded checksum, is served by XOR-ing
//     the stripe's survivors. Every extra parallel I/O this costs is a
//     real charged operation, surfaced in the ReconstructedBlocks /
//     DegradedOps counters;
//   - a background scrub: a cursor walks the physical tracks between
//     supersteps, re-reads checksummed tracks, and repairs latent
//     corruption from parity. The cursor is part of EncodeState, so a
//     crash-resumed run continues scrubbing where it left off.
//
// A dead drive is not rebuilt: a stripe lives with its superstep, so the
// dead drive's members leave with theirs, and until then a read of one is
// reconstructed (DESIGN.md §10).
//
// All map iterations that cause I/O or enter encoded state are sorted,
// so the layer preserves the repository's bitwise-determinism
// guarantees.
package redundancy

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"embsp/internal/disk"
	"embsp/internal/obs"
	"embsp/internal/words"
)

// Mode selects the drive-redundancy scheme of a run.
type Mode int

const (
	// None runs without redundancy: a permanent drive loss is fatal.
	None Mode = iota
	// Mirror keeps a copy of every written track on the next live
	// drive: stripes of one member (2× storage, one extra write op per
	// write op).
	Mirror
	// Parity keeps one rotated XOR parity track per stripe of D-1 data
	// tracks (1/(D-1) storage overhead, superstep-batched parity
	// writes).
	Parity
)

// String returns the mode's flag spelling.
func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case Mirror:
		return "mirror"
	case Parity:
		return "parity"
	}
	return fmt.Sprintf("redundancy.Mode(%d)", int(m))
}

// ParseMode parses a -redundancy flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "none":
		return None, nil
	case "mirror":
		return Mirror, nil
	case "parity":
		return Parity, nil
	}
	return None, fmt.Errorf("redundancy: unknown mode %q (want none, mirror or parity)", s)
}

// stripe is one parity group: at most one member track per data drive
// (never on the parity drive), so any single member is the XOR of the
// parity track and the other members — under mirror, of the parity track
// alone, its copy. A member that has left (Store.left) keeps its slot,
// and parity keeps encoding it, until the next FlushParity; count is the
// members that have not.
type stripe struct {
	parity  disk.Addr // parity track location
	members []int     // member track per logical drive, -1 = none
	count   int
}

func (st *stripe) full(width int) bool { return st.count >= width }

// Counters reports the layer's redundancy accounting. All figures
// except the two gauges are monotone over the run; Restore does not
// roll them back (work a replayed superstep spent really happened).
type Counters struct {
	// ChecksumFailures counts tracks whose stored content failed the
	// recorded checksum when read back (latent at-rest corruption,
	// detected by a degraded read or by the scrub).
	ChecksumFailures int64
	// RepairedBlocks counts tracks rewritten with data reconstructed
	// from parity (scrub repairs plus read-path repairs).
	RepairedBlocks int64
	// ReconstructedBlocks counts blocks served or repaired by XOR-ing
	// the stripe's surviving members instead of reading the track.
	ReconstructedBlocks int64
	// DegradedOps counts the extra charged parallel I/O operations
	// spent serving reads and writes in degraded mode (reconstruction
	// reads, collision splits of remapped tracks, repair rewrites).
	DegradedOps int64
	// ParityOps counts the charged parallel I/O operations spent
	// maintaining parity: parity writes, read-old-data small writes,
	// parity track loads and the barrier's fold of leavers; ParityReadOps
	// is the reads among them.
	ParityOps     int64
	ParityReadOps int64
	// ParityBlocks is the number of parity tracks currently allocated
	// (a gauge: the storage overhead of the scheme).
	ParityBlocks int64
	// StripedBlocks is the number of data tracks currently protected
	// by a stripe (a gauge).
	StripedBlocks int64
	// ScrubbedBlocks counts tracks whose checksum the scrub verified;
	// ScrubRepairs counts the corrupt ones it repaired from parity.
	ScrubbedBlocks int64
	ScrubRepairs   int64
}

// Add accumulates other into c (for multi-processor aggregation).
func (c *Counters) Add(other Counters) {
	c.ChecksumFailures += other.ChecksumFailures
	c.RepairedBlocks += other.RepairedBlocks
	c.ReconstructedBlocks += other.ReconstructedBlocks
	c.DegradedOps += other.DegradedOps
	c.ParityOps += other.ParityOps
	c.ParityReadOps += other.ParityReadOps
	c.ParityBlocks += other.ParityBlocks
	c.StripedBlocks += other.StripedBlocks
	c.ScrubbedBlocks += other.ScrubbedBlocks
	c.ScrubRepairs += other.ScrubRepairs
}

// Publish folds the counters into the metrics registry under parity_*
// names, with Add semantics so multi-processor runs aggregate (the
// two gauges sum across processors, like EMStats does). A nil
// registry is a no-op.
func (c Counters) Publish(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Counter("parity_checksum_failures").Add(c.ChecksumFailures)
	r.Counter("parity_repaired_blocks").Add(c.RepairedBlocks)
	r.Counter("parity_reconstructed_blocks").Add(c.ReconstructedBlocks)
	r.Counter("parity_degraded_ops").Add(c.DegradedOps)
	r.Counter("parity_ops").Add(c.ParityOps)
	r.Counter("parity_read_ops").Add(c.ParityReadOps)
	r.Counter("parity_blocks").Add(c.ParityBlocks)
	r.Counter("parity_striped_blocks").Add(c.StripedBlocks)
	r.Counter("parity_scrubbed_blocks").Add(c.ScrubbedBlocks)
	r.Counter("parity_scrub_repairs").Add(c.ScrubRepairs)
}

// inner is the store chain beneath the layer, embedded under this name
// so every disk.Store method the layer does not override is the chain's.
type inner = disk.Store

// Store is the redundancy layer, a link of a store chain: it overrides
// ReadOp, WriteOp and Release; everything else is the embedded inner
// store's, promoted — allocation (directory metadata that never faults;
// I/O on a dead drive's tracks is remapped at operation time), Stats
// (parity and reconstruction traffic are real charged operations),
// State/AdoptState (the superstep replay rolls the allocator back
// through them; the layer's own rollback state is Snapshot's) and Sync (the engines call FlushParity first, so
// a commit record's parity is durable before the record lands). All
// methods are safe for concurrent use: the parity directories and RMW
// arithmetic serialize on an internal mutex (physical D-parallelism
// lives below, inside one inner-store operation), so concurrent
// operations see the same deterministic stripe state in whatever order
// they land; the promoted methods rely on the inner store's own safety.
type Store struct {
	inner
	D, B  int
	width int // data members a stripe holds: D-1 under parity, 1 under mirror

	mu    sync.Mutex // guards all stripe/parity/remap state below
	state            // what a superstep replay rolls back
	dead  []bool

	// rmwOld caches the barrier-committed content of striped members
	// rewritten in place during the current superstep, keyed by
	// physical track. After a superstep rollback the physical track
	// already holds replayed data the stored parity does not encode,
	// so parity arithmetic must use this copy for any member the
	// current attempt has not rewritten yet. Dropped at FlushParity;
	// deliberately NOT part of Snapshot/Restore (it must survive the
	// rollback that makes it necessary).
	rmwOld map[disk.Addr][]uint64
	// wrote marks physical tracks written by the current attempt;
	// Restore clears it (a rollback starts a new attempt).
	wrote map[disk.Addr]bool
	// recompute marks stripes whose stored parity is known stale after
	// a crash-resume (Reconcile found residue it could not repair or
	// recompute immediately: a torn member, or one on a dead drive).
	// Incremental parity maintenance is suspended for these stripes and
	// reads needing their parity fail loudly;
	// FlushParity recomputes each one from its members as soon as every
	// member is readable again. Like rmwOld it describes physical state
	// rather than superstep state, so it survives Restore and is not
	// part of Snapshot or EncodeState (it only exists between a
	// crash-resume and the barrier that clears it).
	recompute map[int]bool

	scrubD, scrubT int // scrub cursor (physical walk)

	ctr       Counters
	cachePeak int // most parity blocks cached at once (CachePeak)
}

// state is the layer's rollback state (Snapshot, Restore).
type state struct {
	stripeOf map[disk.Addr]int // logical data track -> stripe id
	stripes  map[int]*stripe
	parityAt map[disk.Addr]int // physical parity track -> stripe id
	open     []int             // stripes of this superstep with room, ascending
	filled   []int             // stripes of this superstep now full, parity not yet written
	next     int               // next stripe id; also the parity rotation counter

	pval   map[int][]uint64 // cached current parity value (authoritative)
	pdirty map[int]bool     // stripes whose cached parity needs write-back

	// left is the leaver list: members released since the last flush.
	// Their stripes' parity still encodes them, and their bytes stay where
	// they are, until FlushParity folds them out; held is the released
	// tracks whose inner Release waits for that.
	left map[disk.Addr]bool
	held []disk.Addr

	sums  map[disk.Addr]uint64    // physical track -> checksum of last write
	remap map[disk.Addr]disk.Addr // dead-drive logical track -> live physical
	rrmap map[disk.Addr]disk.Addr // inverse of remap (physical -> logical)
}

// clone returns a deep copy.
func (st *state) clone() state {
	c := *st
	c.stripeOf, c.parityAt = maps.Clone(st.stripeOf), maps.Clone(st.parityAt)
	c.open, c.filled, c.held = slices.Clone(st.open), slices.Clone(st.filled), slices.Clone(st.held)
	c.pdirty, c.left, c.sums = maps.Clone(st.pdirty), maps.Clone(st.left), maps.Clone(st.sums)
	c.remap, c.rrmap = maps.Clone(st.remap), maps.Clone(st.rrmap)
	c.stripes = make(map[int]*stripe, len(st.stripes))
	for sid, x := range st.stripes {
		c.stripes[sid] = &stripe{parity: x.parity, members: slices.Clone(x.members), count: x.count}
	}
	c.pval = make(map[int][]uint64, len(st.pval))
	for sid, pv := range st.pval {
		c.pval[sid] = slices.Clone(pv)
	}
	return c
}

// Wrap layers parity redundancy over a store. Parity requires at least
// two drives (one data drive plus a rotated parity drive).
func Wrap(below disk.Store) (*Store, error) { return wrap(below, Parity) }

// WrapMirror layers mirror redundancy over a store: stripes of one
// member, whose copy goes on the next live drive after the member's.
// Mirroring requires at least two drives.
func WrapMirror(below disk.Store) (*Store, error) { return wrap(below, Mirror) }

func wrap(below disk.Store, mode Mode) (*Store, error) {
	cfg := below.Config()
	if cfg.D < 2 {
		return nil, fmt.Errorf("redundancy: %s requires D >= 2, have D = %d", mode, cfg.D)
	}
	width := cfg.D - 1
	if mode == Mirror {
		width = 1
	}
	return &Store{
		inner: below,
		D:     cfg.D,
		B:     cfg.B,
		width: width,
		state: state{
			stripeOf: make(map[disk.Addr]int),
			stripes:  make(map[int]*stripe),
			parityAt: make(map[disk.Addr]int),
			pval:     make(map[int][]uint64),
			pdirty:   make(map[int]bool),
			left:     make(map[disk.Addr]bool),
			sums:     make(map[disk.Addr]uint64),
			remap:    make(map[disk.Addr]disk.Addr),
			rrmap:    make(map[disk.Addr]disk.Addr),
		},
		dead:      make([]bool, cfg.D),
		rmwOld:    make(map[disk.Addr][]uint64),
		wrote:     make(map[disk.Addr]bool),
		recompute: make(map[int]bool),
	}, nil
}

// Inner returns the chain beneath the redundancy layer.
func (s *Store) Inner() disk.Store { return s.inner }

// Counters returns the redundancy accounting.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctr
}

// CachePeak returns the most parity blocks the cache has held at once:
// with the operation buffers, what the layer holds outside the engine's
// accounted memory.
func (s *Store) CachePeak() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cachePeak
}

// DriveDied marks drive d permanently dead. The fault layer calls it at
// the moment of a scheduled drive death; from then on the Store never
// issues inner I/O against d — reads are reconstructed from the stripe's
// survivors, writes land on spare capacity of the survivors.
func (s *Store) DriveDied(d int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d >= 0 && d < s.D {
		s.dead[d] = true
	}
}

// parityUsable reports whether the stripe's parity track is readable.
func (s *Store) parityUsable(st *stripe) bool { return !s.dead[st.parity.Disk] }

// parityActive reports whether the stripe's parity can be maintained
// incrementally: its parity track is on a live drive and it is not
// awaiting a post-crash recomputation.
func (s *Store) parityActive(sid int) bool {
	return s.parityUsable(s.stripes[sid]) && !s.recompute[sid]
}

// chooseSpare returns a live drive other than d, rotated by salt so
// remapped tracks spread over the survivors.
func (s *Store) chooseSpare(d, salt int) (int, bool) {
	for i := 0; i < s.D; i++ {
		c := (d + 1 + salt + i) % s.D
		if c != d && !s.dead[c] {
			return c, true
		}
	}
	return 0, false
}

// rounds cuts a list of physical requests into parallel operations by
// its per-drive queues: operation r takes the r-th request of every
// drive, so a list costs its fullest drive's count in whatever order it
// arrives (sorted by drive and track, by stripe), and requests for one
// drive keep their order.
func rounds[R any](reqs []R, drive func(R) int) [][]R {
	var ops [][]R
	queued := make(map[int]int) // requests scheduled so far, per drive
	for _, r := range reqs {
		d := drive(r)
		if queued[d] == len(ops) {
			ops = append(ops, nil)
		}
		ops[queued[d]] = append(ops[queued[d]], r)
		queued[d]++
	}
	return ops
}

// readPhys issues physical reads grouped into valid parallel
// operations, transparently repairing tracks the inner store reports
// as corrupt (File's torn-write detection). It returns the number of
// operations issued.
func (s *Store) readPhys(reqs []disk.ReadReq) (int, error) {
	ops := 0
	for _, sub := range rounds(reqs, func(r disk.ReadReq) int { return r.Disk }) {
		for try := 0; ; try++ {
			err := s.inner.ReadOp(sub)
			ops++
			if err == nil {
				break
			}
			var cte *disk.CorruptTrackError
			if !errors.As(err, &cte) || try > len(sub) {
				return ops, err
			}
			s.ctr.ChecksumFailures++
			rops, rerr := s.repairTrack(disk.Addr{Disk: cte.Disk, Track: cte.Track})
			ops += rops
			if rerr != nil {
				return ops, rerr
			}
		}
	}
	return ops, nil
}

// writePhys issues physical writes grouped into valid parallel
// operations and records their checksums. It returns the number of
// operations issued.
func (s *Store) writePhys(reqs []disk.WriteReq) (int, error) {
	ops := 0
	for _, sub := range rounds(reqs, func(r disk.WriteReq) int { return r.Disk }) {
		if err := s.inner.WriteOp(sub); err != nil {
			return ops, err
		}
		ops++
	}
	for _, r := range reqs {
		s.sums[disk.Addr{Disk: r.Disk, Track: r.Track}] = disk.Checksum(r.Src)
	}
	return ops, nil
}

// physOf maps a logical data track to the physical location currently
// holding its bytes. The second result is false when no physical copy
// exists (dead drive, not remapped) and the data must be
// reconstructed.
func (s *Store) physOf(k disk.Addr) (disk.Addr, bool) {
	if m, ok := s.remap[k]; ok {
		return m, true
	}
	if s.dead[k.Disk] {
		return disk.Addr{}, false
	}
	return k, true
}

// loadParity ensures the stripe's current parity value is cached,
// reading (and verifying) the parity track if needed.
func (s *Store) loadParity(sid int) error {
	if _, ok := s.pval[sid]; ok {
		return nil
	}
	st := s.stripes[sid]
	if !s.parityUsable(st) {
		return fmt.Errorf("redundancy: parity of stripe %d is on dead drive %d", sid, st.parity.Disk)
	}
	buf := make([]uint64, s.B)
	ops, err := s.readParityTrack(sid, buf)
	s.parityReads(ops)
	if err != nil {
		return err
	}
	s.pval[sid] = buf
	return nil
}

// parityReads charges n parity-maintenance operations that read.
func (s *Store) parityReads(n int) {
	s.ctr.ParityOps += int64(n)
	s.ctr.ParityReadOps += int64(n)
}

// readParityTrack reads the stripe's stored parity into dst, verifying
// its recorded checksum and recomputing it from the members when the
// stored copy is corrupt.
func (s *Store) readParityTrack(sid int, dst []uint64) (int, error) {
	st := s.stripes[sid]
	p := st.parity
	ops, err := s.readPhys([]disk.ReadReq{{Disk: p.Disk, Track: p.Track, Dst: dst}})
	if err != nil {
		return ops, err
	}
	if want, ok := s.sums[p]; ok && disk.Checksum(dst) != want {
		s.ctr.ChecksumFailures++
		n, err := s.repairTrack(p)
		ops += n
		if err != nil {
			return ops, err
		}
		n, err = s.readPhys([]disk.ReadReq{{Disk: p.Disk, Track: p.Track, Dst: dst}})
		ops += n
		if err != nil {
			return ops, err
		}
	}
	return ops, nil
}

// reconstruct XORs the stripe's parity value with every member other
// than skip, yielding skip's data. All other members are readable (a
// stripe never has two members on one logical drive, and only one
// drive can be dead). The charged operations are counted as
// DegradedOps by the caller via the returned op count.
func (s *Store) reconstruct(sid int, skip disk.Addr, dst []uint64) (int, error) {
	st := s.stripes[sid]
	if s.recompute[sid] {
		// The stored parity is known stale (crash residue Reconcile
		// could not absorb) and will only be recomputed at the next
		// barrier; reconstructing from it would return silent garbage.
		return 0, fmt.Errorf("redundancy: cannot reconstruct drive %d track %d: stripe %d's parity is stale after a crash and awaits recomputation", skip.Disk, skip.Track, sid)
	}
	ops := 0
	if pv, ok := s.pval[sid]; ok {
		copy(dst, pv)
	} else {
		if !s.parityUsable(st) {
			return 0, fmt.Errorf("redundancy: cannot reconstruct drive %d track %d: stripe %d's parity is on dead drive %d", skip.Disk, skip.Track, sid, st.parity.Disk)
		}
		n, err := s.readParityTrack(sid, dst)
		ops += n
		if err != nil {
			return ops, err
		}
	}
	var reqs []disk.ReadReq
	var bufs [][]uint64
	for d := 0; d < s.D; d++ {
		t := st.members[d]
		if t < 0 || (d == skip.Disk && t == skip.Track) {
			continue
		}
		p, ok := s.physOf(disk.Addr{Disk: d, Track: t})
		if !ok {
			return ops, fmt.Errorf("redundancy: two lost members in stripe %d (drive %d track %d and drive %d track %d)", sid, skip.Disk, skip.Track, d, t)
		}
		if old, ok := s.rmwOld[p]; ok && !s.wrote[p] {
			// Rewritten in place this superstep but not yet by the
			// current attempt: the parity state still encodes the
			// barrier value, which only the cache holds.
			for i := range dst {
				dst[i] ^= old[i]
			}
			continue
		}
		buf := make([]uint64, s.B)
		bufs = append(bufs, buf)
		reqs = append(reqs, disk.ReadReq{Disk: p.Disk, Track: p.Track, Dst: buf})
	}
	n, err := s.readPhys(reqs)
	ops += n
	if err != nil {
		return ops, err
	}
	for _, b := range bufs {
		for i := range dst {
			dst[i] ^= b[i]
		}
	}
	s.ctr.ReconstructedBlocks++
	return ops, nil
}

// repairTrack rewrites the physical track p with data reconstructed
// from its stripe, returning the operations spent. It handles both
// data tracks (reconstructed from parity and siblings) and parity
// tracks (recomputed from the members). The recorded checksum is the
// repair target, so a successful repair restores exactly the
// last-written content.
func (s *Store) repairTrack(p disk.Addr) (int, error) {
	buf := make([]uint64, s.B)
	if sid, ok := s.parityAt[p]; ok {
		// A parity track: the cached value, when present, is
		// authoritative (it may carry this superstep's pending updates,
		// which a recompute from the members would discard); only an
		// uncached stripe is recomputed.
		ops := 0
		if pv, cached := s.pval[sid]; cached {
			copy(buf, pv)
		} else {
			var err error
			ops, err = s.recomputeParity(sid, buf)
			if err != nil {
				return ops, err
			}
		}
		n, err := s.writePhys([]disk.WriteReq{{Disk: p.Disk, Track: p.Track, Src: buf}})
		ops += n
		if err != nil {
			return ops, err
		}
		delete(s.pdirty, sid) // the stored copy now matches the cache
		s.ctr.RepairedBlocks++
		return ops, nil
	}
	logical := p
	if l, ok := s.rrmap[p]; ok {
		logical = l
	}
	sid, ok := s.stripeOf[logical]
	if !ok {
		return 0, fmt.Errorf("redundancy: cannot repair unprotected track (drive %d track %d)", p.Disk, p.Track)
	}
	ops, err := s.reconstruct(sid, logical, buf)
	if err != nil {
		return ops, err
	}
	if want, ok := s.sums[p]; ok && disk.Checksum(buf) != want {
		return ops, fmt.Errorf("redundancy: reconstruction of drive %d track %d does not match its recorded checksum", p.Disk, p.Track)
	}
	n, err := s.writePhys([]disk.WriteReq{{Disk: p.Disk, Track: p.Track, Src: buf}})
	ops += n
	if err != nil {
		return ops, err
	}
	s.ctr.RepairedBlocks++
	return ops, nil
}

// recomputeParity XORs the current data of every member of the stripe
// into dst (reading members from their physical locations). Its callers
// write dst over the stored parity, so the stripe's leavers are not
// folded in and, on success, forgotten.
func (s *Store) recomputeParity(sid int, dst []uint64) (int, error) {
	st := s.stripes[sid]
	clear(dst)
	var reqs []disk.ReadReq
	var bufs [][]uint64
	var left []disk.Addr
	for d := 0; d < s.D; d++ {
		t := st.members[d]
		if t < 0 {
			continue
		}
		if k := (disk.Addr{Disk: d, Track: t}); s.left[k] {
			left = append(left, k)
			continue
		}
		p, ok := s.physOf(disk.Addr{Disk: d, Track: t})
		if !ok {
			return 0, fmt.Errorf("redundancy: recomputing parity of stripe %d: member on dead drive %d", sid, d)
		}
		if old, ok := s.rmwOld[p]; ok {
			// The stored parity being recomputed encodes the barrier
			// state; a member rewritten in place this superstep
			// contributes its barrier-committed value (already verified
			// when it was captured).
			for i := range dst {
				dst[i] ^= old[i]
			}
			continue
		}
		buf := make([]uint64, s.B)
		bufs = append(bufs, buf)
		reqs = append(reqs, disk.ReadReq{Disk: p.Disk, Track: p.Track, Dst: buf})
	}
	ops, err := s.readPhys(reqs)
	if err != nil {
		return ops, err
	}
	// Verify the members before folding them in: recomputing parity
	// from a corrupt member would launder the corruption into parity
	// that then "verifies".
	for i, r := range reqs {
		if want, ok := s.sums[disk.Addr{Disk: r.Disk, Track: r.Track}]; ok && disk.Checksum(bufs[i]) != want {
			return ops, fmt.Errorf("redundancy: recomputing parity of stripe %d: member drive %d track %d fails its checksum", sid, r.Disk, r.Track)
		}
	}
	for _, b := range bufs {
		for i := range dst {
			dst[i] ^= b[i]
		}
	}
	for _, k := range left {
		s.forget(k)
	}
	return ops, nil
}

// ReadOp performs one parallel read. Live tracks are read directly
// (verifying recorded checksums and repairing latent corruption from
// parity); dead-drive tracks are served from their remapped location or
// reconstructed from the stripe's survivors; blank tracks read as zeros,
// exactly as on the raw store.
func (s *Store) ReadOp(reqs []disk.ReadReq) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(reqs) == 0 {
		return nil
	}
	var direct []disk.ReadReq
	directPhys := make([]disk.Addr, 0, len(reqs))
	var recon []int
	degraded := false
	for i, r := range reqs {
		k := disk.Addr{Disk: r.Disk, Track: r.Track}
		p, ok := s.physOf(k)
		switch {
		case ok:
			if p.Disk != r.Disk || p.Track != r.Track {
				degraded = true
			}
			direct = append(direct, disk.ReadReq{Disk: p.Disk, Track: p.Track, Dst: r.Dst})
			directPhys = append(directPhys, p)
		default:
			if _, striped := s.stripeOf[k]; striped {
				recon = append(recon, i)
				degraded = true
			} else {
				// Dead and never striped: the track was blank at the death
				// (fresh writes since then are remapped), so it still reads
				// as zeros.
				clear(r.Dst)
			}
		}
	}
	ops := 0
	if len(direct) > 0 {
		n, err := s.readPhys(direct)
		ops += n
		if err != nil {
			return err
		}
		// Verify recorded checksums; a mismatch is latent corruption the
		// inner store could not detect itself — reconstruct and repair.
		for i, r := range direct {
			p := directPhys[i]
			want, ok := s.sums[p]
			if !ok || disk.Checksum(r.Dst) == want {
				continue
			}
			s.ctr.ChecksumFailures++
			degraded = true
			n, err := s.repairTrack(p)
			ops += n
			if err != nil {
				return err
			}
			n, err = s.readPhys([]disk.ReadReq{r})
			ops += n
			if err != nil {
				return err
			}
			if disk.Checksum(r.Dst) != want {
				return &disk.CorruptTrackError{Disk: p.Disk, Track: p.Track}
			}
		}
	}
	for _, i := range recon {
		k := disk.Addr{Disk: reqs[i].Disk, Track: reqs[i].Track}
		n, err := s.reconstruct(s.stripeOf[k], k, reqs[i].Dst)
		ops += n
		if err != nil {
			return err
		}
		if want, ok := s.sums[k]; ok && disk.Checksum(reqs[i].Dst) != want {
			return &disk.CorruptTrackError{Disk: k.Disk, Track: k.Track}
		}
	}
	if degraded && ops > 1 {
		s.ctr.DegradedOps += int64(ops - 1)
	}
	return nil
}

// WriteOp performs one parallel write. An unstriped track joins a stripe
// of this superstep then and there — the only way in — and its data is
// folded into that stripe's cached parity from memory; once D stripes
// have filled, their parity is written and leaves the cache, so what the
// layer holds outside the engine's M stays a few blocks per drive. A
// write to a striped track updates the cached parity with the classic
// read-modify-write small write (the old data is read back first, a
// charged operation). Writes to dead-drive tracks land on spare capacity
// of the survivors and are remapped from then on.
func (s *Store) WriteOp(reqs []disk.WriteReq) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(reqs) == 0 {
		return nil
	}
	// Read old data of striped targets first (parity maintenance).
	type oldRead struct {
		sid int
		buf []uint64
	}
	var olds []oldRead
	var oldReqs []disk.ReadReq
	type oldCap struct {
		pk  disk.Addr
		buf []uint64
	}
	var oldCapture []oldCap // first-touched members to cache after the read
	var oldRecon []oldRead
	for _, r := range reqs {
		k := disk.Addr{Disk: r.Disk, Track: r.Track}
		sid, ok := s.stripeOf[k]
		if !ok || !s.parityActive(sid) {
			continue
		}
		buf := make([]uint64, s.B)
		if p, live := s.physOf(k); live {
			if old, ok := s.rmwOld[p]; ok && !s.wrote[p] {
				// First rewrite by a replaying attempt: the track already
				// holds the aborted attempt's data, the parity encodes
				// the cached barrier value.
				copy(buf, old)
				olds = append(olds, oldRead{sid, buf})
			} else {
				if !s.wrote[p] {
					oldCapture = append(oldCapture, oldCap{p, buf})
				}
				olds = append(olds, oldRead{sid, buf})
				oldReqs = append(oldReqs, disk.ReadReq{Disk: p.Disk, Track: p.Track, Dst: buf})
			}
		} else {
			// Rewrite of a dead member: its old value must be
			// reconstructed before parity can drop it.
			n, err := s.reconstruct(sid, k, buf)
			s.ctr.DegradedOps += int64(n)
			if err != nil {
				return err
			}
			oldRecon = append(oldRecon, oldRead{sid, buf})
		}
	}
	if len(oldReqs) > 0 {
		n, err := s.readPhys(oldReqs)
		s.parityReads(n)
		if err != nil {
			return err
		}
		// Verify the old data against its recorded checksum before it is
		// folded out of parity or captured as the barrier value. A
		// mismatch is latent corruption — folding it out would silently
		// leave parity encoding the corrupt bytes; reconstruct the real
		// content from parity first, exactly as the read path does.
		for i, r := range oldReqs {
			pk := disk.Addr{Disk: r.Disk, Track: r.Track}
			want, ok := s.sums[pk]
			if !ok || disk.Checksum(r.Dst) == want {
				continue
			}
			s.ctr.ChecksumFailures++
			n, err := s.repairTrack(pk)
			s.ctr.DegradedOps += int64(n)
			if err != nil {
				return err
			}
			n, err = s.readPhys([]disk.ReadReq{oldReqs[i]})
			s.ctr.DegradedOps += int64(n)
			if err != nil {
				return err
			}
			if disk.Checksum(r.Dst) != want {
				return &disk.CorruptTrackError{Disk: pk.Disk, Track: pk.Track}
			}
		}
		for _, c := range oldCapture {
			s.rmwOld[c.pk] = append([]uint64(nil), c.buf...)
		}
	}
	// Fold old and new data into the cached parity values.
	olds = append(olds, oldRecon...)
	for _, o := range olds {
		if err := s.loadParity(o.sid); err != nil {
			return err
		}
		pv := s.pval[o.sid]
		for i := range pv {
			pv[i] ^= o.buf[i]
		}
		s.pdirty[o.sid] = true
	}
	xorNew := func(k disk.Addr, src []uint64) error {
		sid, ok := s.stripeOf[k]
		if !ok {
			sid, ok = s.assign(k)
		}
		if !ok || !s.parityActive(sid) {
			return nil // unprotected, or protected again once recomputed
		}
		if err := s.loadParity(sid); err != nil {
			return err
		}
		pv := s.pval[sid]
		for i := range pv {
			pv[i] ^= src[i]
		}
		s.pdirty[sid] = true
		return nil
	}
	// Resolve physical targets, remapping dead-drive writes.
	phys := make([]disk.WriteReq, len(reqs))
	degraded := false
	for i, r := range reqs {
		k := disk.Addr{Disk: r.Disk, Track: r.Track}
		if err := xorNew(k, r.Src); err != nil {
			return err
		}
		p, live := s.physOf(k)
		if !live {
			sd, ok := s.chooseSpare(k.Disk, k.Track)
			if !ok {
				return fmt.Errorf("redundancy: no live drive to remap drive %d track %d onto", k.Disk, k.Track)
			}
			p = disk.Addr{Disk: sd, Track: s.inner.Alloc(sd)}
			s.remap[k] = p
			s.rrmap[p] = k
			delete(s.sums, k) // the historical location is dead
		}
		if p.Disk != r.Disk {
			degraded = true
		}
		phys[i] = disk.WriteReq{Disk: p.Disk, Track: p.Track, Src: r.Src}
		s.wrote[p] = true
	}
	ops, err := s.writePhys(phys)
	if err != nil {
		return err
	}
	if ops > 1 {
		if degraded {
			s.ctr.DegradedOps += int64(ops - 1)
		} else {
			s.ctr.ParityOps += int64(ops - 1)
		}
	}
	s.cachePeak = max(s.cachePeak, len(s.pval))
	if len(s.filled) < s.D {
		return nil
	}
	// Bound the cache: a stripe of this superstep that is full takes no
	// more members, and is in no barrier state a rollback returns to, so
	// its parity can go to disk now, D stripes to a write. A later rewrite
	// of a member loads it back (loadParity).
	err = s.writeParity(s.filled)
	for _, sid := range s.filled {
		delete(s.pval, sid)
	}
	s.filled = s.filled[:0]
	return err
}

// writeParity writes the cached parity of those of sids that are dirty,
// except a stripe whose parity drive has died (unprotected until its
// members leave).
func (s *Store) writeParity(sids []int) error {
	reqs := make([]disk.WriteReq, 0, len(sids))
	for _, sid := range sids {
		if st := s.stripes[sid]; s.pdirty[sid] && s.parityUsable(st) {
			reqs = append(reqs, disk.WriteReq{Disk: st.parity.Disk, Track: st.parity.Track, Src: s.pval[sid]})
		}
		delete(s.pdirty, sid)
	}
	n, err := s.writePhys(reqs)
	s.ctr.ParityOps += int64(n)
	return err
}

// Release frees a logical track without I/O, and is the only way out of a
// stripe: a striped member joins the leaver list at once, and its stripe, a
// member short, takes no more; the inner Release — and with it any reuse of
// the track — is held until the next FlushParity has folded the leavers
// out, so until then the bytes stay where parity encodes them.
func (s *Store) Release(d, t int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := disk.Addr{Disk: d, Track: t}
	if sid, ok := s.stripeOf[k]; ok && !s.left[k] {
		s.left[k] = true
		s.stripes[sid].count--
		s.ctr.StripedBlocks--
		s.removeOpen(sid)
	}
	s.held = append(s.held, k)
	return nil
}

// foldLeavers settles the leaver list at the barrier. A stripe all of
// whose members have left is dropped with no I/O, and a stripe whose
// parity is not being maintained just loses the leavers. For the stripes
// with survivors the stored parity (unless cached) and the leavers' bytes
// are read in one scheduled batch and every block is verified against its
// recorded checksum before it is folded; a stripe with a failing or lost
// block is left to the recomputation from its verified members at the end
// of the flush, never folded from unverified bytes.
func (s *Store) foldLeavers() error {
	type fold struct {
		sid  int
		k    disk.Addr      // one of its leavers
		idle bool           // nothing to fold: no survivor, or parity not maintained
		read []disk.ReadReq // the parity track unless cached, then the leavers
		olds [][]uint64     // leavers parity encodes by their barrier value
		lost bool           // a leaver has no physical copy
	}
	var folds []*fold
	var reqs []disk.ReadReq
	bySid := make(map[int]*fold)
	keys := disk.SortedAddrs(s.left)
	for _, k := range keys {
		sid := s.stripeOf[k]
		f := bySid[sid]
		if f == nil {
			st := s.stripes[sid]
			f = &fold{sid: sid, k: k, idle: st.count == 0 || !s.parityActive(sid)}
			bySid[sid], folds = f, append(folds, f)
			if _, cached := s.pval[sid]; !cached && !f.idle {
				f.read = append(f.read, disk.ReadReq{Disk: st.parity.Disk, Track: st.parity.Track, Dst: make([]uint64, s.B)})
			}
		}
		if f.idle {
			continue
		}
		p, live := s.physOf(k)
		switch old, ok := s.rmwOld[p]; {
		case !live:
			f.lost = true
		case ok && !s.wrote[p]:
			f.olds = append(f.olds, old)
		default:
			f.read = append(f.read, disk.ReadReq{Disk: p.Disk, Track: p.Track, Dst: make([]uint64, s.B)})
		}
	}
	for _, f := range folds {
		reqs = append(reqs, f.read...)
	}
	n, err := s.readPhys(reqs)
	s.parityReads(n)
	if err != nil {
		return err
	}
	for _, f := range folds {
		if f.idle || !s.left[f.k] {
			continue // or a repair under the read recomputed this stripe's parity
		}
		bad := f.lost
		for _, r := range f.read {
			if want, ok := s.sums[disk.Addr{Disk: r.Disk, Track: r.Track}]; ok && disk.Checksum(r.Dst) != want {
				s.ctr.ChecksumFailures++
				bad = true
			}
		}
		if bad {
			s.recompute[f.sid] = true
			delete(s.pdirty, f.sid)
			continue
		}
		pv, cached := s.pval[f.sid]
		if !cached {
			pv, f.read = f.read[0].Dst, f.read[1:]
			s.pval[f.sid] = pv
		}
		for _, r := range f.read {
			f.olds = append(f.olds, r.Dst)
		}
		for _, b := range f.olds {
			for w := range pv {
				pv[w] ^= b[w]
			}
		}
		s.pdirty[f.sid] = true
	}
	for _, k := range keys {
		s.forget(k)
	}
	for _, f := range folds {
		if s.stripes[f.sid].count == 0 {
			s.dropStripe(f.sid)
		}
	}
	return nil
}

// forget ends a leaver's membership, once its stripe's parity no longer
// encodes it or is about to be replaced by one that does not. Its bytes
// are dead from here on: there is no checksum to hold them to.
func (s *Store) forget(k disk.Addr) {
	if sid, ok := s.stripeOf[k]; ok {
		s.stripes[sid].members[k.Disk] = -1
		delete(s.stripeOf, k)
		if p, live := s.physOf(k); live {
			delete(s.sums, p)
		}
	}
	delete(s.left, k)
}

// dropStripe frees an empty stripe and its parity track.
func (s *Store) dropStripe(sid int) {
	st := s.stripes[sid]
	delete(s.parityAt, st.parity)
	delete(s.sums, st.parity)
	delete(s.pval, sid)
	delete(s.pdirty, sid)
	delete(s.recompute, sid)
	delete(s.stripes, sid)
	if !s.dead[st.parity.Disk] {
		s.inner.Release(st.parity.Disk, st.parity.Track) //nolint:errcheck
	}
	s.ctr.ParityBlocks--
}

func (s *Store) removeOpen(sid int) {
	i := sort.SearchInts(s.open, sid)
	if i < len(s.open) && s.open[i] == sid {
		s.open = append(s.open[:i], s.open[i+1:]...)
	}
}

// assign places a track being written for the first time into a stripe
// of this superstep: the first open one with a usable parity track, a
// free slot on the track's drive and a parity drive other than it;
// otherwise a new stripe whose parity track is allocated now. A parity
// stripe's parity drive continues the rotation; a copy goes on the next
// live drive after its member's, so the copies of one operation's tracks
// never share a drive (at D = 2 the two rules agree). When no live drive
// can hold parity (D = 2 with the survivor writing), the track is left
// unprotected and assign reports ok = false.
func (s *Store) assign(k disk.Addr) (sid int, ok bool) {
	for _, sid := range s.open {
		st := s.stripes[sid]
		if st.members[k.Disk] < 0 && st.parity.Disk != k.Disk && s.parityActive(sid) && !st.full(s.width) {
			st.members[k.Disk] = k.Track
			st.count++
			s.stripeOf[k] = sid
			s.ctr.StripedBlocks++
			if st.full(s.width) {
				s.removeOpen(sid)
				s.filled = append(s.filled, sid)
			}
			return sid, true
		}
	}
	pd := -1
	for i := 0; i < s.D; i++ {
		c := (s.next + i) % s.D
		if s.width == 1 {
			c = (k.Disk + 1 + i) % s.D
		}
		if c != k.Disk && !s.dead[c] {
			pd = c
			break
		}
	}
	if pd < 0 {
		return 0, false
	}
	sid = s.next
	s.next++
	st := &stripe{parity: disk.Addr{Disk: pd, Track: s.inner.Alloc(pd)}, members: make([]int, s.D)}
	for d := range st.members {
		st.members[d] = -1
	}
	st.members[k.Disk] = k.Track
	st.count = 1
	s.stripes[sid] = st
	s.parityAt[disk.Addr{Disk: pd, Track: st.parity.Track}] = sid
	s.stripeOf[k] = sid
	s.pval[sid] = make([]uint64, s.B)
	s.pdirty[sid] = true
	s.ctr.ParityBlocks++
	s.ctr.StripedBlocks++
	if st.full(s.width) {
		s.filled = append(s.filled, sid)
	} else {
		s.open = append(s.open, sid) // ids only grow: still ascending
	}
	return sid, true
}

// Seal closes every open stripe: a track written after it shares no
// stripe with one written before. A stripe a member short takes no more,
// as if full, and its parity goes to disk with the full ones'. A client
// whose tracks of one superstep leave at different barriers seals around
// the ones that may outlive the others, so every stripe still leaves
// whole and no barrier folds a leaver out by reading it back.
func (s *Store) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.filled = append(s.filled, s.open...)
	s.open = s.open[:0]
}

// FlushParity is the barrier commit point of the parity scheme: the
// leavers are folded out of their stripes (foldLeavers), every stripe
// whose cached parity is newer than its track is written back, the
// in-memory parity cache is dropped and every open stripe is closed — a
// stripe holds one superstep's tracks. It reads no data track written
// since the last flush. The engines call it at every compound-superstep
// barrier (and before every journal commit), so committed state always
// carries consistent parity.
//
// Only then are the tracks released since the last flush handed to the
// allocator, which is the layer's share of the commit ordering: nothing
// released since the last decision record is allocated — wiped,
// overwritten — before the next one, so a crash between this barrier's
// flush and its record resumes from the last record with every track it
// names intact. (Parity tracks are allocated while the superstep writes,
// never here.)
func (s *Store) FlushParity() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.foldLeavers(); err != nil {
		return err
	}
	s.cachePeak = max(s.cachePeak, len(s.pval))
	sids := make([]int, 0, len(s.pdirty))
	for sid := range s.pdirty {
		sids = append(sids, sid)
	}
	sort.Ints(sids)
	if err := s.writeParity(sids); err != nil {
		return err
	}
	// Drop the caches: memory stays bounded by the stripes and members
	// touched in one superstep, not by the run. The barrier makes the
	// physical state authoritative again, so the rewrite history of the
	// finished superstep is no longer needed.
	s.pval = make(map[int][]uint64)
	s.rmwOld = make(map[disk.Addr][]uint64)
	s.wrote = make(map[disk.Addr]bool)
	s.open, s.filled = s.open[:0], s.filled[:0]
	// Stripes whose parity went stale — across a crash (Reconcile could
	// not recompute them at resume time), or by a leaver that could not be
	// folded out — are recomputed here from their members, once those are
	// readable.
	if len(s.recompute) > 0 {
		sids := make([]int, 0, len(s.recompute))
		for sid := range s.recompute {
			sids = append(sids, sid)
		}
		sort.Ints(sids)
		for _, sid := range sids {
			if _, err := s.recomputeStaleParity(sid); err != nil {
				return err
			}
		}
	}
	for _, k := range s.held {
		if m, ok := s.remap[k]; ok {
			delete(s.remap, k)
			delete(s.rrmap, m)
			delete(s.sums, m)
			if err := s.inner.Release(m.Disk, m.Track); err != nil {
				return err
			}
		}
		delete(s.sums, k)
		if err := s.inner.Release(k.Disk, k.Track); err != nil {
			return err
		}
	}
	s.held = s.held[:0]
	return nil
}

// recomputeStaleParity recomputes and rewrites the parity of a
// recompute-marked stripe from the current member contents, clearing
// the mark on success. It keeps the mark (done = false, no error)
// while the stripe cannot be recomputed: a member is torn and not yet
// rewritten, or a member or the parity track sits on a dead drive (the
// mark then lasts until the stripe's members leave). Its I/O is
// recovery work outside any superstep's accounting, so no redundancy
// counters are charged.
func (s *Store) recomputeStaleParity(sid int) (done bool, err error) {
	st, ok := s.stripes[sid]
	if !ok {
		delete(s.recompute, sid)
		return true, nil
	}
	if !s.parityUsable(st) {
		return false, nil
	}
	dst := make([]uint64, s.B)
	buf := make([]uint64, s.B)
	for d := 0; d < s.D; d++ {
		t := st.members[d]
		if t < 0 {
			continue
		}
		p, ok := s.physOf(disk.Addr{Disk: d, Track: t})
		if !ok {
			return false, nil
		}
		rerr := s.inner.ReadOp([]disk.ReadReq{{Disk: p.Disk, Track: p.Track, Dst: buf}})
		var cte *disk.CorruptTrackError
		if errors.As(rerr, &cte) {
			return false, nil
		}
		if rerr != nil {
			return false, rerr
		}
		if want, ok := s.sums[p]; ok && disk.Checksum(buf) != want {
			return false, fmt.Errorf("redundancy: recomputing stale parity of stripe %d: member drive %d track %d fails its checksum", sid, p.Disk, p.Track)
		}
		for i := range dst {
			dst[i] ^= buf[i]
		}
	}
	if _, werr := s.writePhys([]disk.WriteReq{{Disk: st.parity.Disk, Track: st.parity.Track, Src: dst}}); werr != nil {
		return false, werr
	}
	delete(s.recompute, sid)
	return true, nil
}

// Scrub examines up to budget physical tracks from the persistent
// cursor, re-reading every checksummed one and repairing latent
// corruption from parity. It reports whether the cursor completed a
// full cycle over all drives during this call. Dead drives and
// uncheck-summed (blank or released) tracks are skipped. Scrub must
// run at a barrier (after FlushParity), where parity is consistent.
func (s *Store) Scrub(budget int) (wrapped bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if budget <= 0 {
		return false, nil
	}
	next := s.inner.State().Next
	buf := make([]uint64, s.B)
	for examined := 0; examined < budget; examined++ {
		// Advance to the next live track within bounds.
		for s.scrubD < s.D && (s.dead[s.scrubD] || s.scrubT >= next[s.scrubD]) {
			s.scrubD++
			s.scrubT = 0
		}
		if s.scrubD >= s.D {
			s.scrubD, s.scrubT = 0, 0
			return true, nil
		}
		p := disk.Addr{Disk: s.scrubD, Track: s.scrubT}
		s.scrubT++
		want, ok := s.sums[p]
		if !ok {
			continue
		}
		if _, err := s.readPhys([]disk.ReadReq{{Disk: p.Disk, Track: p.Track, Dst: buf}}); err != nil {
			return false, err
		}
		s.ctr.ScrubbedBlocks++
		if disk.Checksum(buf) == want {
			continue
		}
		s.ctr.ChecksumFailures++
		// A failed repair (e.g. two corruptions in one stripe — beyond
		// single-failure tolerance) is recorded but does not abort the
		// scrub: the track stays corrupt and a read of it will report
		// the damage.
		if _, err := s.repairTrack(p); err == nil {
			s.ctr.ScrubRepairs++
		}
	}
	return false, nil
}

// Snapshot captures the layer's rollback state for a superstep replay:
// the stripe directory, the leaver and held-release lists, checksums,
// remaps and parity cache. Dead
// drives, the scrub cursor and the counters are deliberately
// not part of it — a replay is new work on the same (possibly
// degraded) hardware, and work already spent really happened. This
// mirrors the fault layer's Snapshot philosophy.
type Snapshot struct {
	state
	striped, parityBl int64
}

// Snapshot captures rollback state at a compound-superstep barrier.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Snapshot{s.state.clone(), s.ctr.StripedBlocks, s.ctr.ParityBlocks}
}

// Restore rolls the layer back to a snapshot. The snapshot remains
// valid for further Restores.
func (s *Store) Restore(sn *Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = sn.state.clone()
	s.ctr.StripedBlocks = sn.striped
	s.ctr.ParityBlocks = sn.parityBl
	// A restore starts a fresh attempt: nothing is written yet. rmwOld
	// deliberately survives — it holds the barrier-committed content of
	// members the aborted attempt already overwrote in place, which the
	// replay needs for its parity arithmetic.
	s.wrote = make(map[disk.Addr]bool)
}

// EncodeState appends the layer's complete persistent state to enc in
// deterministic order: dead drives, the stripe directory, checksums,
// remaps, the scrub cursor, and the counters. A journal commit must
// capture everything — a resumed process replaces the crashed one
// entirely, so the scrub continues at its cursor. It must be
// called at a barrier, after FlushParity (the parity cache and the
// leaver and held-release lists are empty there and are not encoded).
func (s *Store) EncodeState(enc *words.Encoder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	enc.PutInt(int64(s.D))
	for _, d := range s.dead {
		enc.PutBool(d)
	}
	enc.PutInt(int64(s.next))
	enc.PutInts([]int64{int64(s.scrubD), int64(s.scrubT)})
	c := s.ctr
	enc.PutInts([]int64{
		c.ChecksumFailures, c.RepairedBlocks, c.ReconstructedBlocks, c.DegradedOps,
		c.ParityOps, c.ParityBlocks, c.StripedBlocks, c.ScrubbedBlocks, c.ScrubRepairs,
		c.ParityReadOps,
	})

	sids := make([]int, 0, len(s.stripes))
	for sid := range s.stripes {
		sids = append(sids, sid)
	}
	sort.Ints(sids)
	enc.PutInt(int64(len(sids)))
	for _, sid := range sids {
		st := s.stripes[sid]
		enc.PutInt(int64(sid))
		enc.PutInt(int64(st.parity.Disk))
		enc.PutInt(int64(st.parity.Track))
		for _, t := range st.members {
			enc.PutInt(int64(t))
		}
	}

	sumKeys := disk.SortedAddrs(s.sums)
	enc.PutInt(int64(len(sumKeys)))
	for _, k := range sumKeys {
		enc.PutInt(int64(k.Disk))
		enc.PutInt(int64(k.Track))
		enc.PutUint(s.sums[k])
	}

	remapKeys := disk.SortedAddrs(s.remap)
	enc.PutInt(int64(len(remapKeys)))
	for _, k := range remapKeys {
		m := s.remap[k]
		enc.PutInt(int64(k.Disk))
		enc.PutInt(int64(k.Track))
		enc.PutInt(int64(m.Disk))
		enc.PutInt(int64(m.Track))
	}
}

// DecodeState restores state previously written by EncodeState,
// rebuilding the derived directories (stripe membership, parity
// locations, reverse remap). No stripe is open at a barrier.
func (s *Store) DecodeState(dec *words.Decoder) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	nd := int(dec.Int())
	if nd != s.D {
		return fmt.Errorf("redundancy: decoding state for %d drives into %d-drive layer", nd, s.D)
	}
	for d := range s.dead {
		s.dead[d] = dec.Bool()
	}
	s.next = int(dec.Int())
	cur := dec.Ints()
	if len(cur) != 2 {
		return fmt.Errorf("redundancy: cursor state has %d fields, want 2", len(cur))
	}
	s.scrubD, s.scrubT = int(cur[0]), int(cur[1])
	cs := dec.Ints()
	if len(cs) != 10 {
		return fmt.Errorf("redundancy: counter state has %d fields, want 10", len(cs))
	}
	s.ctr = Counters{
		ChecksumFailures: cs[0], RepairedBlocks: cs[1], ReconstructedBlocks: cs[2],
		DegradedOps: cs[3], ParityOps: cs[4], ParityBlocks: cs[5], StripedBlocks: cs[6],
		ScrubbedBlocks: cs[7], ScrubRepairs: cs[8], ParityReadOps: cs[9],
	}

	s.stripes = make(map[int]*stripe)
	s.stripeOf = make(map[disk.Addr]int)
	s.parityAt = make(map[disk.Addr]int)
	s.open = nil
	for n := dec.Int(); n > 0; n-- {
		sid := int(dec.Int())
		st := &stripe{members: make([]int, s.D)}
		st.parity = disk.Addr{Disk: int(dec.Int()), Track: int(dec.Int())}
		for d := 0; d < s.D; d++ {
			st.members[d] = int(dec.Int())
			if st.members[d] >= 0 {
				st.count++
				s.stripeOf[disk.Addr{Disk: d, Track: st.members[d]}] = sid
			}
		}
		s.stripes[sid] = st
		s.parityAt[st.parity] = sid
	}

	s.sums = make(map[disk.Addr]uint64)
	for n := dec.Int(); n > 0; n-- {
		d := int(dec.Int())
		t := int(dec.Int())
		s.sums[disk.Addr{Disk: d, Track: t}] = dec.Uint()
	}
	s.remap = make(map[disk.Addr]disk.Addr)
	s.rrmap = make(map[disk.Addr]disk.Addr)
	for n := dec.Int(); n > 0; n-- {
		k := disk.Addr{Disk: int(dec.Int()), Track: int(dec.Int())}
		m := disk.Addr{Disk: int(dec.Int()), Track: int(dec.Int())}
		s.remap[k] = m
		s.rrmap[m] = k
	}
	s.pval = make(map[int][]uint64)
	s.pdirty = make(map[int]bool)
	s.left = make(map[disk.Addr]bool)
	s.filled, s.held = nil, nil
	return nil
}

// Reconcile re-establishes the parity invariant after a crash-resume;
// the engines call it once, right after DecodeState and before the
// replay starts.
//
// A client that rewrites committed striped tracks in place leaves, when
// it is killed mid-superstep, tracks the manifest's parity does not
// encode, and the in-memory rmwOld cache that lets a same-process replay
// fold the barrier content out of parity dies with the process. (The
// engines' runs no longer do: a superstep writes only tracks it
// allocated, and a barrier's flush writes parity only to tracks allocated
// since the last record. There the scan below finds a track that rotted
// at rest, or nothing.) A resumed process of such a client therefore
// faces physical tracks that may hold the crashed attempt's bytes
// (checksum mismatch against the manifest) or a torn write (the inner
// store's own per-track checksum fails), with stored
// parity encoding either the barrier state (crash before FlushParity)
// or the aborted barrier's state (crash between FlushParity and the
// journal commit). Left alone, the replay's read-modify-write would
// fold the crashed bytes out of parity as if they were the barrier
// content, leaving parity silently stale — the classic RAID write
// hole.
//
// Reconcile scans every checksummed live track. A stripe with exactly
// one bad track is repaired the ordinary way: the committed content is
// reconstructed from the surviving tracks and rewritten. A stripe with
// several bad tracks cannot be rolled back — parity is one equation —
// so the current physical content is adopted instead: member checksums
// are updated to match what is on disk and parity is recomputed from
// it. Adoption is sound because the deterministic replay rewrites
// exactly the crashed attempt's tracks before the next barrier, and
// the read-modify-write only needs the "old" value it folds out to be
// the value parity currently encodes. When a member of such a stripe
// is torn or lost (on a dead drive) the recomputation is
// deferred to the next FlushParity via the recompute set, and reads
// needing reconstruction from the stripe fail loudly until then: crash
// residue plus a lost member in one stripe is genuinely beyond
// single-failure tolerance.
//
// Reconcile is accounting-neutral: its repair I/O is real but belongs
// to no superstep, so the inner Stats and the redundancy Counters are
// restored around it and a resumed run's figures stay bitwise
// identical to an uninterrupted one.
func (s *Store) Reconcile() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ctr := s.ctr
	st := s.inner.State()
	err := s.reconcile()
	s.ctr = ctr
	if aerr := s.inner.AdoptState(st); err == nil {
		err = aerr
	}
	return err
}

func (s *Store) reconcile() error {
	keys := disk.SortedAddrs(s.sums)
	stale := make(map[disk.Addr]uint64) // readable, content != recorded sum -> current checksum
	torn := make(map[disk.Addr]bool)    // the inner store reports the track torn
	buf := make([]uint64, s.B)
	for _, k := range keys {
		if s.dead[k.Disk] {
			continue
		}
		err := s.inner.ReadOp([]disk.ReadReq{{Disk: k.Disk, Track: k.Track, Dst: buf}})
		var cte *disk.CorruptTrackError
		switch {
		case errors.As(err, &cte):
			torn[k] = true
		case err != nil:
			return err
		case disk.Checksum(buf) != s.sums[k]:
			stale[k] = disk.Checksum(buf)
		}
	}
	if len(stale)+len(torn) == 0 {
		return nil
	}
	// Group the residue by stripe (keys is sorted, so bySid's slices
	// and sids are deterministic).
	bySid := make(map[int][]disk.Addr)
	var sids []int
	var orphans []disk.Addr
	for _, k := range keys {
		if _, isStale := stale[k]; !isStale && !torn[k] {
			continue
		}
		sid, ok := s.sidOfPhys(k)
		if !ok {
			orphans = append(orphans, k)
			continue
		}
		if _, seen := bySid[sid]; !seen {
			sids = append(sids, sid)
		}
		bySid[sid] = append(bySid[sid], k)
	}
	sort.Ints(sids)
	// Unprotected residue: adopt what is on disk, or forget the
	// checksum of a torn track — the replay rewrites it.
	for _, k := range orphans {
		if torn[k] {
			delete(s.sums, k)
		} else {
			s.sums[k] = stale[k]
		}
	}
	for _, sid := range sids {
		bad := bySid[sid]
		if len(bad) == 1 && s.stripeIntactExcept(sid, bad[0]) {
			// A single bad track in an otherwise healthy stripe: restore
			// the committed content from the survivors.
			if _, err := s.repairTrack(bad[0]); err != nil {
				return err
			}
			continue
		}
		// Adoption: the current physical content becomes authoritative.
		for _, k := range bad {
			if _, isParity := s.parityAt[k]; isParity {
				continue // recomputed below, never adopted
			}
			if torn[k] {
				delete(s.sums, k)
			} else {
				s.sums[k] = stale[k]
			}
		}
		s.recompute[sid] = true
		if _, err := s.recomputeStaleParity(sid); err != nil {
			return err
		}
	}
	return nil
}

// sidOfPhys maps a physical track to its stripe via the parity
// directory, the reverse remap, or the identity mapping.
func (s *Store) sidOfPhys(k disk.Addr) (int, bool) {
	if sid, ok := s.parityAt[k]; ok {
		return sid, true
	}
	l := k
	if r, ok := s.rrmap[k]; ok {
		l = r
	}
	sid, ok := s.stripeOf[l]
	return sid, ok
}

// stripeIntactExcept reports whether the bad track p can be repaired
// from the rest of its stripe: every member has a readable physical
// copy and, unless p is the parity track itself, the parity track is
// on a live drive.
func (s *Store) stripeIntactExcept(sid int, p disk.Addr) bool {
	st := s.stripes[sid]
	if _, isParity := s.parityAt[p]; !isParity && !s.parityUsable(st) {
		return false
	}
	for d, t := range st.members {
		if t < 0 {
			continue
		}
		if _, ok := s.physOf(disk.Addr{Disk: d, Track: t}); !ok {
			return false
		}
	}
	return true
}
