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
// Parity follows the engine's lifetimes: the simulation gives every
// superstep's contexts and message blocks fresh tracks, and all of them
// die at the next commit. The layer's contract is that lifetime: a stripe
// is written within one superstep and leaves whole at one barrier. A
// track joins a stripe when it is first written: WriteOp folds the data
// it has in memory into the stripe's cached parity, a full stripe's
// parity goes to disk while the superstep still writes, and the barrier
// (FlushParity) writes the rest and closes every stripe — so a stripe
// holds one superstep's tracks, which die together; a client that keeps
// some of them longer seals them into stripes of their own (Seal). A
// track leaves its stripe without I/O (Release), and the next barrier
// drops a stripe all of whose members have left.
//
// The layer enforces the contract rather than serving its violations,
// with a *ContractError: WriteOp refuses a rewrite of a member of a
// stripe a barrier record names (a replay or a resume of that record
// would find bytes its parity does not encode), FlushParity refuses a
// stripe with usable parity that some but not all of its members have
// left, and Reconcile refuses damage beyond one track a stripe. What a
// client may still rewrite is a member of a stripe no record names yet —
// in an engine run, a write the fault layer re-issues. That pays the
// classic read-modify-write small-write penalty: the old data is read
// back, charged as a real parallel I/O and verified against its checksum,
// before it is folded out of the stripe's cached parity.
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
// The layer's part of a processor's barrier record is EncodeState. A
// resumed process adopts it whole; a superstep replay adopts it in
// replay mode (DecodeState), which keeps the layer's history — dead
// drives, the scrub cursor, the monotone counters.
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
// except the two gauges are monotone over the run; a superstep replay
// keeps them (work a replayed superstep spent really happened) and
// takes the gauges from the barrier's record.
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
	// maintaining parity: parity writes, read-old-data small writes and
	// parity track loads; ParityReadOps is the reads among them.
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

// ContractError is the layer's refusal of a use outside its contract (a
// stripe is written within one superstep and leaves whole at one
// barrier): Op is the method that refuses, Track the track it refuses.
type ContractError struct {
	Op     string
	Track  disk.Addr
	Reason string
}

func (e *ContractError) Error() string {
	return fmt.Sprintf("redundancy: %s refuses drive %d track %d: %s", e.Op, e.Track.Disk, e.Track.Track, e.Reason)
}

// inner is the store chain beneath the layer, embedded under this name
// so every disk.Store method the layer does not override is the chain's.
type inner = disk.Store

// Store is the redundancy layer, a link of a store chain: it overrides
// ReadOp, WriteOp and Release; everything else is the embedded inner
// store's, promoted — allocation (directory metadata that never faults;
// I/O on a dead drive's tracks is remapped at operation time), Stats
// (parity and reconstruction traffic are real charged operations),
// State/AdoptState (the barrier record carries the allocator's state
// beside the layer's own, EncodeState) and Sync (the engines call
// FlushParity first, so a commit record's parity is durable before the
// record lands). All methods are safe for concurrent use: the parity
// directories and arithmetic serialize on an internal mutex
// (physical D-parallelism lives below, inside one inner-store
// operation), so concurrent operations see the same deterministic
// stripe state in whatever order they land; the promoted methods rely
// on the inner store's own safety.
type Store struct {
	inner
	D, B  int
	width int // data members a stripe holds: D-1 under parity, 1 under mirror

	mu sync.Mutex // guards all stripe/parity/remap state below

	// The barrier's record (EncodeState) carries these; a replay adopts
	// them from it.
	stripeOf map[disk.Addr]int // logical data track -> stripe id
	stripes  map[int]*stripe
	parityAt map[disk.Addr]int       // physical parity track -> stripe id
	next     int                     // next stripe id; also the parity rotation counter
	sums     map[disk.Addr]uint64    // physical track -> checksum of last write
	remap    map[disk.Addr]disk.Addr // dead-drive logical track -> live physical
	rrmap    map[disk.Addr]disk.Addr // inverse of remap (physical -> logical)
	// recorded is the first stripe id no barrier record names: EncodeState
	// and DecodeState set it to next. WriteOp refuses to rewrite a member
	// of an older stripe.
	recorded int

	// A barrier leaves these empty, and so does a replay.
	open   []int            // stripes of this superstep with room, ascending
	filled []int            // stripes of this superstep now full, parity not yet written
	pval   map[int][]uint64 // cached current parity value (authoritative)
	pdirty map[int]bool     // stripes whose cached parity needs write-back
	// left is the leaver list: members released since the last flush.
	// Their stripes' parity still encodes them, and their bytes stay where
	// they are, until FlushParity drops the stripes; held is the released
	// tracks whose inner Release waits for that.
	left map[disk.Addr]bool
	held []disk.Addr

	// History, which a replay keeps: these, the scrub cursor and the
	// counters but for the two gauges.
	dead []bool

	scrubD, scrubT int // scrub cursor (physical walk)

	ctr       Counters
	cachePeak int // most parity blocks cached at once (CachePeak)
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
		inner:    below,
		D:        cfg.D,
		B:        cfg.B,
		width:    width,
		stripeOf: make(map[disk.Addr]int),
		stripes:  make(map[int]*stripe),
		parityAt: make(map[disk.Addr]int),
		sums:     make(map[disk.Addr]uint64),
		remap:    make(map[disk.Addr]disk.Addr),
		rrmap:    make(map[disk.Addr]disk.Addr),
		pval:     make(map[int][]uint64),
		pdirty:   make(map[int]bool),
		left:     make(map[disk.Addr]bool),
		dead:     make([]bool, cfg.D),
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
		// A parity track: the cached value, when present, is current and
		// costs no read; only an uncached stripe is recomputed.
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
// into dst (reading members from their physical locations; a leaver's
// bytes stay where they are until the barrier drops its stripe).
func (s *Store) recomputeParity(sid int, dst []uint64) (int, error) {
	st := s.stripes[sid]
	clear(dst)
	var reqs []disk.ReadReq
	var bufs [][]uint64
	for d := 0; d < s.D; d++ {
		t := st.members[d]
		if t < 0 {
			continue
		}
		p, ok := s.physOf(disk.Addr{Disk: d, Track: t})
		if !ok {
			return 0, fmt.Errorf("redundancy: recomputing parity of stripe %d: member on dead drive %d", sid, d)
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
// write to a member of a stripe no barrier record names updates the
// cached parity with the classic read-modify-write small write (the old
// data is read back first, a charged operation); a write to a member of
// a recorded stripe is refused with a *ContractError before anything
// changes. Writes to dead-drive tracks land on spare capacity of the
// survivors and are remapped from then on.
func (s *Store) WriteOp(reqs []disk.WriteReq) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(reqs) == 0 {
		return nil
	}
	for _, r := range reqs {
		k := disk.Addr{Disk: r.Disk, Track: r.Track}
		if sid, ok := s.stripeOf[k]; ok && sid < s.recorded {
			return &ContractError{Op: "WriteOp", Track: k, Reason: fmt.Sprintf("a member of stripe %d, which a barrier record names, is not rewritten in place", sid)}
		}
	}
	// Read old data of striped targets first (parity maintenance).
	type oldRead struct {
		sid int
		buf []uint64
	}
	var olds []oldRead
	var oldReqs []disk.ReadReq
	for _, r := range reqs {
		k := disk.Addr{Disk: r.Disk, Track: r.Track}
		sid, ok := s.stripeOf[k]
		if !ok || !s.parityUsable(s.stripes[sid]) {
			continue
		}
		buf := make([]uint64, s.B)
		olds = append(olds, oldRead{sid, buf})
		if p, live := s.physOf(k); live {
			oldReqs = append(oldReqs, disk.ReadReq{Disk: p.Disk, Track: p.Track, Dst: buf})
			continue
		}
		// Rewrite of a dead member: its old value must be reconstructed,
		// and verified, before parity can drop it.
		n, err := s.reconstruct(sid, k, buf)
		s.ctr.DegradedOps += int64(n)
		if err != nil {
			return err
		}
		if want, ok := s.sums[k]; ok && disk.Checksum(buf) != want {
			return &disk.CorruptTrackError{Disk: k.Disk, Track: k.Track}
		}
	}
	if len(oldReqs) > 0 {
		n, err := s.readPhys(oldReqs)
		s.parityReads(n)
		if err != nil {
			return err
		}
		// Verify the old data against its recorded checksum before it is
		// folded out of parity. A mismatch is latent corruption — folding
		// it out would silently leave parity encoding the corrupt bytes;
		// reconstruct the real content from parity first, exactly as the
		// read path does.
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
	}
	// Fold old and new data into the cached parity values.
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
		if !ok || !s.parityUsable(s.stripes[sid]) {
			return nil // unprotected
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
// the track — is held until the next FlushParity has dropped the stripe,
// so until then the bytes stay where parity encodes them.
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

// dropLeavers settles the leaver list at the barrier, without I/O. A
// stripe all of whose members have left is dropped with its parity track,
// and one whose parity drive has died just loses its leavers. A stripe
// with usable parity that some of its members have left and others not is
// refused with a *ContractError before anything changes: folding the
// leavers out would read them back.
func (s *Store) dropLeavers() error {
	keys := disk.SortedAddrs(s.left)
	for _, k := range keys {
		sid := s.stripeOf[k]
		if st := s.stripes[sid]; st.count > 0 && s.parityUsable(st) {
			return &ContractError{Op: "FlushParity", Track: k, Reason: fmt.Sprintf("it left stripe %d, which %d of its members have not", sid, st.count)}
		}
	}
	sids := make([]int, len(keys))
	for i, k := range keys {
		sids[i] = s.stripeOf[k]
		s.forget(k)
	}
	for _, sid := range sids {
		if st, ok := s.stripes[sid]; ok && st.count == 0 {
			if err := s.dropStripe(sid); err != nil {
				return err
			}
		}
	}
	return nil
}

// forget ends a leaver's membership. Its bytes are dead from here on:
// there is no checksum to hold them to.
func (s *Store) forget(k disk.Addr) {
	sid := s.stripeOf[k]
	s.stripes[sid].members[k.Disk] = -1
	delete(s.stripeOf, k)
	if p, live := s.physOf(k); live {
		delete(s.sums, p)
	}
	delete(s.left, k)
}

// dropStripe frees an empty stripe and its parity track.
func (s *Store) dropStripe(sid int) error {
	st := s.stripes[sid]
	delete(s.parityAt, st.parity)
	delete(s.sums, st.parity)
	delete(s.pval, sid)
	delete(s.pdirty, sid)
	delete(s.stripes, sid)
	s.ctr.ParityBlocks--
	if s.dead[st.parity.Disk] {
		return nil
	}
	if err := s.inner.Release(st.parity.Disk, st.parity.Track); err != nil {
		return fmt.Errorf("redundancy: dropping stripe %d: %w", sid, err)
	}
	return nil
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
		if st.members[k.Disk] < 0 && st.parity.Disk != k.Disk && s.parityUsable(st) && !st.full(s.width) {
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
// whole (FlushParity refuses one that does not).
func (s *Store) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.filled = append(s.filled, s.open...)
	s.open = s.open[:0]
}

// FlushParity is the barrier commit point of the parity scheme: the
// stripes all of whose members have left are dropped (dropLeavers, which
// refuses a stripe that leaves in part), every stripe whose cached parity
// is newer than its track is written back, the in-memory parity cache is
// dropped and every open stripe is closed — a stripe holds one
// superstep's tracks. It reads nothing. The engines call it at every
// compound-superstep barrier (and before every journal commit), so
// committed state always carries consistent parity.
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
	if err := s.dropLeavers(); err != nil {
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
	// Drop the cache: memory stays bounded by the stripes touched in one
	// superstep, not by the run.
	s.pval = make(map[int][]uint64)
	s.open, s.filled = s.open[:0], s.filled[:0]
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

// EncodeState appends the layer's complete persistent state to enc in
// deterministic order: dead drives, the stripe directory, checksums,
// remaps, the scrub cursor, and the counters: the layer's part of a
// processor's barrier record. It must be called at a barrier, after
// FlushParity (the parity cache and the leaver and held-release lists
// are empty there and are not encoded). Every stripe it encodes is
// recorded from then on: its members are not rewritten.
func (s *Store) EncodeState(enc *words.Encoder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recorded = s.next
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

// DecodeState adopts state written by EncodeState, rebuilding the
// derived directories (stripe membership, parity locations, reverse
// remap); no stripe is open at a barrier, no parity cached, no leaver
// pending, and every stripe is recorded. A resumed process adopts all of
// it, so the scrub continues at its cursor. A superstep replay (replay)
// keeps the layer's history — dead drives, the scrub cursor, the
// monotone counters — and takes the rest, the two gauges included, from
// the record (DESIGN.md §8).
func (s *Store) DecodeState(dec *words.Decoder, replay bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	nd := int(dec.Int())
	if nd != s.D {
		return fmt.Errorf("redundancy: decoding state for %d drives into %d-drive layer", nd, s.D)
	}
	for d := range s.dead {
		if dead := dec.Bool(); !replay {
			s.dead[d] = dead
		}
	}
	s.next = int(dec.Int())
	s.recorded = s.next
	cur := dec.Ints()
	if len(cur) != 2 {
		return fmt.Errorf("redundancy: cursor state has %d fields, want 2", len(cur))
	}
	cs := dec.Ints()
	if len(cs) != 10 {
		return fmt.Errorf("redundancy: counter state has %d fields, want 10", len(cs))
	}
	if replay {
		s.ctr.ParityBlocks, s.ctr.StripedBlocks = cs[5], cs[6]
	} else {
		s.scrubD, s.scrubT = int(cur[0]), int(cur[1])
		s.ctr = Counters{
			ChecksumFailures: cs[0], RepairedBlocks: cs[1], ReconstructedBlocks: cs[2],
			DegradedOps: cs[3], ParityOps: cs[4], ParityBlocks: cs[5], StripedBlocks: cs[6],
			ScrubbedBlocks: cs[7], ScrubRepairs: cs[8], ParityReadOps: cs[9],
		}
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

// Reconcile checks the disk against the adopted record after a
// crash-resume; the engines call it once, right after DecodeState and
// before the replay starts.
//
// Under the contract a crashed attempt wrote no track the record
// checksums: a superstep writes only tracks it allocated, and a barrier's
// flush writes parity only to tracks allocated since the last record. So
// what the scan of every checksummed live track finds is a track that
// rotted at rest, or nothing. A stripe's one bad track (stale or torn) is
// repaired from the rest of the stripe. Anything else — two bad tracks in
// one stripe, one the stripe cannot rebuild, a bad unprotected track — is
// refused with a *ContractError, never adopted.
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
	var bad []disk.Addr
	perStripe := make(map[int]int)
	buf := make([]uint64, s.B)
	for _, k := range disk.SortedAddrs(s.sums) {
		if s.dead[k.Disk] {
			continue
		}
		err := s.inner.ReadOp([]disk.ReadReq{{Disk: k.Disk, Track: k.Track, Dst: buf}})
		var cte *disk.CorruptTrackError
		switch {
		case errors.As(err, &cte):
		case err != nil:
			return err
		case disk.Checksum(buf) == s.sums[k]:
			continue
		}
		sid, ok := s.sidOfPhys(k)
		if !ok || !s.stripeIntactExcept(sid, k) {
			return &ContractError{Op: "Reconcile", Track: k, Reason: "its content is not the record's, and no stripe can rebuild it"}
		}
		bad = append(bad, k)
		perStripe[sid]++
	}
	for _, k := range bad {
		if sid, _ := s.sidOfPhys(k); perStripe[sid] > 1 {
			return &ContractError{Op: "Reconcile", Track: k, Reason: fmt.Sprintf("one of %d tracks of stripe %d whose content is not the record's", perStripe[sid], sid)}
		}
	}
	for _, k := range bad {
		if _, err := s.repairTrack(k); err != nil {
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
