// Package redundancy adds drive redundancy to the simulated disk
// subsystem, in one scheme with two widths: XOR parity groups (stripes)
// across the D drives of one processor. Under parity a stripe holds up
// to D-1 data tracks and its parity track rotates over the drives
// (RAID-5 style), single-drive-failure tolerance at one parity track per
// D-1 data tracks. Under mirror a stripe holds one data track, and the
// "parity" of one member is its copy, on the next live drive after the
// member's (2× capacity). Everything below — degraded reads, the barrier
// flush and Reconcile — serves both unchanged.
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
// with a *ContractError: WriteOp refuses a write to a dead drive (the
// engines place nothing there) and a rewrite of a member of a stripe a
// barrier record names (a replay or a resume of that record would find
// bytes its parity does not encode), FlushParity refuses a stripe with
// usable parity that some but not all of its members have left, and
// Reconcile refuses damage beyond one track a stripe. What a client may
// still rewrite is a member of a stripe no record names yet — in an
// engine run, a write the fault layer re-issues. That pays the classic
// read-modify-write small-write penalty: the old data is read back,
// charged as a real parallel I/O and verified against its checksum,
// before it is folded out of the stripe's cached parity.
//
// A read of a track whose drive has died, or whose stored bytes are not
// what was written (a failed checksum, or a slot the inner store reports
// corrupt), is served degraded: the XOR of the stripe's other tracks is
// rebuilt into the reader's buffer and verified against the recorded
// checksum. Nothing is written back — the track leaves with its
// superstep. Every extra parallel I/O this costs is a real charged
// operation, surfaced in the ReconstructedBlocks / DegradedOps counters.
//
// The layer's part of a processor's barrier record is EncodeState. A
// resumed process adopts it whole; a superstep replay adopts it in
// replay mode (DecodeState), which keeps the layer's history — dead
// drives and the monotone counters.
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
	members []int     // member track per drive, -1 = none
	count   int
}

func (st *stripe) full(width int) bool { return st.count >= width }

// Counters reports the layer's redundancy accounting. All figures
// except the two gauges are monotone over the run; a superstep replay
// keeps them (work a replayed superstep spent really happened) and
// takes the gauges from the barrier's record.
type Counters struct {
	// ChecksumFailures counts tracks whose stored content failed the
	// recorded checksum, or the inner store's slot check, when read.
	ChecksumFailures int64
	// ReconstructedBlocks counts blocks served by XOR-ing the stripe's
	// other tracks instead of reading the track.
	ReconstructedBlocks int64
	// DegradedOps counts the extra charged parallel I/O operations
	// spent serving reads in degraded mode (the reconstruction reads).
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
	r.Counter("parity_reconstructed_blocks").Add(c.ReconstructedBlocks)
	r.Counter("parity_degraded_ops").Add(c.DegradedOps)
	r.Counter("parity_ops").Add(c.ParityOps)
	r.Counter("parity_read_ops").Add(c.ParityReadOps)
	r.Counter("parity_blocks").Add(c.ParityBlocks)
	r.Counter("parity_striped_blocks").Add(c.StripedBlocks)
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
// the engines allocate nothing on a dead drive), Stats (parity and
// reconstruction traffic are real charged operations), State/AdoptState
// (the barrier record carries the allocator's state beside the layer's
// own, EncodeState) and Sync (the engines call FlushParity first, so a
// commit record's parity is durable before the record lands). All
// methods are safe for concurrent use: the parity directories and
// arithmetic serialize on an internal mutex (physical D-parallelism
// lives below, inside one inner-store operation), so concurrent
// operations see the same deterministic stripe state in whatever order
// they land; the promoted methods rely on the inner store's own safety.
type Store struct {
	inner
	D, B  int
	width int // data members a stripe holds: D-1 under parity, 1 under mirror

	mu sync.Mutex // guards all stripe/parity state below

	// The barrier's record (EncodeState) carries these; a replay adopts
	// them from it.
	stripeOf map[disk.Addr]int // data track -> stripe id
	stripes  map[int]*stripe
	parityAt map[disk.Addr]int    // parity track -> stripe id
	next     int                  // next stripe id; also the parity rotation counter
	sums     map[disk.Addr]uint64 // track -> checksum of last write
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

	// History, which a replay keeps: these and the counters but for the
	// two gauges.
	dead []bool

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
// survivors, and a write to d is refused.
func (s *Store) DriveDied(d int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d >= 0 && d < s.D {
		s.dead[d] = true
	}
}

// parityUsable reports whether the stripe's parity track is readable.
func (s *Store) parityUsable(st *stripe) bool { return !s.dead[st.parity.Disk] }

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

func readDrive(r disk.ReadReq) int { return r.Disk }

// readRaw issues physical reads grouped into valid parallel operations,
// taking the bytes as they lie. It returns the number of operations the
// inner store charged (a failed read is not charged).
func (s *Store) readRaw(reqs []disk.ReadReq) (int, error) {
	ops := 0
	for _, sub := range rounds(reqs, readDrive) {
		if err := s.inner.ReadOp(sub); err != nil {
			return ops, err
		}
		ops++
	}
	return ops, nil
}

// readPhys issues physical reads grouped into valid parallel operations
// and returns the number the inner store charged. Every track it
// delivers holds what was last written to it: one the inner store
// reports corrupt (File's slot check, which fails the operation), or
// whose bytes fail their recorded checksum, is rebuilt into its
// destination from the rest of its stripe (rebuildBad).
func (s *Store) readPhys(reqs []disk.ReadReq) (int, error) {
	ops := 0
	for _, sub := range rounds(reqs, readDrive) {
		for len(sub) > 0 {
			err := s.inner.ReadOp(sub)
			var cte *disk.CorruptTrackError
			if !errors.As(err, &cte) {
				if err != nil {
					return ops, err
				}
				ops++
				break
			}
			i := slices.IndexFunc(sub, func(r disk.ReadReq) bool { return r.Disk == cte.Disk && r.Track == cte.Track })
			if i < 0 {
				return ops, err
			}
			if err := s.rebuildBad(sub[i]); err != nil {
				return ops, err
			}
			sub = slices.Delete(sub, i, i+1)
		}
	}
	for _, r := range reqs {
		if want, ok := s.sums[disk.Addr{Disk: r.Disk, Track: r.Track}]; ok && disk.Checksum(r.Dst) != want {
			if err := s.rebuildBad(r); err != nil {
				return ops, err
			}
		}
	}
	return ops, nil
}

// rebuildBad serves a read of a track whose stored bytes are not what
// was written to it: the content is rebuilt into r.Dst, and the stored
// copy is left as it is. The rebuild's reads are degraded operations.
func (s *Store) rebuildBad(r disk.ReadReq) error {
	s.ctr.ChecksumFailures++
	n, err := s.rebuild(disk.Addr{Disk: r.Disk, Track: r.Track}, r.Dst)
	s.ctr.DegradedOps += int64(n)
	return err
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
	ops, err := s.readPhys([]disk.ReadReq{{Disk: st.parity.Disk, Track: st.parity.Track, Dst: buf}})
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

// rebuild computes into dst the content of track p of a stripe — a
// member or the parity track — as the XOR of the stripe's other tracks,
// and verifies it against p's recorded checksum; it returns the
// operations spent. A cached parity value stands in for the parity track
// and costs no read. The other tracks are read as they lie, so a stripe
// with a second lost or bad track cannot rebuild p, and the error says
// which.
func (s *Store) rebuild(p disk.Addr, dst []uint64) (int, error) {
	sid, isParity := s.parityAt[p]
	if !isParity {
		var ok bool
		if sid, ok = s.stripeOf[p]; !ok {
			return 0, fmt.Errorf("redundancy: drive %d track %d is in no stripe to rebuild it from", p.Disk, p.Track)
		}
	}
	st := s.stripes[sid]
	clear(dst)
	ops := 0
	if !isParity {
		if pv, ok := s.pval[sid]; ok {
			copy(dst, pv)
		} else {
			if !s.parityUsable(st) {
				return 0, fmt.Errorf("redundancy: cannot rebuild drive %d track %d: stripe %d's parity is on dead drive %d", p.Disk, p.Track, sid, st.parity.Disk)
			}
			n, err := s.readRaw([]disk.ReadReq{{Disk: st.parity.Disk, Track: st.parity.Track, Dst: dst}})
			ops += n
			if err != nil {
				return ops, err
			}
		}
	}
	var reqs []disk.ReadReq
	for d, t := range st.members {
		if t < 0 || (d == p.Disk && t == p.Track) {
			continue
		}
		if s.dead[d] {
			return ops, fmt.Errorf("redundancy: two lost tracks in stripe %d (drive %d track %d and drive %d track %d)", sid, p.Disk, p.Track, d, t)
		}
		reqs = append(reqs, disk.ReadReq{Disk: d, Track: t, Dst: make([]uint64, s.B)})
	}
	n, err := s.readRaw(reqs)
	ops += n
	if err != nil {
		return ops, err
	}
	for _, r := range reqs {
		for i := range dst {
			dst[i] ^= r.Dst[i]
		}
	}
	s.ctr.ReconstructedBlocks++
	if want, ok := s.sums[p]; ok && disk.Checksum(dst) != want {
		return ops, &disk.CorruptTrackError{Disk: p.Disk, Track: p.Track}
	}
	return ops, nil
}

// ReadOp performs one parallel read. Live tracks are read directly
// (verified against their recorded checksums, and rebuilt when bad);
// dead-drive tracks are reconstructed from the stripe's survivors; blank
// tracks read as zeros, exactly as on the raw store.
func (s *Store) ReadOp(reqs []disk.ReadReq) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var live, lost []disk.ReadReq
	for _, r := range reqs {
		_, striped := s.stripeOf[disk.Addr{Disk: r.Disk, Track: r.Track}]
		switch {
		case !s.dead[r.Disk]:
			live = append(live, r)
		case striped:
			lost = append(lost, r)
		default:
			// Dead and never striped: nothing is written to a dead drive,
			// and a track written before the death is striped, so it
			// still reads as zeros.
			clear(r.Dst)
		}
	}
	ops, err := s.readPhys(live)
	if err != nil {
		return err
	}
	for _, r := range lost {
		n, err := s.rebuild(disk.Addr{Disk: r.Disk, Track: r.Track}, r.Dst)
		ops += n
		if err != nil {
			return err
		}
	}
	if len(lost) > 0 && ops > 1 {
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
// data is read back first, a charged operation). A write to a dead
// drive, or to a member of a recorded stripe, is refused with a
// *ContractError before anything changes.
func (s *Store) WriteOp(reqs []disk.WriteReq) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(reqs) == 0 {
		return nil
	}
	for _, r := range reqs {
		k := disk.Addr{Disk: r.Disk, Track: r.Track}
		if s.dead[r.Disk] {
			return &ContractError{Op: "WriteOp", Track: k, Reason: fmt.Sprintf("drive %d is dead, and nothing is placed on a dead drive", r.Disk)}
		}
		if sid, ok := s.stripeOf[k]; ok && sid < s.recorded {
			return &ContractError{Op: "WriteOp", Track: k, Reason: fmt.Sprintf("a member of stripe %d, which a barrier record names, is not rewritten in place", sid)}
		}
	}
	// Read the old data of striped targets back, verified (parity
	// maintenance): folding unverified bytes out of parity would leave it
	// encoding whatever they had become.
	var olds []disk.ReadReq
	var oldSids []int
	for _, r := range reqs {
		sid, ok := s.stripeOf[disk.Addr{Disk: r.Disk, Track: r.Track}]
		if !ok || !s.parityUsable(s.stripes[sid]) {
			continue
		}
		olds = append(olds, disk.ReadReq{Disk: r.Disk, Track: r.Track, Dst: make([]uint64, s.B)})
		oldSids = append(oldSids, sid)
	}
	n, err := s.readPhys(olds)
	s.parityReads(n)
	if err != nil {
		return err
	}
	// Fold old and new data into the cached parity values.
	fold := func(sid int, src []uint64) error {
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
	for i, o := range olds {
		if err := fold(oldSids[i], o.Dst); err != nil {
			return err
		}
	}
	for _, r := range reqs {
		k := disk.Addr{Disk: r.Disk, Track: r.Track}
		sid, ok := s.stripeOf[k]
		if !ok {
			sid, ok = s.assign(k)
		}
		if !ok || !s.parityUsable(s.stripes[sid]) {
			continue // unprotected
		}
		if err := fold(sid, r.Src); err != nil {
			return err
		}
	}
	ops, err := s.writePhys(reqs)
	if err != nil {
		return err
	}
	if ops > 1 {
		s.ctr.ParityOps += int64(ops - 1)
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

// Release frees a track without I/O, and is the only way out of a
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

// forget ends a leaver's membership; its checksum goes with its held
// release, later in the same flush.
func (s *Store) forget(k disk.Addr) {
	sid := s.stripeOf[k]
	s.stripes[sid].members[k.Disk] = -1
	delete(s.stripeOf, k)
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
		delete(s.sums, k)
		if err := s.inner.Release(k.Disk, k.Track); err != nil {
			return err
		}
	}
	s.held = s.held[:0]
	return nil
}

// EncodeState appends the layer's complete persistent state to enc in
// deterministic order: dead drives, the counters, the stripe directory
// and the checksums: the layer's part of a processor's barrier record. It
// must be called at a barrier, after FlushParity (the parity cache and
// the leaver and held-release lists are empty there and are not
// encoded). Every stripe it encodes is recorded from then on: its
// members are not rewritten.
func (s *Store) EncodeState(enc *words.Encoder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recorded = s.next
	enc.PutInt(int64(s.D))
	for _, d := range s.dead {
		enc.PutBool(d)
	}
	enc.PutInt(int64(s.next))
	c := s.ctr
	enc.PutInts([]int64{
		c.ChecksumFailures, c.ReconstructedBlocks, c.DegradedOps,
		c.ParityOps, c.ParityBlocks, c.StripedBlocks, c.ParityReadOps,
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
}

// DecodeState adopts state written by EncodeState, rebuilding the
// derived directories (stripe membership, parity locations); no stripe
// is open at a barrier, no parity cached, no leaver pending, and every
// stripe is recorded. A resumed process adopts all of it. A superstep
// replay (replay) keeps the layer's history — dead drives and the
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
	cs := dec.Ints()
	if len(cs) != 7 {
		return fmt.Errorf("redundancy: counter state has %d fields, want 7", len(cs))
	}
	if replay {
		s.ctr.ParityBlocks, s.ctr.StripedBlocks = cs[4], cs[5]
	} else {
		s.ctr = Counters{
			ChecksumFailures: cs[0], ReconstructedBlocks: cs[1], DegradedOps: cs[2],
			ParityOps: cs[3], ParityBlocks: cs[4], StripedBlocks: cs[5], ParityReadOps: cs[6],
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
// rebuilt from the rest of the stripe and written back. Anything else —
// two bad tracks in one stripe, one the stripe cannot rebuild, a bad
// unprotected track — is refused with a *ContractError before anything
// is written, never adopted.
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
	var fixes []disk.WriteReq
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
		// The rebuild reads every other track of the stripe as it lies,
		// so a second bad one fails it too.
		good := make([]uint64, s.B)
		if _, err := s.rebuild(k, good); err != nil {
			return &ContractError{Op: "Reconcile", Track: k, Reason: "its content is not the record's, and its stripe cannot rebuild it: " + err.Error()}
		}
		fixes = append(fixes, disk.WriteReq{Disk: k.Disk, Track: k.Track, Src: good})
	}
	_, err := s.writePhys(fixes)
	return err
}
