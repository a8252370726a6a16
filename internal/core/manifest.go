package core

import (
	"errors"
	"fmt"
	"math"

	"embsp/internal/bsp"
	"embsp/internal/disk"
	"embsp/internal/words"
)

// This file implements the commit-journal manifests (their global
// accounting fields are the ledger's to encode, driver.go): the payload
// of one journal record is one manifest — a complete,
// self-contained checkpoint of everything the engine needs to continue
// from a compound-superstep barrier. Record 0 checkpoints the setup
// phase (initial contexts written, no superstep run); record i+1
// checkpoints superstep i. Resume decodes only the LAST committed
// record: each manifest carries full state, not a delta, so recovery
// cost is independent of run length.
//
// A manifest begins with an engine-kind tag and a fingerprint of the
// (machine configuration, options, program shape, model rules) tuple.
// A resumed run must present the identical tuple — the simulation is
// deterministic in it — and the engines refuse to continue from a
// manifest whose fingerprint disagrees, which catches resuming with a
// different program, seed, fault plan or machine.

const (
	manifestRunKind   = 0x52554e   // "RUN" tag — the in-process engine, every P
	manifestNodeKind  = 0x4e4f4445 // "NODE" tag — one cluster worker's processor state
	manifestCoordKind = 0x434f5244 // "CORD" tag — the cluster coordinator's global state
)

// modelRules versions the policies that decide a run's I/O counts
// without changing its results (2: the bucket rule, DESIGN.md §20; 3:
// the packed message-block format, §21, which is also what a routed
// region on disk and a block on the wire hold; 4: packed contexts, §22,
// and routing buckets cut by load, §20.2; 5: blocks placed by the
// directory's counts and read where they lie unless routing pays, §7,
// with the unrouted directory in every processor's record; 6: parity
// folded at write, stripes that leave with their superstep, §10; 7:
// contexts on allocated tracks, listed by the context directory in every
// processor's record, §22; 8: every input is the directory its writer
// filled, §7 — a processor's record and a node's report carry no routed
// regions, areas or routing counts, and the wire no routing round; 9: snake
// batch order and the turnaround batch held in internal memory across the
// barrier, §22.7 — its records in the processor's record, no tracks; 10: a
// mirror is a one-member stripe of the redundancy layer, §10, and the
// fault layer, which no longer mirrors, and the redundancy layer, which no
// longer rebuilds, journal fewer words; 11: a track allocated and not
// written since reads blank by the allocator state, which journals such
// fresh tracks per drive after the free list, §9 — no store writes a
// track to clear it; 12: one message stream per sending processor and
// destination cell a superstep, its tail block open across the
// processor's rounds, and a block header that carries its own fill and a
// last-chunk flag in place of the stream's total, §21.7; 13: a VP that
// votes halt sleeps until a message arrives for it, a batch of sleepers
// with no input is skipped — its contexts carried over, the turnaround
// batch never — and every processor's record carries the
// sleep bits, §24; 14: every message block goes to the processor that
// owns its destination VP, where it is written, and crosses processors
// at most once, §5 and §20; 15: the redundancy layer's record carries no
// scrub cursor, no remap table and no repair counters — a bad track is
// rebuilt into its reader's buffer, never written back, and nothing is
// written to a dead drive, §10; 16: the block writer matches each
// operation's blocks to drives so that every destination batch stays
// within ⌈R_g/L⌉ + 1 blocks a drive where it can, §7, which moves the
// tracks a directory lists; 17: every block a processor writes, its
// contexts too, goes through its block writer, which places a batch's
// contexts and messages under one bound and allocates a context block's
// track at its flush, and a batch's contexts and messages are read in one
// scattered read, §22.1 — the context directory lists other tracks, and
// the set-up's placement draws nothing from the PRNG; 18: a message
// record's header is two words, dst<<32|src and seq<<32|len, and the
// tails a superstep's last round writes share blocks per destination
// cell, §21.1 — fewer message blocks, on other tracks; 19: every VP
// array whose values all fit in half a word is saved two values a word,
// §23.2 — smaller contexts, so fewer context blocks; 20: the fault layer
// keeps no per-track checksums, so its section of a processor's record is
// history alone, and the configuration fingerprint drops the two slots
// that kept the word layout of journals written under rules 14, §8). It
// is folded into every fingerprint, so a directory journaled under other
// rules, or a cluster peer built with them, is refused rather than
// resumed into hybrid counts or fed blocks it cannot parse.
const modelRules = 20

// configFingerprint folds everything a resumed run must agree on into
// one checksum word.
func configFingerprint(kind uint64, cfg MachineConfig, opts Options, v, mu, gamma int) uint64 {
	enc := words.NewEncoder(nil)
	enc.PutUint(kind)
	enc.PutUint(modelRules)
	enc.PutInts([]int64{int64(cfg.P), int64(cfg.M), int64(cfg.D), int64(cfg.B)})
	enc.PutFloat(cfg.G)
	enc.PutFloat(cfg.Cost.GUnit)
	enc.PutFloat(cfg.Cost.GPkt)
	enc.PutInt(int64(cfg.Cost.Pkt))
	enc.PutFloat(cfg.Cost.L)
	enc.PutUint(opts.Seed)
	enc.PutBool(opts.Deterministic)
	enc.PutInt(int64(opts.MaxRetries))
	plan := opts.FaultPlan
	enc.PutBool(plan != nil && plan.Enabled())
	if plan != nil && plan.Enabled() {
		enc.PutUint(plan.Seed)
		enc.PutFloat(plan.ReadErrorRate)
		enc.PutFloat(plan.WriteErrorRate)
		enc.PutFloat(plan.CorruptRate)
		enc.PutInts([]int64{plan.FirstOp, plan.FailDriveOp, int64(plan.FailDrive), int64(plan.FailProc)})
	}
	enc.PutInt(int64(opts.Redundancy))
	enc.PutInts([]int64{int64(v), int64(mu), int64(gamma)})
	return disk.Checksum(enc.Words())
}

// statsWords is the number of words encodeStats appends for s.
func statsWords(s disk.Stats) int {
	return words.SizeUints(5) + 1 + len(s.PerDrive)*words.SizeUints(4)
}

func encodeStats(enc *words.Encoder, s disk.Stats) {
	enc.PutInts([]int64{s.Ops, s.ReadOps, s.WriteOps, s.BlocksRead, s.BlocksWritten})
	enc.PutInt(int64(len(s.PerDrive)))
	for _, d := range s.PerDrive {
		enc.PutInts([]int64{d.BlocksRead, d.BlocksWritten, d.SeqAccesses, d.RandAccesses})
	}
}

// decodeStats reads what encodeStats wrote for any number of drives, in
// the decision record's global section and the wire's reports; like the
// words.Decoder reads around it there, it panics on an encoding it cannot
// follow.
func decodeStats(dec *words.Decoder) disk.Stats {
	r := recordReader{dec: dec}
	s := r.stats(-1)
	if r.err != nil {
		panic(r.err)
	}
	return s
}

// recordReader reads a processor's record, which comes from a journal
// file or, inside a NodeSnapshot, from a peer: every length is checked
// against what the machine fixes, or against the words the record still
// holds, before anything is indexed or allocated by it. The first
// violation — a record that ends early included — is kept in err, where
// words.Decoder would panic, and every read after it returns zeros.
type recordReader struct {
	dec *words.Decoder
	err error
}

func (r *recordReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = &engineError{msg: "processor record " + fmt.Sprintf(format, args...)}
	}
}

func (r *recordReader) word() uint64 {
	if r.err == nil && r.dec.Remaining() == 0 {
		r.fail("ends after %d words", r.dec.Offset())
	}
	if r.err != nil {
		return 0
	}
	return r.dec.Uint()
}

// count reads a number of entries that follow, a word or more each:
// exactly want of them, or — when want is negative — as many as the
// record still has words for.
func (r *recordReader) count(want int, what string) int {
	n := r.word()
	if r.err == nil && want >= 0 && n != uint64(want) {
		r.fail("holds %d %s, want %d", n, what, want)
	}
	if r.err == nil && n > uint64(r.dec.Remaining()) {
		r.fail("holds %d %s in its last %d words", n, what, r.dec.Remaining())
	}
	if r.err != nil {
		return max(want, 0)
	}
	return int(n)
}

// list reads a length-prefixed list, the form of PutInts.
func (r *recordReader) list(want int, what string) []int64 {
	s := make([]int64, r.count(want, what))
	for i := range s {
		s[i] = int64(r.word())
	}
	return s
}

// stats reads what encodeStats wrote for D drives.
func (r *recordReader) stats(D int) disk.Stats {
	t := r.list(5, "totals")
	s := disk.Stats{Ops: t[0], ReadOps: t[1], WriteOps: t[2], BlocksRead: t[3], BlocksWritten: t[4]}
	if n := r.count(D, "drives' statistics"); n > 0 {
		s.PerDrive = make([]disk.DriveStats, n)
		for i := range s.PerDrive {
			d := r.list(4, "counts of a drive")
			s.PerDrive[i] = disk.DriveStats{BlocksRead: d[0], BlocksWritten: d[1], SeqAccesses: d[2], RandAccesses: d[3]}
		}
	}
	return s
}

// encodeStoreState writes the statistics, then per drive the bump mark,
// the last track, the free list and the fresh list (lists in the form of
// PutInts; a fresh list is empty when StoreState.Fresh is nil).
func encodeStoreState(enc *words.Encoder, s disk.StoreState) {
	encodeStats(enc, s.Stats)
	enc.PutInt(int64(len(s.Next)))
	for d := range s.Next {
		enc.PutInt(int64(s.Next[d]))
		enc.PutInt(int64(s.Last[d]))
		putTracks(enc, s.Free[d])
		if s.Fresh == nil {
			enc.PutInt(0)
		} else {
			putTracks(enc, s.Fresh[d])
		}
	}
}

func putTracks(enc *words.Encoder, ts []int) {
	enc.PutInt(int64(len(ts)))
	for _, t := range ts {
		enc.PutInt(int64(t))
	}
}

// storeState reads the allocator state of a D-drive store; AdoptState
// checks its marks and its free and fresh lists. Fresh stays nil when
// every drive's fresh list is empty.
func (r *recordReader) storeState(D int) disk.StoreState {
	s := disk.StoreState{Stats: r.stats(D)}
	n := r.count(D, "drives' allocators")
	s.Next, s.Last, s.Free = make([]int, n), make([]int, n), make([][]int, n)
	for d := 0; d < n; d++ {
		s.Next[d], s.Last[d] = int(r.word()), int(r.word())
		s.Free[d] = r.tracks("free tracks")
		if fresh := r.tracks("fresh tracks"); len(fresh) > 0 {
			if s.Fresh == nil {
				s.Fresh = make([][]int, n)
			}
			s.Fresh[d] = fresh
		}
	}
	return s
}

// tracks reads a list of track numbers, nil when it is empty.
func (r *recordReader) tracks(what string) []int {
	l := r.list(-1, what)
	if len(l) == 0 {
		return nil
	}
	ts := make([]int, len(l))
	for i, t := range l {
		ts[i] = int(t)
	}
	return ts
}

// encodeDirectory writes a superstep's input: per batch and drive, the
// tracks in the order the writer filled them — R words and a length per
// list. The entries are not written; they are parsed from the block
// headers when the batch is read.
func encodeDirectory(enc *words.Encoder, dir *outDirectory) {
	if dir == nil {
		enc.PutInt(0)
		return
	}
	enc.PutInt(int64(len(dir.q)))
	for _, perDrive := range dir.q {
		for _, refs := range perDrive {
			enc.PutInt(int64(len(refs))) // the form of PutInts
			for _, ref := range refs {
				enc.PutInt(int64(ref.track))
			}
		}
	}
}

// directory reads it back — no batches (the set-up's record) or the
// machine's — and claimTracks checks what it names.
func (r *recordReader) directory(batches, D int) *outDirectory {
	n := r.word()
	if n == 0 {
		return nil
	}
	if n != uint64(batches) {
		r.fail("holds %d batches of input, want %d", n, batches)
		return nil
	}
	dir := newOutDirectory(batches, D)
	for _, perDrive := range dir.q {
		for d := range perDrive {
			for _, t := range r.list(-1, "input tracks") {
				perDrive[d] = append(perDrive[d], blockRef{disk: d, track: int(t)})
				dir.total++
			}
		}
	}
	return dir
}

// encodeContexts writes the context directory: per batch one list (the
// form of PutInts), a word a block in block order, track·D + drive.
func encodeContexts(enc *words.Encoder, ctxDir [][]disk.Addr, D int) {
	for _, tracks := range ctxDir {
		enc.PutInt(int64(len(tracks)))
		for _, a := range tracks {
			enc.PutInt(int64(a.Track*D + a.Disk))
		}
	}
}

func (r *recordReader) contexts(batches, D int) [][]disk.Addr {
	ctxDir := make([][]disk.Addr, batches)
	for j := range ctxDir {
		ws := r.list(-1, "context tracks")
		ctxDir[j] = make([]disk.Addr, len(ws))
		for i, w := range ws {
			ctxDir[j][i] = disk.Addr{Disk: int(w % int64(D)), Track: int(w / int64(D))}
		}
	}
	return ctxDir
}

// encodeHeld writes the turnaround batch's records: the batch (-1: none)
// and, for a batch, the count of its VPs and each VP's record [length,
// words…] — the packed form ctx holds them in.
func (sh *simShape) encodeHeld(enc *words.Encoder, ps *procState) {
	enc.PutInt(int64(ps.held))
	if ps.held < 0 {
		return
	}
	lo, hi := sh.batchBounds(ps, ps.held)
	enc.PutInt(int64(hi - lo))
	enc.PutWords(ps.ctx[:ps.heldLen])
}

// held reads them back. The batch is the one the next round 0 simulates
// after step supersteps (none when it has no VPs), and its count the
// batch's VPs, each with a record of at most µ + 1 words.
func (r *recordReader) held(sh *simShape, ps *procState, step int) (j int, recs []uint64) {
	want := sh.batchAt(step, 0)
	lo, hi := sh.batchBounds(ps, want)
	if lo == hi {
		want = -1
	}
	if w := r.word(); r.err == nil && w != uint64(want) {
		r.fail("holds the contexts of batch %d in memory, want %d of %d batches", int64(w), want, sh.batches)
	}
	if r.err != nil || want < 0 {
		return -1, nil
	}
	n := r.count(hi-lo, "held contexts")
	for ; n > 0 && r.err == nil; n-- {
		w := r.word()
		switch {
		case r.err != nil:
		case w > uint64(sh.mu):
			r.fail("holds a context record of %d words, over µ + 1 = %d", w+1, sh.mu+1)
		case w > uint64(r.dec.Remaining()):
			r.fail("holds a context record of %d words in its last %d", w+1, r.dec.Remaining()+1)
		default:
			recs = append(recs, w)
			for ; w > 0; w-- {
				recs = append(recs, r.word())
			}
		}
	}
	return want, recs
}

// sleep reads the sleep bits of n owned VPs: their count of words,
// ⌈n/64⌉, then the words, with no bit set past the n-th.
func (r *recordReader) sleep(n int) []uint64 {
	bits := make([]uint64, r.count((n+63)/64, "words of sleep bits"))
	for i := range bits {
		bits[i] = r.word()
	}
	if last := len(bits) - 1; r.err == nil && last >= 0 && n%64 != 0 && bits[last]>>(n%64) != 0 {
		r.fail("holds sleep bits past its %d VPs", n)
	}
	return bits
}

// claimTracks checks the tracks a processor's record names, as input and
// as contexts, against the allocator state the record carries: both
// directories are read from and freed through, so a track that state
// never handed out, holds free, holds fresh (it would read zeros), or that
// is named twice is refused — before the store adopts anything.
func claimTracks(st disk.StoreState, dir *outDirectory, ctxDir [][]disk.Addr) error {
	held := make(map[disk.Addr]string)
	for d, free := range st.Free {
		for _, t := range free {
			held[disk.Addr{Disk: d, Track: t}] = "on the free list"
		}
	}
	for d, fresh := range st.Fresh {
		for _, t := range fresh {
			held[disk.Addr{Disk: d, Track: t}] = "fresh, never written since its allocation"
		}
	}
	claim := func(a disk.Addr, as string, batch int) error {
		is := held[a]
		if a.Disk < 0 || a.Disk >= len(st.Next) || a.Track < 0 || a.Track >= st.Next[a.Disk] {
			is = "beyond the allocator's mark"
		}
		if is != "" {
			return &engineError{msg: fmt.Sprintf("journal names track %d of drive %d as %s of batch %d: it is %s", a.Track, a.Disk, as, batch, is)}
		}
		held[a] = "already named as " + as
		return nil
	}
	if dir != nil {
		err := dir.each(func(g int, ref blockRef) error { return claim(disk.Addr{Disk: ref.disk, Track: ref.track}, "input", g) })
		if err != nil {
			return err
		}
	}
	for j, tracks := range ctxDir {
		for _, a := range tracks {
			if err := claim(a, "contexts", j); err != nil {
				return err
			}
		}
	}
	return nil
}

func encodeRecSteps(enc *words.Encoder, steps []bsp.SuperstepCost) {
	enc.PutInt(int64(len(steps)))
	for _, s := range steps {
		enc.PutInts([]int64{
			int64(s.MaxSendWords), int64(s.MaxRecvWords),
			int64(s.MaxSendPkts), int64(s.MaxRecvPkts),
			s.TotalWords, s.Messages, s.MaxCharge, s.TotalCharge,
		})
	}
}

func decodeRecSteps(dec *words.Decoder) []bsp.SuperstepCost {
	n := int(dec.Int())
	steps := make([]bsp.SuperstepCost, n)
	for i := range steps {
		t := dec.Ints()
		steps[i] = bsp.SuperstepCost{
			MaxSendWords: int(t[0]), MaxRecvWords: int(t[1]),
			MaxSendPkts: int(t[2]), MaxRecvPkts: int(t[3]),
			TotalWords: t[4], Messages: t[5], MaxCharge: t[6], TotalCharge: t[7],
		}
	}
	return steps
}

// ErrFingerprintMismatch is the error a resume returns when the state
// directory's journal carries another fingerprint than this run's: it
// was written under a different program, machine configuration, options
// or model rules (modelRules), so the run cannot continue it. The
// directory is left as found.
var ErrFingerprintMismatch = errors.New("core: journal fingerprint mismatch: the state directory was written under a different program, machine configuration, options or model rules")

// checkManifestHeader verifies the kind tag and fingerprint leading
// every manifest.
func checkManifestHeader(dec *words.Decoder, kind uint64, fpr uint64) error {
	gotKind := dec.Uint()
	if gotKind != kind {
		return fmt.Errorf("core: journal was written by a different engine, or by this one before its manifest changed (kind %#x, want %#x); it cannot be resumed", gotKind, kind)
	}
	if got := dec.Uint(); got != fpr {
		return ErrFingerprintMismatch
	}
	return nil
}

// encodeProcs appends every node's record of the barrier to the decision
// record of an in-process run: under a fault plan the record the node
// kept there, the words a replay adopts.
func (e *engine) encodeProcs(enc *words.Encoder) {
	enc.PutInt(int64(len(e.nodes)))
	for _, n := range e.nodes {
		if n.faulty() {
			enc.PutWords(n.rec.Words())
		} else {
			e.encodeProcManifest(enc, n.ps)
		}
	}
}

// encodeProcManifest writes one processor's complete barrier state —
// the per-processor section of the in-process manifest, and the whole
// body of a cluster node's manifest.
func (sh *simShape) encodeProcManifest(enc *words.Encoder, ps *procState) {
	st := ps.rng.State()
	for _, w := range st[:] {
		enc.PutUint(w)
	}
	enc.PutFloat(ps.maxSkew)
	enc.PutInt(ps.acct.High())
	encodeDirectory(enc, ps.inDir)
	encodeContexts(enc, ps.ctxDir, ps.chain.Config().D)
	sh.encodeHeld(enc, ps)
	enc.PutUint(uint64(len(ps.sleep)))
	enc.PutWords(ps.sleep)
	ps.encodeState(enc)
}

// readProcRecord reads the record of the barrier after step supersteps —
// the one place the record's order is read — checking every length, and
// returns the allocator state the record carries and adopt, which makes
// the record the processor's state. adopt first checks the tracks the two
// directories name against that state (claimTracks), so a record that
// fails either check is refused with the engine's typed error before the
// processor or its store is touched. The held records are adopted without
// model I/O, into internal memory the accountant holds for them again;
// the layers' states that follow the record are read from dec. A
// superstep replay (replay) leaves the accountant to the node
// (NodeEngine.replay), which rewinds it to its usage at the barrier, and
// keeps the chain's history (storeStack.decodeState); the high-water
// mark only ever rises.
func (sh *simShape) readProcRecord(dec *words.Decoder, ps *procState, step int, replay bool) (alloc disk.StoreState, adopt func() error, err error) {
	r := recordReader{dec: dec}
	var rng [4]uint64
	for i := range rng {
		rng[i] = r.word()
	}
	maxSkew, memHigh := math.Float64frombits(r.word()), int64(r.word())
	D, batches := ps.chain.Config().D, len(ps.ctxDir)
	inDir, ctxDir := r.directory(batches, D), r.contexts(batches, D)
	held, recs := r.held(sh, ps, step)
	sleep := r.sleep(ps.ownCount())
	alloc = r.storeState(D)
	if r.err != nil {
		return alloc, nil, r.err
	}
	return alloc, func() error {
		if err := claimTracks(alloc, inDir, ctxDir); err != nil {
			return err
		}
		ps.rng.SetState(rng)
		ps.maxSkew = maxSkew
		ps.acct.AdoptHigh(memHigh)
		ps.inDir = inDir
		copy(ps.ctxDir, ctxDir) // in place: ctxWrite may be the same table
		if !replay {
			ps.acct.Release(ps.heldGrab())
		}
		ps.held, ps.heldLen = held, len(recs)
		copy(ps.sleep, sleep)
		copy(sh.ctxSpan(ps, 0, len(recs)), recs)
		if !replay {
			if err := ps.acct.Grab(ps.heldGrab()); err != nil {
				return err
			}
		}
		return ps.decodeState(alloc, dec, replay)
	}, nil
}

// decodeProcManifest adopts the record of the barrier after step
// supersteps.
func (sh *simShape) decodeProcManifest(dec *words.Decoder, ps *procState, step int) error {
	_, adopt, err := sh.readProcRecord(dec, ps, step, false)
	if err != nil {
		return err
	}
	return adopt()
}

// decodeProcs adopts what encodeProcs wrote at the barrier after step
// supersteps. The crashed attempt may have left writes the record's
// parity does not encode; each chain reconciles them before the replay
// trusts the disk.
func (e *engine) decodeProcs(dec *words.Decoder, step int) error {
	if n := int(dec.Int()); n != len(e.nodes) {
		return fmt.Errorf("core: journal records %d processors, machine has %d", n, len(e.nodes))
	}
	for _, n := range e.nodes {
		if err := e.decodeProcManifest(dec, n.ps, step); err != nil {
			return err
		}
		n.stepsDone = step
	}
	for _, n := range e.nodes {
		if err := n.ps.reconcile(); err != nil {
			return err
		}
	}
	return nil
}
