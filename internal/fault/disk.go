package fault

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"embsp/internal/disk"
	"embsp/internal/prng"
	"embsp/internal/words"
)

// DefaultMaxRetries is the retry budget used when the caller passes 0
// to Wrap. With per-block fault rates r well below 1, the probability
// that 8 consecutive attempts of one operation all fault is r^9 —
// negligible — so unrecoverable transient faults essentially only
// occur when retries are disabled deliberately.
const DefaultMaxRetries = 8

// inner is the store chain beneath the layer, embedded under this name
// so every disk.Store method the layer does not override is the chain's.
type inner = disk.Store

// Disk is the fault layer, a link of a store chain: injection
// according to a Plan and bounded charged retries. It keeps no per-track
// state and protects nothing: a dead drive's tracks are the redundancy
// layer's to serve, beneath it. It overrides ReadOp and WriteOp alone;
// the rest is the embedded chain's, promoted — allocation (directory
// metadata, not I/O, so it never faults), Stats (retries are real
// charged operations), state, durability and the raw track hooks — so
// engines run on a faulted chain unchanged.
//
// The fault schedule is per drive: each drive has its own attempt
// clock and its own injection PRNG stream (derived from the plan seed
// and the drive index), and an operation attempt advances only the
// clocks of the drives its request list touches. This makes the
// accounting order-independent across drives — two operations on
// disjoint drive sets commute bit-for-bit, whichever order a
// concurrent caller lands them in — which is what lets the layer be
// safe for concurrent use: all methods serialize on an internal mutex
// (physical D-parallelism lives below, inside one store operation),
// and racing operations on overlapping drives are ordered by whatever
// the race decides, exactly as at the store level.
type Disk struct {
	inner
	plan       Plan
	maxRetries int
	below      driveDier // redundancy layer underneath, if any

	mu       sync.Mutex   // guards everything below
	rngs     []*prng.Rand // per-drive injection streams
	attempts []int64      // per-drive operation-attempt clocks
	dead     []bool
	ctr      Counters

	// Scratch an attempt reuses, so a warm layer allocates nothing per
	// operation: tickDrives' per-request injection flags and per-drive
	// ticks, and readAttempt's corruption draws.
	inject, ticked []bool
	draws          []corruptDraw
}

// corruptDraw is one in-flight corruption a read attempt drew: request
// i's word w has bit bit flipped.
type corruptDraw struct {
	i   int
	w   int
	bit uint
}

// driveDier is implemented by a redundancy layer somewhere beneath the
// fault layer (found by walking the chain; structural, to avoid an
// import cycle). When present, dead-drive I/O passes straight through
// and the layer below reconstructs reads from a stripe's survivors (the
// engines place no write on a dead drive); without one, a drive death is
// unrecoverable.
type driveDier interface {
	DriveDied(d int)
}

// Wrap layers the fault model over a store. maxRetries bounds the
// transparent retry policy: 0 means DefaultMaxRetries, negative
// disables retries entirely (every transient fault escapes to the
// caller as a recoverable error).
func Wrap(a disk.Store, plan Plan, maxRetries int) (*Disk, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	cfg := a.Config()
	if plan.FailDriveOp > 0 && plan.FailDrive >= cfg.D {
		return nil, fmt.Errorf("fault: FailDrive = %d, machine has %d drives", plan.FailDrive, cfg.D)
	}
	if maxRetries == 0 {
		maxRetries = DefaultMaxRetries
	}
	if maxRetries < 0 {
		maxRetries = 0
	}
	f := &Disk{
		inner:      a,
		plan:       plan,
		maxRetries: maxRetries,
		below:      disk.Find[driveDier](a),
		rngs:       make([]*prng.Rand, cfg.D),
		attempts:   make([]int64, cfg.D),
		dead:       make([]bool, cfg.D),
		ticked:     make([]bool, cfg.D),
	}
	for d := range f.rngs {
		f.rngs[d] = prng.New(prng.Derive(plan.Seed, 0xFA01, uint64(d)))
	}
	return f, nil
}

// Inner returns the chain beneath the fault layer.
func (f *Disk) Inner() disk.Store { return f.inner }

// Counters returns the fault and recovery accounting.
func (f *Disk) Counters() Counters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ctr
}

// Down reports whether drive d has failed permanently.
func (f *Disk) Down(d int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead[d]
}

// tickDrives advances the attempt clock of each drive the request
// list touches by one (at(i) is request i's address) and reports, per
// request, whether injection is active for it (its drive's clock has
// reached FirstOp), in a list the next attempt reuses. It also handles
// the scheduled drive death: the
// failing drive dies when its own clock reaches FailDriveOp, so only an
// operation that touches that drive can trigger the death — which is
// what makes the schedule independent of how operations on other drives
// interleave.
//
// The error is the drive loss the attempt of op meets, before any I/O.
// The death always aborts the attempt: tracks written since the barrier
// may sit on the dying drive with their stripe's parity or copy not yet
// on disk, so the superstep replays with the drive dead, and the engine
// places nothing on the dead drive from then on. Without a redundancy
// layer below the loss is unrecoverable, at the death and at every later
// touch of the drive.
func (f *Disk) tickDrives(op string, n int, at func(int) disk.Addr) (inject []bool, err error) {
	inject = slices.Grow(f.inject[:0], n)[:n]
	f.inject = inject
	ticked := f.ticked
	clear(ticked)
	for i := 0; i < n; i++ {
		a := at(i)
		d := a.Disk
		if f.dead[d] && f.below == nil {
			err = &Error{Kind: DriveLoss, Disk: d, Track: a.Track, Op: op}
		}
		if !ticked[d] {
			ticked[d] = true
			f.attempts[d]++
		}
		idx := f.attempts[d] - 1
		inject[i] = idx >= f.plan.FirstOp
		if f.plan.FailDriveOp > 0 && d == f.plan.FailDrive && idx >= f.plan.FailDriveOp && !f.dead[d] {
			f.dead[d] = true
			f.ctr.DriveFailures++
			if f.below != nil {
				f.below.DriveDied(d)
			}
			err = &Error{Kind: DriveLoss, Disk: d, Op: op, Recoverable: f.below != nil}
		}
	}
	return inject, err
}

// Clock returns drive d's operation-attempt clock, the index
// Plan.FirstOp and Plan.FailDriveOp are measured on.
func (f *Disk) Clock(d int) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts[d]
}

// ReadOp performs one parallel read with fault injection and bounded
// retries.
func (f *Disk) ReadOp(reqs []disk.ReadReq) error {
	return f.retry(len(reqs), func() error { return f.readAttempt(reqs) })
}

// WriteOp performs one parallel write with fault injection and bounded
// retries.
func (f *Disk) WriteOp(reqs []disk.WriteReq) error {
	return f.retry(len(reqs), func() error { return f.writeAttempt(reqs) })
}

// retry runs attempt, one try of an operation on n requests, until it
// succeeds, meets a fault that is not transient or spends the retry
// budget. Every attempt — including failed ones — is charged against the
// underlying array, so recovery is visible in the model's I/O cost
// exactly as the retry-with-backoff policy prescribes.
func (f *Disk) retry(n int, attempt func() error) error {
	if n == 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for try := 0; ; try++ {
		err := attempt()
		if err == nil {
			return nil
		}
		var fe *Error
		if !errors.As(err, &fe) || !fe.Transient() || try >= f.maxRetries {
			return err
		}
		f.ctr.Retries++
		f.ctr.RetriedBlocks += int64(n)
	}
}

func (f *Disk) readAttempt(reqs []disk.ReadReq) error {
	inject, err := f.tickDrives("read", len(reqs), func(i int) disk.Addr { return disk.Addr{Disk: reqs[i].Disk, Track: reqs[i].Track} })
	if err != nil {
		return err
	}

	// Draw the fault schedule for this attempt before doing any I/O,
	// each request from its own drive's stream, so the schedule depends
	// only on that drive's attempt history.
	failIdx, corrupt := -1, f.draws[:0]
	for i, r := range reqs {
		if !inject[i] {
			continue
		}
		rng := f.rngs[r.Disk]
		if f.plan.ReadErrorRate > 0 && rng.Float64() < f.plan.ReadErrorRate && failIdx < 0 {
			failIdx = i
		}
		if f.plan.CorruptRate > 0 && rng.Float64() < f.plan.CorruptRate {
			corrupt = append(corrupt, corruptDraw{
				i:   i,
				w:   int(rng.Uint64() % uint64(len(r.Dst))),
				bit: uint(rng.Uint64() % 64),
			})
		}
	}
	f.draws = corrupt

	if err := f.inner.ReadOp(reqs); err != nil {
		return err
	}

	// The transient failure is reported after the transfer was
	// attempted: the operation is charged, its completion is lost.
	if failIdx >= 0 {
		f.ctr.InjectedReadFaults++
		f.ctr.RecoveryOps++ // the re-issue this failure forces
		return &Error{Kind: TransientRead, Disk: reqs[failIdx].Disk, Track: reqs[failIdx].Track, Op: "read", Recoverable: true}
	}

	// In-flight corruption: flip one deterministic bit of the delivered
	// block, unless the transfer is blank by metadata — a zero-filled
	// read the medium never served. Every flip is detected, as a block
	// checksum detects it (one flipped bit always changes a track's
	// checksum), and the lowest-indexed flipped request is the one
	// reported.
	bad := -1
	for _, c := range corrupt {
		r := reqs[c.i]
		if f.inner.Blank(r.Disk, r.Track) {
			continue
		}
		r.Dst[c.w] ^= 1 << c.bit
		f.ctr.InjectedCorruptions++
		if bad < 0 {
			bad = c.i
		}
	}
	if bad >= 0 {
		f.ctr.ChecksumFailures++
		f.ctr.RecoveryOps++ // the re-read this detection forces
		return &Error{Kind: Corruption, Disk: reqs[bad].Disk, Track: reqs[bad].Track, Op: "read", Recoverable: true}
	}
	return nil
}

func (f *Disk) writeAttempt(reqs []disk.WriteReq) error {
	inject, err := f.tickDrives("write", len(reqs), func(i int) disk.Addr { return disk.Addr{Disk: reqs[i].Disk, Track: reqs[i].Track} })
	if err != nil {
		return err
	}

	failIdx := -1
	if f.plan.WriteErrorRate > 0 {
		for i, r := range reqs {
			if !inject[i] {
				continue
			}
			if f.rngs[r.Disk].Float64() < f.plan.WriteErrorRate && failIdx < 0 {
				failIdx = i
			}
		}
	}

	if err := f.inner.WriteOp(reqs); err != nil {
		return err
	}

	if failIdx >= 0 {
		f.ctr.InjectedWriteFaults++
		f.ctr.RecoveryOps++ // the re-issue this failure forces
		return &Error{Kind: TransientWrite, Disk: reqs[failIdx].Disk, Track: reqs[failIdx].Track, Op: "write", Recoverable: true}
	}
	return nil
}

// Replayable reports whether err contains a fault the engines can
// recover from by rolling back to the last compound-superstep barrier
// and replaying.
func Replayable(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Recoverable
}

// EncodeState appends the fault layer's complete persistent state to
// enc: the drive count, the per-drive fault-schedule clocks, the
// per-drive injection PRNGs, dead drives and the accumulated counters —
// a fixed size for D drives, and all of it history. It is the layer's part of a
// processor's barrier record, which a resumed process adopts and a
// superstep replay does not (DecodeState).
func (f *Disk) EncodeState(enc *words.Encoder) {
	f.mu.Lock()
	defer f.mu.Unlock()
	enc.PutInt(int64(len(f.attempts)))
	for _, a := range f.attempts {
		enc.PutInt(a)
	}
	for _, r := range f.rngs {
		st := r.State()
		for _, w := range st[:] {
			enc.PutUint(w)
		}
	}
	for _, d := range f.dead {
		enc.PutBool(d)
	}
	c := f.ctr
	enc.PutInts([]int64{
		c.InjectedReadFaults, c.InjectedWriteFaults, c.InjectedCorruptions,
		c.ChecksumFailures, c.DriveFailures, c.Retries, c.RetriedBlocks,
		c.RecoveryOps,
	})
}

// DecodeState reads state written by EncodeState. A resumed process
// adopts it, so the fault schedule continues exactly where the barrier
// left it. A superstep replay (replay) adopts none of it: the clocks,
// the injection streams, the dead drives and the counters are history,
// which a replay keeps — it is new work under new draws, not a rewind of
// what happened (DESIGN.md §8).
func (f *Disk) DecodeState(dec *words.Decoder, replay bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	na := int(dec.Int())
	if na != len(f.attempts) {
		return fmt.Errorf("fault: decoding clocks for %d drives into %d-drive layer", na, len(f.attempts))
	}
	for d := range f.attempts {
		if a := dec.Int(); !replay {
			f.attempts[d] = a
		}
	}
	for _, r := range f.rngs {
		var st [4]uint64
		for i := range st {
			st[i] = dec.Uint()
		}
		if !replay {
			r.SetState(st)
		}
	}
	for d := range f.dead {
		if dead := dec.Bool(); !replay {
			f.dead[d] = dead
		}
	}
	cs := dec.Ints()
	if len(cs) != 8 {
		return fmt.Errorf("fault: counter state has %d fields, want 8", len(cs))
	}
	if !replay {
		f.ctr = Counters{
			InjectedReadFaults: cs[0], InjectedWriteFaults: cs[1], InjectedCorruptions: cs[2],
			ChecksumFailures: cs[3], DriveFailures: cs[4], Retries: cs[5], RetriedBlocks: cs[6],
			RecoveryOps: cs[7],
		}
	}
	return nil
}
