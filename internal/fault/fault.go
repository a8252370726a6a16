// Package fault adds an imperfect-hardware layer to the simulated
// disk subsystem. The paper's machine model assumes perfect drives;
// real external-memory systems do not get them, and the compound
// superstep — which leaves all state on disk in the standard
// consecutive and standard linked formats — is exactly the natural
// recovery point the engines need to survive without them.
//
// The package wraps any disk.Store with a deterministic, seed-driven
// fault Plan:
//
//   - transient read and write errors: the operation is charged but
//     fails, and succeeds when re-issued;
//   - transfer corruption: a read delivers a bit-flipped block, which
//     the per-track checksums detect;
//   - permanent single-drive failure: from a configured operation
//     index on, one drive stops serving I/O for good.
//
// The wrapper recovers what it can on its own. Transient faults
// (including detected corruption) are retried with a bounded,
// model-costed policy: every retry re-issues the parallel operation
// against the underlying disk and is therefore a charged I/O op — the
// simulation's version of retry-with-backoff, surfaced to callers as
// Counters.Retries / RetriedBlocks / RecoveryOps. It protects nothing
// against a drive loss: that is the redundancy layer's (mirror or
// parity, internal/redundancy), beneath it, which serves a dead drive's
// tracks from the survivors.
//
// What the wrapper cannot recover (retries exhausted; the moment of a
// drive death) escapes as a typed *Error whose Recoverable flag tells
// the engine whether rolling back to the last compound-superstep
// barrier and replaying is worthwhile. The replay adopts the barrier's
// record: EncodeState at the barrier, DecodeState in replay mode after
// the fault.
//
// All randomness is keyed by Plan.Seed via prng.Derive, with one
// stream and one attempt clock per drive, consumed in the
// (deterministic) per-drive order of disk operations. A given seed
// therefore yields the same fault schedule on every run, and — since
// operations on disjoint drive sets advance disjoint clocks and
// streams — the schedule is independent of how such operations
// interleave, so fault injection preserves the repository's bitwise
// reproducibility guarantees even under concurrent I/O.
package fault

import (
	"fmt"

	"embsp/internal/obs"
)

// Kind classifies an injected fault.
type Kind uint8

const (
	// TransientRead is a read operation that failed but will succeed
	// when re-issued.
	TransientRead Kind = iota + 1
	// TransientWrite is a write operation that failed but will succeed
	// when re-issued.
	TransientWrite
	// Corruption is a read that delivered a bit-flipped block, detected
	// by the per-track checksum. Re-reading delivers clean data.
	Corruption
	// DriveLoss is a permanent single-drive failure.
	DriveLoss
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case TransientRead:
		return "transient-read"
	case TransientWrite:
		return "transient-write"
	case Corruption:
		return "corruption"
	case DriveLoss:
		return "drive-loss"
	}
	return fmt.Sprintf("fault.Kind(%d)", uint8(k))
}

// Error is the typed error the fault layer reports to the engines,
// identifying what failed and where. Recoverable reports whether
// rolling back to the last compound-superstep barrier and replaying
// can succeed: true for transient kinds (a replay draws a fresh fault
// schedule) and for a drive loss over a redundancy layer; false for a
// drive loss whose data has no second copy.
type Error struct {
	Kind        Kind
	Disk        int
	Track       int
	Op          string // "read" or "write"
	Recoverable bool
}

// Error formats the fault for logs and wrapped errors.
func (e *Error) Error() string {
	rec := "recoverable"
	if !e.Recoverable {
		rec = "unrecoverable"
	}
	return fmt.Sprintf("fault: %s on %s of drive %d track %d (%s)", e.Kind, e.Op, e.Disk, e.Track, rec)
}

// Transient reports whether the error is a transient fault kind, i.e.
// re-issuing the same operation may succeed.
func (e *Error) Transient() bool {
	return e.Kind == TransientRead || e.Kind == TransientWrite || e.Kind == Corruption
}

// Plan is a deterministic fault-injection schedule. The zero value
// injects nothing. Rates are per-block probabilities evaluated
// independently for every block of every operation attempt, drawn from
// a PRNG keyed by Seed, so the same plan over the same operation
// sequence injects the same faults.
type Plan struct {
	// Seed keys the fault schedule (independently of the run seed).
	Seed uint64
	// ReadErrorRate is the per-block probability that a parallel read
	// fails transiently.
	ReadErrorRate float64
	// WriteErrorRate is the per-block probability that a parallel
	// write fails transiently (the data does land on this simulated
	// controller, but the completion is lost, so the engine must
	// re-issue the operation — the charged-retry model).
	WriteErrorRate float64
	// CorruptRate is the per-block probability that a read delivers a
	// block with one bit flipped in transfer. Only blocks with a
	// recorded checksum are corrupted (a flip in a never-written block
	// would be undetectable and meaningless).
	CorruptRate float64
	// FirstOp exempts the first FirstOp operation attempts of each
	// drive from injection, e.g. to let input staging run clean.
	// (Clocks are per drive: an attempt advances only the clocks of
	// the drives its requests touch.)
	FirstOp int64
	// FailDriveOp, when positive, kills drive FailDrive permanently at
	// that drive's own operation-attempt index FailDriveOp — i.e. at
	// the first attempt touching FailDrive after it has served
	// FailDriveOp attempts.
	FailDriveOp int64
	// FailDrive is the drive that dies at FailDriveOp.
	FailDrive int
	// FailProc selects which real processor's drive dies (engines with
	// P > 1 give each processor its own disk array; only this
	// processor's plan keeps the drive failure). A death survives only
	// over a redundancy layer (Options.Redundancy); Options.Validate
	// rejects a plan that schedules one without.
	FailProc int
}

// Enabled reports whether the plan injects anything.
func (p Plan) Enabled() bool {
	return p.ReadErrorRate > 0 || p.WriteErrorRate > 0 || p.CorruptRate > 0 || p.FailDriveOp > 0
}

// Validate reports whether the plan is usable.
func (p Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"ReadErrorRate", p.ReadErrorRate}, {"WriteErrorRate", p.WriteErrorRate}, {"CorruptRate", p.CorruptRate}} {
		if r.v < 0 || r.v >= 1 {
			return fmt.Errorf("fault: %s = %v, want [0, 1)", r.name, r.v)
		}
	}
	if p.FirstOp < 0 {
		return fmt.Errorf("fault: FirstOp = %d, want >= 0", p.FirstOp)
	}
	if p.FailDrive < 0 {
		return fmt.Errorf("fault: FailDrive = %d, want >= 0", p.FailDrive)
	}
	if p.FailProc < 0 {
		return fmt.Errorf("fault: FailProc = %d, want >= 0", p.FailProc)
	}
	return nil
}

// Counters reports everything the fault layer injected and everything
// it spent recovering. All figures are monotone over the run (a
// superstep replay keeps them: its faults and recovery work really
// happened).
type Counters struct {
	// InjectedReadFaults / InjectedWriteFaults / InjectedCorruptions
	// count injected faults by kind.
	InjectedReadFaults  int64
	InjectedWriteFaults int64
	InjectedCorruptions int64
	// ChecksumFailures counts blocks whose per-track checksum did not
	// match on read (each detected corruption is one).
	ChecksumFailures int64
	// DriveFailures counts permanent drive deaths (0 or 1 per array).
	DriveFailures int64
	// Retries counts re-issued parallel operations; RetriedBlocks the
	// blocks they re-transferred.
	Retries       int64
	RetriedBlocks int64
	// RecoveryOps counts the extra charged parallel I/O operations the
	// layer spent on recovery: one per retry re-issue.
	RecoveryOps int64
}

// Injected returns the total number of injected faults.
func (c Counters) Injected() int64 {
	return c.InjectedReadFaults + c.InjectedWriteFaults + c.InjectedCorruptions + c.DriveFailures
}

// Publish folds the counters into the metrics registry under fault_*
// names, with Add semantics so multi-processor runs aggregate. A nil
// registry is a no-op.
func (c Counters) Publish(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Counter("fault_injected_read_faults").Add(c.InjectedReadFaults)
	r.Counter("fault_injected_write_faults").Add(c.InjectedWriteFaults)
	r.Counter("fault_injected_corruptions").Add(c.InjectedCorruptions)
	r.Counter("fault_checksum_failures").Add(c.ChecksumFailures)
	r.Counter("fault_drive_failures").Add(c.DriveFailures)
	r.Counter("fault_retries").Add(c.Retries)
	r.Counter("fault_retried_blocks").Add(c.RetriedBlocks)
	r.Counter("fault_recovery_ops").Add(c.RecoveryOps)
}
