// Package core implements the paper's central contribution: the
// simulation of BSP* / CGM algorithms as external-memory algorithms
// (Dehne–Dittrich–Hutchinson, Section 5).
//
// One engine implements Algorithm 3 (ParCompoundSuperstep) for every
// p ≥ 1; at p = 1 it is Algorithm 1 (SeqCompoundSuperstep). Algorithm 2
// (SimulateRouting) is reproduced by DemoRouting and runs in no
// superstep: the block writer's placement makes it unnecessary
// (DESIGN.md §7). The engine executes any bsp.Program with contexts held
// on a simulated multi-disk subsystem, materializing only k = ⌊M/µ⌋
// virtual processors per processor at a time, and is required to produce
// results bitwise identical to the in-memory reference runner bsp.Run.
package core

import (
	"context"
	"fmt"
	"time"

	"embsp/internal/bsp"
	"embsp/internal/disk"
	"embsp/internal/fault"
	"embsp/internal/obs"
	"embsp/internal/redundancy"
)

// MachineConfig describes the target EM-BSP* machine (Section 3).
type MachineConfig struct {
	// P is the number of real processors.
	P int
	// M is the internal memory per real processor, in words.
	M int
	// D is the number of disk drives per real processor.
	D int
	// B is the transfer block (track) size in words.
	B int
	// G is the model time of one parallel I/O operation.
	G float64
	// Cost holds the BSP*-level parameters (ĝ, g, b, L). The model
	// requires the packet size b ≥ B.
	Cost bsp.CostParams
}

// headerWords is the per-block header of a message block: destination
// cell, sending processor, stream number, chunk index, and the block's
// fill with its last-chunk flag (blocks.go).
const headerWords = 5

// Validate checks the machine configuration against the model's
// constraints.
func (c MachineConfig) Validate() error {
	if c.P <= 0 {
		return fmt.Errorf("core: P = %d, want > 0", c.P)
	}
	if c.D <= 0 || c.B <= 0 {
		return fmt.Errorf("core: D = %d, B = %d, want > 0", c.D, c.B)
	}
	if c.B < headerWords+1 {
		return fmt.Errorf("core: B = %d, want >= %d (message block header plus one payload word)", c.B, headerWords+1)
	}
	if c.M < c.D*c.B {
		return fmt.Errorf("core: M = %d < D·B = %d; the model requires one block per disk to fit in memory", c.M, c.D*c.B)
	}
	if c.G < 0 {
		return fmt.Errorf("core: G = %v, want >= 0", c.G)
	}
	if c.Cost.Pkt != 0 && c.Cost.Pkt < c.B {
		return fmt.Errorf("core: packet size b = %d < block size B = %d; the simulation requires b >= B", c.Cost.Pkt, c.B)
	}
	if c.Cost.L < 0 || c.Cost.GPkt < 0 || c.Cost.GUnit < 0 {
		return fmt.Errorf("core: negative cost parameter (ĝ=%v, g=%v, L=%v); all must be >= 0", c.Cost.GUnit, c.Cost.GPkt, c.Cost.L)
	}
	return nil
}

// DefaultMachine returns a small laptop-scale machine useful in
// examples: one processor, 1 MiW memory, 4 disks, 1 KiW blocks, with
// the packet size matched to the block size (the model requires
// b >= B).
func DefaultMachine() MachineConfig {
	cost := bsp.DefaultCostParams()
	cost.Pkt = 1 << 10
	cost.GPkt = float64(cost.Pkt)
	return MachineConfig{P: 1, M: 1 << 20, D: 4, B: 1 << 10, G: 1 << 12, Cost: cost}
}

// Options configures a simulation run.
type Options struct {
	// Seed keys all randomness: the Env.Rand streams of the program
	// and the engine's own disk/processor permutations.
	Seed uint64
	// Deterministic selects the deterministic placement variant the
	// paper notes is possible for communication of predetermined size
	// (CGM): where the block writer's placement by count leaves a choice
	// of drives, a round-robin rotation makes it instead of a random
	// permutation.
	Deterministic bool
	// FaultPlan, when non-nil and enabled, wraps every processor's disk
	// array in the fault-injection layer and turns on the engines'
	// superstep checkpoint/replay machinery (contexts written to tracks
	// of their own, every release deferred to the barrier commit). The simulation
	// result remains bitwise identical to the fault-free run; the extra
	// work appears in EMStats as RecoveryOps/Replays.
	FaultPlan *fault.Plan
	// MaxRetries bounds the fault layer's transparent charged retries
	// per operation: 0 means fault.DefaultMaxRetries, -1 disables
	// retries so every transient fault escalates to a superstep replay
	// (useful for exercising the rollback path). Values below -1 are
	// rejected.
	MaxRetries int
	// StateDir, when non-empty, makes the run durable: every simulated
	// drive is backed by a real file under this directory and every
	// compound-superstep barrier is committed to a write-ahead journal
	// there, so a crashed or killed run can be continued with Resume.
	StateDir string
	// Resume continues the run recorded in StateDir from its last
	// committed barrier instead of starting fresh. The program, machine
	// configuration and options must match the original run; the
	// journal records a fingerprint and the engines refuse a mismatch.
	Resume bool
	// OnCommit, when non-nil, is invoked after every durable barrier
	// commit with the superstep index just committed (-1 for the
	// initial-context commit). Tests use it to interrupt runs at exact
	// barriers; it is ignored without a StateDir.
	OnCommit func(step int)
	// Redundancy selects how each processor's disk array survives a
	// permanent drive loss: RedundancyNone (no protection — a scheduled
	// FailDriveOp is rejected by Validate), RedundancyMirror (a copy of
	// every written track on the next live drive, 2× capacity), or
	// RedundancyParity (rotated XOR parity groups across the D drives,
	// ~1/(D-1) overhead). Both are one layer, internal/redundancy, whose
	// stripes are one member wide under mirror; a dead drive's tracks,
	// and a track whose stored bytes went bad, are reconstructed when
	// read.
	Redundancy redundancy.Mode
	// DriveLatency emulates the access time of one physical track
	// transfer on the file-backed store: every slot read or write
	// sleeps this long on the goroutine moving the bytes. It models the
	// EM machine's independent drives on hosts whose page cache hides
	// real device latency, making schedule quality (D-parallel access,
	// I/O–compute overlap) measurable. It is also what picks the
	// physical schedule of a durable run: under latency the file store
	// runs one I/O worker goroutine per drive and the group pipeline
	// prefetches the next round's blocks and drains the last round's
	// writes in the background; at zero latency there is nothing to
	// hide, and the store is synchronous, in program order. Purely
	// wall-clock: all accounting happens at the logical operation in
	// program order, so results and every model statistic are bitwise
	// identical either way, and the knob stays out of the config
	// fingerprint — a durable run may resume under another latency.
	// Zero emulates nothing; ignored by in-memory arrays.
	DriveLatency time.Duration
	// Trace, when non-nil, records the run's wall-clock phase spans:
	// per-superstep/per-group engine phases (context fetch/writeback,
	// message read/write, compute, parity flush, barrier
	// fsync, journal commit) on every engine, plus the file-backed store's worker-level physical
	// transfers, exportable as Chrome trace_event JSON. Tracing is pure
	// observability, outside the config fingerprint and the identity
	// contract (identity.go). nil (the default) takes a no-op fast path
	// that skips even the clock reads.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives the run's counters as named
	// metrics at the end of the run: the EMStats aggregates plus the
	// overlap, fault and redundancy counters, and (when Trace is also
	// set) per-phase duration histograms. Observability like Trace; nil
	// costs nothing.
	Metrics *obs.Registry
}

// UnprotectedDriveLossError reports a fault plan that schedules a
// permanent drive death while the run has no redundancy to survive it.
// Options.Validate returns it so the impossible run is rejected up
// front instead of dying mid-simulation with an unrecoverable
// DriveLoss.
type UnprotectedDriveLossError struct {
	FailDrive int
	FailOp    int64
}

func (e *UnprotectedDriveLossError) Error() string {
	return fmt.Sprintf("core: fault plan kills drive %d at op %d but Redundancy is none; a drive loss without mirror or parity protection is unrecoverable (set Options.Redundancy)", e.FailDrive, e.FailOp)
}

// Validate checks the options against each other and against the
// machine configuration, turning invalid combinations into descriptive
// errors up front instead of deep engine failures.
func (o Options) Validate(cfg MachineConfig) error {
	if o.MaxRetries < -1 {
		return fmt.Errorf("core: MaxRetries = %d, want >= -1 (-1 disables retries, 0 selects the default)", o.MaxRetries)
	}
	if o.DriveLatency < 0 {
		return fmt.Errorf("core: DriveLatency = %v, want >= 0", o.DriveLatency)
	}
	if o.Resume && o.StateDir == "" {
		return fmt.Errorf("core: Resume requires a StateDir")
	}
	switch o.Redundancy {
	case redundancy.None, redundancy.Mirror, redundancy.Parity:
	default:
		return fmt.Errorf("core: Redundancy = %d, want none, mirror or parity", int(o.Redundancy))
	}
	if o.Redundancy != redundancy.None && cfg.D < 2 {
		return fmt.Errorf("core: Redundancy = %s requires D >= 2, have D = %d", o.Redundancy, cfg.D)
	}
	if o.FaultPlan != nil {
		if err := o.FaultPlan.Validate(); err != nil {
			return err
		}
		if o.FaultPlan.FailProc >= cfg.P {
			return fmt.Errorf("core: FaultPlan.FailProc = %d, machine has %d processors", o.FaultPlan.FailProc, cfg.P)
		}
		if o.FaultPlan.FailDriveOp > 0 {
			if o.FaultPlan.FailDrive >= cfg.D {
				return fmt.Errorf("core: FaultPlan.FailDrive = %d, machine has %d drives", o.FaultPlan.FailDrive, cfg.D)
			}
			if o.Redundancy == redundancy.None {
				return &UnprotectedDriveLossError{FailDrive: o.FaultPlan.FailDrive, FailOp: o.FaultPlan.FailDriveOp}
			}
		}
	}
	return nil
}

// EMStats reports the external-memory behaviour of a run.
type EMStats struct {
	// K is the group size k = max(1, ⌊M/µ⌋) (capped at v).
	K int
	// Groups is ⌈v/k⌉, the number of rounds per compound superstep.
	Groups int
	// CtxBlocksPerVP is ⌈(µ+1)/B⌉, the blocks reserved per context.
	CtxBlocksPerVP int
	// Setup / Run / Finish are disk statistics for writing the initial
	// contexts, the simulation proper, and reading back the final
	// contexts. For P > 1 they aggregate all processors.
	Setup  disk.Stats
	Run    disk.Stats
	Finish disk.Stats
	// PerProc holds each real processor's Run statistics (P entries).
	PerProc []disk.Stats
	// IOTime is the model I/O time of the simulation proper:
	// G · Σ_steps max_proc (ops in step). For P = 1 it is G·Run.Ops.
	IOTime float64
	// RouteOps and RaggedSlots are always zero: they counted
	// SimulateRouting's operations and the slots they left empty, and no
	// superstep runs it. The frozen benchmark module reads the two
	// fields; they go when it stops (ROADMAP item 1(d)).
	RouteOps    int64
	RaggedSlots int64
	// MaxBucketSkew is the largest observed ratio between the maximum
	// per-drive share of the blocks a batch's fetch reads — its contexts
	// and its incoming messages — and the even share R/D (Lemma 2's l).
	MaxBucketSkew float64
	// MemHigh is the engine's internal-memory high-water mark in words
	// (max over processors). Contexts are charged for the blocks their
	// records fill, not for k contexts at the µ bound
	// (K·CtxBlocksPerVP·B words), which only the budget assumes.
	MemHigh int64
	// LiveBlocksPerDrive is the most tracks any drive had allocated at
	// once (contexts, staged and delivered messages, and whatever the
	// run's layers keep beside them), counted by the allocator: the
	// paper's O(vµ/DB) disk-space quantity. Max over drives and processors.
	LiveBlocksPerDrive int64
	// CommWords / CommPkts / CommTime describe real inter-processor
	// traffic (P > 1 only): total words and packets exchanged between
	// real processors, and the model time Σ_steps max(L, g·maxpkts).
	CommWords int64
	CommPkts  int64
	CommTime  float64
	// Fault-tolerance accounting (all zero without a fault plan;
	// aggregated over processors for P > 1).
	//
	// FaultsInjected totals injected faults of every kind;
	// ChecksumFailures counts corrupted blocks detected on read;
	// DriveFailures counts permanent drive deaths.
	FaultsInjected   int64
	ChecksumFailures int64
	DriveFailures    int64
	// Retries / RetriedBlocks count the fault layer's transparent
	// re-issued operations and the blocks they re-transferred; Replays
	// counts compound supersteps (or setup/finish phases) rolled back
	// and replayed by the engine.
	Retries       int64
	RetriedBlocks int64
	Replays       int64
	// RecoveryOps is the total charged parallel I/O spent on recovery:
	// retry re-issues, and every operation consumed by rolled-back
	// superstep attempts.
	RecoveryOps int64
	// Redundancy accounting (all zero unless Redundancy is mirror or
	// parity; aggregated over processors for P > 1).
	//
	// ParityOps counts the extra charged parallel I/O spent maintaining
	// parity groups (striping fresh tracks — under mirror, writing their
	// copies — and the old-data reads and parity loads of the writes the
	// fault layer re-issues); ParityBlocks and StripedBlocks are gauges
	// of the current parity tracks (or copies) held and data tracks
	// protected — their ratio is the storage overhead, ≤ ⌈tracks/(D-1)⌉
	// under parity, 1 under mirror.
	ParityOps     int64
	ParityBlocks  int64
	StripedBlocks int64
	// DegradedOps counts the extra parallel I/O reads spend rebuilding a
	// lost or bad track from its stripe; ReconstructedBlocks counts the
	// blocks so rebuilt.
	DegradedOps         int64
	ReconstructedBlocks int64
	// RepairedBlocks reads 0 by construction: nothing rewrites a track
	// with reconstructed data. Only the frozen benchmark reads it, and
	// it goes with ROADMAP item 1(d).
	RepairedBlocks int64
	// Overlap reports the file-backed store's I/O–compute overlap
	// observability counters (prefetch hits, async writes, stall time,
	// concurrent-transfer high-water mark), aggregated over processors
	// for P > 1. They measure wall-clock scheduling, not model work, and
	// read zero for in-memory arrays: the identity contract's one side
	// field (identity.go).
	Overlap disk.OverlapStats
}

// Result is the outcome of an EM simulation run.
type Result struct {
	// VPs holds the final virtual processor states, indexed by id.
	VPs []bsp.VP
	// Costs holds the BSP-level model costs, measured exactly as the
	// in-memory runner measures them.
	Costs bsp.Costs
	// EM holds the external-memory statistics.
	EM EMStats
}

// ToBSPResult adapts the Result for code that consumes the reference
// runner's result type (same VPs and costs, no EM statistics).
func (r *Result) ToBSPResult() *bsp.Result { return &bsp.Result{VPs: r.VPs, Costs: r.Costs} }

// Run executes the program on the configured machine.
func Run(p bsp.Program, cfg MachineConfig, opts Options) (*Result, error) {
	return RunContext(context.Background(), p, cfg, opts)
}

// RunContext is Run with cooperative cancellation: the engines check
// ctx at every compound-superstep barrier and abort cleanly when it is
// done, returning an error wrapping ctx.Err(). A durable run's journal
// is left at the last committed barrier, so a cancelled run can be
// continued later with Options.Resume.
func RunContext(ctx context.Context, p bsp.Program, cfg MachineConfig, opts Options) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(cfg); err != nil {
		return nil, err
	}
	if err := checkProgram(p); err != nil {
		return nil, err
	}
	return runProgram(ctx, p, cfg, opts)
}
