// Package embsp is a working implementation of the simulation
// technique of Dehne, Dittrich and Hutchinson, "Efficient External
// Memory Algorithms by Simulating Coarse-Grained Parallel Algorithms"
// (SPAA '97; Algorithmica 36, 2003): it executes BSP* / CGM parallel
// programs as external-memory algorithms on a simulated machine with
// p processors, M words of memory each, and D disks per processor
// with block size B, where one parallel I/O operation moves up to D
// blocks at cost G.
//
// One engine runs a Program at every P, and one reference checks it,
// with bitwise identical results:
//
//   - Run — Algorithm 3 (ParCompoundSuperstep): contexts and messages
//     live on the simulated disks, the messages in the paper's standard
//     linked format, only k = ⌊M/µ⌋ virtual processors per processor
//     are in memory at a time, all I/O is fully blocked and D-parallel,
//     and every message block goes to the processor that owns its
//     destination (where the paper sends packets to random processors),
//     is placed evenly over that processor's drives and is read where
//     it lies (Algorithm 2, SimulateRouting, is reproduced by
//     cmd/embsp-layout and runs in no superstep). At P == 1 no block
//     leaves its processor and this is Algorithm 1
//     (SeqCompoundSuperstep).
//   - RunReference — the in-memory BSP reference semantics.
//
// The package also provides the Table 1 workloads (sorting,
// permutation, matrix transpose; 3D maxima, 2D dominance counting,
// rectangle union, convex hull, lower envelope, next-element search,
// all nearest neighbors; list ranking, Euler tour, connected
// components) as ready-made Programs, and the previously-known
// sequential EM baselines they are compared against. cmd/embsp-bench
// runs the paper's reproduction experiments (Table 1, Figure 2, the
// lemmas; counts only, see EXPERIMENTS.md); the benchmark/ module
// measures performance.
package embsp

import (
	"context"

	"embsp/internal/bsp"
	"embsp/internal/core"
	"embsp/internal/disk"
	"embsp/internal/fault"
	"embsp/internal/journal"
	"embsp/internal/obs"
	"embsp/internal/redundancy"
)

// Core model types, re-exported from the engine packages.
type (
	// MachineConfig describes the target EM-BSP* machine: P
	// processors, M words of memory and D disks (block size B, I/O
	// cost G) each, plus BSP*-level cost parameters.
	MachineConfig = core.MachineConfig
	// Options configures a run (seed, deterministic placement).
	Options = core.Options
	// Result is a completed run: final VP states, measured BSP costs
	// and external-memory statistics.
	Result = core.Result
	// EMStats reports the external-memory behaviour of a run.
	EMStats = core.EMStats
	// OverlapStats reports the wall-clock physical-overlap behaviour
	// of a pipelined file-backed run (EMStats.Overlap): prefetch hit
	// rates, asynchronous writes, stall time and the concurrency peak.
	// Unlike every other statistic, it is allowed to differ between
	// two runs of the same program — it describes the physical
	// schedule, not the model.
	OverlapStats = disk.OverlapStats
	// CostParams holds the BSP* parameters ĝ, g, b and L.
	CostParams = bsp.CostParams
	// Program is a BSP-like algorithm for v virtual processors.
	Program = bsp.Program
	// VP is one virtual processor of a Program.
	VP = bsp.VP
	// Env is a VP's execution environment during a superstep.
	Env = bsp.Env
	// Message is a point-to-point message between VPs.
	Message = bsp.Message
	// Costs holds measured BSP-level model costs.
	Costs = bsp.Costs
	// ReferenceResult is the outcome of an in-memory reference run.
	ReferenceResult = bsp.Result
	// FaultPlan is a deterministic seed-driven fault-injection
	// schedule; set Options.FaultPlan to run the engines with
	// imperfect hardware and superstep-granularity recovery. Results
	// stay bitwise identical to the fault-free run; the recovery work
	// is reported in EMStats.
	FaultPlan = fault.Plan
	// FaultError is the typed error the fault layer reports when
	// recovery is impossible (e.g. a drive loss with no redundancy).
	FaultError = fault.Error
	// ProgramError is the typed error returned when a Program's Step,
	// Load or Save panics: the panic is recovered in every engine and
	// reported with the VP id, superstep, phase and stack instead of
	// crashing the process. A Load is handed exactly the words its VP's
	// last Save wrote; reading past them is such a panic.
	ProgramError = bsp.ProgramError
	// JournalError is the typed error reported when the write-ahead
	// superstep journal in Options.StateDir is damaged (truncated HEAD,
	// corrupt record, fewer intact records than committed).
	JournalError = journal.Error
	// CorruptTrackError is the typed error reported when a track read
	// from a file-backed simulated drive fails its checksum (e.g. a torn
	// write from a crash mid-superstep on uncommitted data would be
	// detected, never silently used).
	CorruptTrackError = disk.CorruptTrackError
	// Redundancy selects how each processor's D simulated drives
	// survive a permanent drive loss; set Options.Redundancy. See
	// RedundancyNone, RedundancyMirror and RedundancyParity.
	Redundancy = redundancy.Mode
	// UnprotectedDriveLossError is the typed error Options validation
	// returns when a fault plan schedules a permanent drive death while
	// Redundancy is none.
	UnprotectedDriveLossError = core.UnprotectedDriveLossError
	// RecordFieldError is the typed error Run returns for a program
	// whose VP count or γ does not fit a message record's 32-bit field.
	RecordFieldError = core.RecordFieldError
	// Tracer records per-phase spans of a run as Chrome trace_event
	// JSON plus in-memory per-phase totals; set Options.Trace. It
	// observes wall clock (see Options.Trace); a nil Tracer costs
	// nothing.
	Tracer = obs.Tracer
	// MetricsRegistry collects named counters and duration histograms
	// from a run; set Options.Metrics. Observability like Tracer.
	MetricsRegistry = obs.Registry
	// TraceEvent is one decoded Chrome trace_event record; see
	// DecodeTrace.
	TraceEvent = obs.Event
	// PhaseTotal is a tracer's aggregated per-phase duration total.
	PhaseTotal = obs.PhaseTotal
)

// Redundancy modes.
const (
	// RedundancyNone leaves the drives unprotected: a permanent drive
	// loss is unrecoverable, and fault plans scheduling one are
	// rejected up front.
	RedundancyNone = redundancy.None
	// RedundancyMirror keeps a copy of every written track on the next
	// live drive — parity stripes of one member (2× capacity, survives
	// one drive loss).
	RedundancyMirror = redundancy.Mirror
	// RedundancyParity protects the D drives with rotated XOR parity
	// groups (RAID-5-style): ~1/(D-1) capacity overhead, one drive
	// loss survived via degraded reads.
	RedundancyParity = redundancy.Parity
)

// ErrFingerprintMismatch is the error Run returns, matched with
// errors.Is, when Options.Resume finds a StateDir journaled under a
// different program, machine configuration, options or model rules. The
// directory is left as found; it cannot be continued, only started
// afresh.
var ErrFingerprintMismatch = core.ErrFingerprintMismatch

// ParseRedundancy parses "none", "mirror" or "parity" (or "") into a
// Redundancy mode.
func ParseRedundancy(s string) (Redundancy, error) { return redundancy.ParseMode(s) }

// DefaultMachine returns a laptop-scale machine: one processor, 1 MiW
// of memory, 4 disks with 1 KiW blocks.
func DefaultMachine() MachineConfig { return core.DefaultMachine() }

// DefaultCostParams returns the default BSP* parameters used by the
// examples.
func DefaultCostParams() CostParams { return bsp.DefaultCostParams() }

// MmapSupported reports whether this platform can open the mmap-backed
// drive store. No run opens that store — every durable run uses the
// pread/pwrite file store — so this only tells the benchmark whether
// its per-drive mapped row can run; it goes with that row (ROADMAP item
// 1(d)).
func MmapSupported() bool { return disk.MmapSupported() }

// Run executes the program on the configured external-memory machine:
// one engine for every P >= 1 (Algorithm 3, which at P == 1 is
// Algorithm 1).
func Run(p Program, cfg MachineConfig, opts Options) (*Result, error) {
	return core.Run(p, cfg, opts)
}

// RunContext is Run with cooperative cancellation: when ctx is
// cancelled the run stops at the next superstep barrier and returns
// ctx's error. With Options.StateDir set, the journal is left at the
// last committed barrier, so the run can be continued later with
// Options.Resume.
func RunContext(ctx context.Context, p Program, cfg MachineConfig, opts Options) (*Result, error) {
	return core.RunContext(ctx, p, cfg, opts)
}

// RunReference executes the program entirely in memory — the
// reference semantics every EM engine must reproduce exactly.
func RunReference(p Program, seed uint64) (*ReferenceResult, error) {
	return bsp.Run(p, bsp.RunOptions{Seed: seed})
}

// Retriable classifies an error returned by Run / RunContext for
// callers (CLIs, the job daemon) deciding whether to attempt the run
// again: true means a fresh attempt — typically resuming the StateDir
// journal — has a real chance of succeeding, false means the failure
// is terminal and retrying only repeats it. ProgramError, journal
// damage, unrepairable corruption, validation errors and context
// cancellation are terminal; a fault the engines' own replay loop
// would have considered recoverable is retriable.
func Retriable(err error) bool { return core.Retriable(err) }

// NewTracer returns a memory-only Tracer: per-phase totals accumulate
// (see Tracer.Phases) but no trace file is written.
func NewTracer() *Tracer { return obs.New() }

// OpenTrace returns a Tracer writing Chrome trace_event JSON to path,
// loadable in chrome://tracing or Perfetto. With resume true the file
// is opened in append mode and a resume marker is emitted, so a
// crash-resumed run extends its predecessor's trace.
func OpenTrace(path string, resume bool) (*Tracer, error) { return obs.Open(path, resume) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// DecodeTrace parses the trace_event JSON a Tracer wrote. It accepts
// the unterminated-array form Tracer emits (the trailing "]" is
// deliberately never written, which is what makes append-mode crash
// survival safe; Chrome's loader tolerates it too).
func DecodeTrace(data []byte) ([]TraceEvent, error) { return obs.DecodeTrace(data) }

// ServeMetrics starts an HTTP listener on addr exposing the registry
// as Prometheus text at /metrics and JSON at /metrics.json, plus the
// standard pprof and expvar debug endpoints. It returns the actual
// listen address (useful with ":0").
func ServeMetrics(addr string, r *MetricsRegistry) (actual string, err error) {
	_, actual, err = obs.Serve(addr, r)
	return actual, err
}
