// Package jobs runs EM-BSP simulations as supervised jobs behind the
// embsp-serve daemon. A job is a named workload spec (algorithm, size,
// seed, machine shape) — everything needed to rebuild the Program
// deterministically — so the queue survives restarts: the supervisor
// persists a fsynced job manifest (same atomic-rename discipline as
// the superstep journal's commit) and on startup re-adopts every
// unfinished job, resuming runs from their journals.
//
// Robustness properties:
//
//   - Admission control: per-tenant memory quotas and a bounded queue
//     refuse work up front (HTTP 429 + Retry-After) instead of
//     accepting jobs the daemon cannot serve; a daemon-wide memory
//     budget gates dequeued jobs via mem.Accountant.ReserveCtx, so a
//     job waits for running jobs to release capacity — and stops
//     waiting the moment it is cancelled.
//   - Retry with exponential backoff and deterministic jitter for
//     failures embsp.Retriable classifies as transient; terminal
//     failures (program panics, journal damage, validation) are
//     reported, never retried.
//   - Per-job deadlines wired to the engines' barrier cancellation.
//   - Graceful drain: running jobs stop at their next journal commit
//     and are marked interrupted; a later supervisor finishes them
//     with Options.Resume, bitwise identical to an uninterrupted run.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"embsp"
	"embsp/internal/journal"
	"embsp/internal/mem"
	"embsp/internal/obs"
	"embsp/internal/prng"
	"embsp/internal/workload"
)

// State is a job's position in its lifecycle. Queued, running and
// backoff jobs are live; done, failed and cancelled are terminal;
// interrupted marks a job a draining supervisor stopped at a journal
// commit, to be resumed by the next supervisor over the same root.
type State string

const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateBackoff     State = "backoff"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCancelled   State = "cancelled"
	StateInterrupted State = "interrupted"
)

// Terminal reports whether the state is final: the job holds no
// resources and will never run again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Request is a job submission: which workload to run and on what
// simulated machine. Zero values select defaults (1 processor, 4
// drives, 64-word blocks, internal memory sized to the program, 3
// attempts, no redundancy, no deadline).
type Request struct {
	Workload workload.Spec `json:"workload"`
	// Tenant names the quota bucket the job is charged against;
	// empty is a tenant like any other.
	Tenant string `json:"tenant,omitempty"`
	Procs  int    `json:"procs,omitempty"`
	Disks  int    `json:"disks,omitempty"`
	Block  int    `json:"block,omitempty"`
	// MemWords fixes the simulated machine's internal memory M; 0
	// sizes it to the program (4·MaxContextWords, at least D·B).
	MemWords   int    `json:"mem_words,omitempty"`
	Redundancy string `json:"redundancy,omitempty"`
	// DeadlineMS bounds the job's total wall-clock time from
	// submission, enforced at superstep barriers; 0 means none.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxAttempts bounds runs of this job including retries; 0 means 3.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// DriveLatencyUS emulates per-track access time (wall-clock only,
	// outside the bitwise-identity contract); tests use it to keep a
	// job running long enough to cancel or drain.
	DriveLatencyUS int64 `json:"drive_latency_us,omitempty"`
}

// maxN and maxV bound a request's problem size and VP count. A request
// above either is refused before its workload is built: the input is
// drawn in the daemon's own memory before any quota is charged.
const (
	maxN = 1 << 22
	maxV = 1 << 12
)

// validate checks the request's workload shape without building it.
func (r Request) validate() error {
	if err := r.Workload.Validate(); err != nil {
		return err
	}
	if r.Workload.N > maxN {
		return fmt.Errorf("jobs: n = %d, want <= %d", r.Workload.N, maxN)
	}
	if r.Workload.V > maxV {
		return fmt.Errorf("jobs: v = %d, want <= %d", r.Workload.V, maxV)
	}
	return nil
}

func (r *Request) normalize() {
	if r.Procs <= 0 {
		r.Procs = 1
	}
	if r.Disks <= 0 {
		r.Disks = 4
	}
	if r.Block <= 0 {
		r.Block = 64
	}
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 3
	}
}

// machineFor derives the simulated machine from the request and the
// built program. The mapping is deterministic, so a restarted
// supervisor rebuilds the exact machine the original run journaled.
func (r Request) machineFor(prog embsp.Program) embsp.MachineConfig {
	m := r.MemWords
	if min := 4 * prog.MaxContextWords(); m < min {
		m = min
	}
	if min := r.Disks * r.Block; m < min {
		m = min
	}
	pkt := 64
	if r.Block > pkt {
		pkt = r.Block
	}
	return embsp.MachineConfig{
		P: r.Procs, M: m, D: r.Disks, B: r.Block, G: 100,
		Cost: embsp.CostParams{GUnit: 1, GPkt: 64, Pkt: pkt, L: 10},
	}
}

// options derives the run options for one attempt in stateDir.
func (r Request) options(stateDir string, resume bool) (embsp.Options, error) {
	mode, err := embsp.ParseRedundancy(r.Redundancy)
	if err != nil {
		return embsp.Options{}, err
	}
	return embsp.Options{
		Seed:         r.Workload.Seed,
		StateDir:     stateDir,
		Resume:       resume,
		Redundancy:   mode,
		DriveLatency: time.Duration(r.DriveLatencyUS) * time.Microsecond,
	}, nil
}

// RunOnce executes the request once in stateDir, outside any
// supervisor and without emulated latency — the clean
// baseline whose fingerprint a supervised job (however many times it
// was interrupted, killed and resumed) must reproduce exactly.
func (r Request) RunOnce(stateDir string) (*Summary, error) {
	r.normalize()
	inst, err := r.Workload.Build()
	if err != nil {
		return nil, err
	}
	cfg := r.machineFor(inst.Program)
	opts, err := r.options(stateDir, false)
	if err != nil {
		return nil, err
	}
	opts.DriveLatency = 0
	res, err := embsp.Run(inst.Program, cfg, opts)
	if err != nil {
		return nil, err
	}
	return summarize(inst, res), nil
}

// summarize digests a completed run into its served Summary.
func summarize(inst *workload.Instance, res *embsp.Result) *Summary {
	return &Summary{
		Fingerprint: fmt.Sprintf("%016x", workload.Fingerprint(res)),
		Supersteps:  res.Costs.Supersteps,
		IOOps:       res.EM.Setup.Ops + res.EM.Run.Ops + res.EM.Finish.Ops,
		Description: inst.Describe(res),
	}
}

// Summary is the result of a completed job. Fingerprint digests the
// final VP states and model statistics (EMStats.Overlap excluded, as
// everywhere); two runs of the same request always produce the same
// fingerprint, interrupted and resumed or not.
type Summary struct {
	Fingerprint string `json:"fingerprint"`
	Supersteps  int    `json:"supersteps"`
	IOOps       int64  `json:"io_ops"`
	Description string `json:"description"`
}

// Job is one supervised run, as persisted in the manifest and served
// over the HTTP API.
type Job struct {
	ID       string  `json:"id"`
	Request  Request `json:"request"`
	State    State   `json:"state"`
	Attempts int     `json:"attempts"`
	// Error describes the failure for failed jobs, or the last
	// retriable failure while a retry is pending.
	Error  string   `json:"error,omitempty"`
	Result *Summary `json:"result,omitempty"`
	// StateDir is the job's state directory, relative to the
	// supervisor root. It holds the run's journal and drive files.
	StateDir        string `json:"state_dir"`
	SubmittedUnixMS int64  `json:"submitted_unix_ms"`
	StartedUnixMS   int64  `json:"started_unix_ms,omitempty"`
	FinishedUnixMS  int64  `json:"finished_unix_ms,omitempty"`
	DeadlineUnixMS  int64  `json:"deadline_unix_ms,omitempty"`
	// Resumed records that some attempt continued from a committed
	// journal rather than starting fresh.
	Resumed bool `json:"resumed,omitempty"`
}

// AdmissionError is a refusal to accept a job right now — the queue is
// full or the tenant's quota is exhausted. The HTTP front end maps it
// to 429 with Retry-After.
type AdmissionError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *AdmissionError) Error() string { return "jobs: not admitted: " + e.Reason }

// Sentinel errors of the supervisor API.
var (
	ErrNotFound = errors.New("jobs: no such job")
	ErrFinished = errors.New("jobs: job already finished")
	ErrDraining = errors.New("jobs: supervisor is draining")
)

// Cancellation causes, distinguished via context.Cause so a drained
// job (resume later) is never confused with a cancelled one (never
// run again).
var (
	errDrainCause  = errors.New("jobs: draining")
	errCancelCause = errors.New("jobs: cancelled by request")
)

// Config configures a Supervisor.
type Config struct {
	// Root is the state root: the manifest lives at Root/manifest.json
	// and each job's StateDir under Root/jobs/.
	Root string
	// Workers bounds concurrently running jobs; 0 means 4.
	Workers int
	// QueueDepth bounds live (queued+running+backoff) jobs; a full
	// queue refuses submissions with an AdmissionError. 0 means 64.
	QueueDepth int
	// GlobalMemWords is the daemon-wide simulated-memory budget
	// dequeued jobs reserve against (P·M words each); 0 is unlimited.
	GlobalMemWords int64
	// TenantMemWords is each tenant's quota, charged at admission and
	// released when the job reaches a terminal state; 0 is unlimited.
	TenantMemWords int64
	// TenantDiskBytes is each tenant's on-disk budget: every job is
	// charged its estimated StateDir footprint (D·tracks·trackBytes) at
	// admission, released at its terminal state; 0 is unlimited.
	TenantDiskBytes int64
	// Retain bounds how long terminal jobs survive in the manifest:
	// on startup, jobs that finished more than Retain ago are dropped
	// and their state directories deleted, so the manifest stops
	// growing without bound. 0 retains everything.
	Retain time.Duration
	// Metrics receives job-lifecycle counters and queue/run
	// histograms; nil disables.
	Metrics *obs.Registry
	// Sleep implements the backoff wait; nil uses a real timer that
	// aborts when ctx is done. Tests inject a recorder.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (c *Config) normalize() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Sleep == nil {
		c.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
}

// Supervisor owns the job queue: admission, the worker pool, retry and
// deadline policy, the persistent manifest, and drain/resume.
type Supervisor struct {
	cfg      Config
	global   *mem.Accountant
	baseCtx  context.Context
	baseStop context.CancelCauseFunc
	kick     chan struct{} // wakes one idle worker; cap 1
	wg       sync.WaitGroup

	mu          sync.Mutex
	jobs        map[string]*Job
	order       []string // submission order
	queue       []string // runnable job IDs, FIFO
	nextID      int
	tenants     map[string]*mem.Accountant
	tenantsDisk map[string]*mem.Accountant
	charged     map[string]int64 // live jobs' admitted charge in words
	chargedDisk map[string]int64 // live jobs' admitted charge in disk bytes
	cancels     map[string]context.CancelCauseFunc
	draining    bool
	started     bool
}

// New opens (or creates) the state root, replays the manifest, and
// re-adopts every unfinished job: running, backoff and interrupted
// jobs go back to queued, to be resumed from their journals once
// Start is called. It does not start workers.
func New(cfg Config) (*Supervisor, error) {
	cfg.normalize()
	if cfg.Root == "" {
		return nil, errors.New("jobs: Config.Root is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.Root, "jobs"), 0o777); err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancelCause(context.Background())
	s := &Supervisor{
		cfg:         cfg,
		global:      mem.NewAccountant(cfg.GlobalMemWords),
		baseCtx:     ctx,
		baseStop:    stop,
		kick:        make(chan struct{}, 1),
		jobs:        make(map[string]*Job),
		tenants:     make(map[string]*mem.Accountant),
		tenantsDisk: make(map[string]*mem.Accountant),
		charged:     make(map[string]int64),
		chargedDisk: make(map[string]int64),
		cancels:     make(map[string]context.CancelCauseFunc),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// Metrics returns the configured registry (possibly nil).
func (s *Supervisor) Metrics() *obs.Registry { return s.cfg.Metrics }

func (s *Supervisor) tenant(name string) *mem.Accountant {
	a := s.tenants[name]
	if a == nil {
		a = mem.NewAccountant(s.cfg.TenantMemWords)
		s.tenants[name] = a
	}
	return a
}

func (s *Supervisor) tenantDisk(name string) *mem.Accountant {
	a := s.tenantsDisk[name]
	if a == nil {
		a = mem.NewAccountant(s.cfg.TenantDiskBytes)
		s.tenantsDisk[name] = a
	}
	return a
}

// charge computes a job's admission charge: the simulated machine's
// total internal memory, P·M words.
func (r Request) charge() (int64, error) {
	words, _, err := r.charges()
	return words, err
}

// charges computes both admission charges: the simulated machine's
// total internal memory (P·M words) and the estimated StateDir
// footprint (D·tracks·trackBytes). The disk estimate covers the blocks
// a run keeps live — double-buffered contexts plus in- and outbound
// message areas, 2·v·(⌈µ/B⌉+⌈γ/B⌉) blocks striped over D drives at
// B+2 words (payload, address tag, checksum) per track slot. A request
// its run would refuse is refused here: the machine and the run options
// are validated against each other as embsp.Run validates them.
func (r Request) charges() (memWords, diskBytes int64, err error) {
	inst, err := r.Workload.Build()
	if err != nil {
		return 0, 0, err
	}
	prog := inst.Program
	cfg := r.machineFor(prog)
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	opts, err := r.options("", false)
	if err != nil {
		return 0, 0, err
	}
	if err := opts.Validate(cfg); err != nil {
		return 0, 0, err
	}
	muBlocks := (prog.MaxContextWords() + cfg.B - 1) / cfg.B
	gammaBlocks := (prog.MaxCommWords() + cfg.B - 1) / cfg.B
	blocks := 2 * int64(prog.NumVPs()) * int64(muBlocks+gammaBlocks)
	tracks := (blocks + int64(cfg.D) - 1) / int64(cfg.D)
	diskBytes = int64(cfg.D) * tracks * int64(cfg.B+2) * 8
	return int64(cfg.P) * int64(cfg.M), diskBytes, nil
}

// load replays the manifest and re-adopts unfinished jobs.
func (s *Supervisor) load() error {
	m, err := readManifest(s.cfg.Root)
	if err != nil {
		return err
	}
	if m == nil {
		return s.persistLocked()
	}
	s.nextID = m.NextID
	adopted, compacted := 0, 0
	cutoff := time.Now().Add(-s.cfg.Retain).UnixMilli()
	for _, j := range m.Jobs {
		// Compaction: terminal jobs outside the retention window are
		// dropped from the manifest and their state reclaimed, so the
		// manifest stops growing without bound. Live jobs are always
		// kept — they hold resumable state.
		if s.cfg.Retain > 0 && j.State.Terminal() && j.FinishedUnixMS > 0 && j.FinishedUnixMS < cutoff {
			compacted++
			if j.StateDir != "" && !filepath.IsAbs(j.StateDir) {
				os.RemoveAll(filepath.Join(s.cfg.Root, j.StateDir)) //nolint:errcheck // best-effort reclaim
			}
			continue
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if j.State.Terminal() {
			continue
		}
		j.State = StateQueued
		adopted++
		// Re-admit against the (possibly re-configured) quotas. A job
		// that no longer fits stays adopted but uncharged — it was
		// admitted once, and refusing it now would strand its state.
		if c, dc, err := j.Request.charges(); err == nil {
			if s.tenant(j.Request.Tenant).Grab(c) == nil {
				s.charged[j.ID] = c
			}
			if s.tenantDisk(j.Request.Tenant).Grab(dc) == nil {
				s.chargedDisk[j.ID] = dc
			}
		}
	}
	if adopted > 0 {
		s.cfg.Metrics.Counter("jobs_adopted").Add(int64(adopted))
	}
	if compacted > 0 {
		s.cfg.Metrics.Counter("jobs_compacted").Add(int64(compacted))
	}
	return s.persistLocked()
}

// Start launches the worker pool and enqueues adopted jobs in
// submission order.
func (s *Supervisor) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	for _, id := range s.order {
		if s.jobs[id].State == StateQueued {
			s.queue = append(s.queue, id)
		}
	}
	s.gaugesLocked()
	s.mu.Unlock()
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Admission backoff hints. A 429's Retry-After used to be a fixed
// second regardless of load; it is now derived from what the daemon
// has actually observed — the jobs_run histogram (how long a running
// job takes to free its capacity) and the jobs_queue_wait histogram
// (how long a queued job waits for a worker) — scaled by the backlog
// standing between the caller and free capacity. Before any job has
// completed there is no history, and the hint falls back to the old
// fixed second; it is always clamped to [100ms, 2m] so a degenerate
// histogram can neither tell clients to hammer nor to go away for
// hours.

const (
	minRetryAfter = 100 * time.Millisecond
	maxRetryAfter = 2 * time.Minute
)

func clampRetryAfter(d time.Duration) time.Duration {
	if d <= 0 {
		return time.Second // no observed history yet
	}
	return min(max(d, minRetryAfter), maxRetryAfter)
}

// retryAfterSlotLocked estimates the wait for a queue slot: with
// Workers jobs retiring concurrently, one of the live jobs terminates
// roughly every meanRun/Workers. Caller holds s.mu.
func (s *Supervisor) retryAfterSlotLocked() time.Duration {
	mean := s.cfg.Metrics.Histogram("jobs_run").Snapshot().Mean()
	return clampRetryAfter(mean / time.Duration(s.cfg.Workers))
}

// retryAfterTenantLocked estimates the wait for the tenant's quota to
// free: one of the tenant's own jobs must terminate. A running job
// frees capacity after about one mean run time; if the tenant's
// backlog is entirely queued, the next release is a queue wait plus a
// run away. Caller holds s.mu.
func (s *Supervisor) retryAfterTenantLocked(tenant string) time.Duration {
	running := false
	for _, j := range s.jobs {
		if j.Request.Tenant == tenant && j.State == StateRunning {
			running = true
			break
		}
	}
	d := s.cfg.Metrics.Histogram("jobs_run").Snapshot().Mean()
	if !running {
		d += s.cfg.Metrics.Histogram("jobs_queue_wait").Snapshot().Mean()
	}
	return clampRetryAfter(d)
}

// Submit admits a job: validates the request, charges the tenant's
// quota, persists it queued, and hands it to the worker pool. The
// returned Job is a snapshot.
func (s *Supervisor) Submit(req Request) (Job, error) {
	req.normalize()
	if err := req.validate(); err != nil {
		return Job{}, err
	}
	c, dc, err := req.charges()
	if err != nil {
		return Job{}, err
	}
	now := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return Job{}, ErrDraining
	}
	live := 0
	for _, j := range s.jobs {
		if !j.State.Terminal() {
			live++
		}
	}
	if live >= s.cfg.QueueDepth {
		s.cfg.Metrics.Counter("jobs_rejected").Add(1)
		return Job{}, &AdmissionError{
			Reason:     fmt.Sprintf("queue full (%d live jobs)", live),
			RetryAfter: s.retryAfterSlotLocked(),
		}
	}
	if err := s.tenant(req.Tenant).Grab(c); err != nil {
		s.cfg.Metrics.Counter("jobs_rejected").Add(1)
		return Job{}, &AdmissionError{
			Reason:     fmt.Sprintf("tenant %q quota exhausted: %v", req.Tenant, err),
			RetryAfter: s.retryAfterTenantLocked(req.Tenant),
		}
	}
	if err := s.tenantDisk(req.Tenant).Grab(dc); err != nil {
		s.tenant(req.Tenant).Release(c)
		s.cfg.Metrics.Counter("jobs_rejected").Add(1)
		return Job{}, &AdmissionError{
			Reason:     fmt.Sprintf("tenant %q disk quota exhausted: %v", req.Tenant, err),
			RetryAfter: s.retryAfterTenantLocked(req.Tenant),
		}
	}
	s.nextID++
	id := fmt.Sprintf("j%d", s.nextID)
	j := &Job{
		ID:              id,
		Request:         req,
		State:           StateQueued,
		StateDir:        filepath.Join("jobs", id),
		SubmittedUnixMS: now.UnixMilli(),
	}
	if req.DeadlineMS > 0 {
		j.DeadlineUnixMS = now.Add(time.Duration(req.DeadlineMS) * time.Millisecond).UnixMilli()
	}
	if err := os.MkdirAll(filepath.Join(s.cfg.Root, j.StateDir), 0o777); err != nil {
		s.tenant(req.Tenant).Release(c)
		s.tenantDisk(req.Tenant).Release(dc)
		return Job{}, err
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.charged[id] = c
	s.chargedDisk[id] = dc
	if err := s.persistLocked(); err != nil {
		// The job never becomes visible if its admission cannot be
		// made durable.
		delete(s.jobs, id)
		delete(s.charged, id)
		delete(s.chargedDisk, id)
		s.order = s.order[:len(s.order)-1]
		s.tenant(req.Tenant).Release(c)
		s.tenantDisk(req.Tenant).Release(dc)
		return Job{}, err
	}
	s.cfg.Metrics.Counter("jobs_submitted").Add(1)
	s.queue = append(s.queue, id)
	s.gaugesLocked()
	s.wake()
	return *j, nil
}

// Get returns a snapshot of the job.
func (s *Supervisor) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return Job{}, false
	}
	return *j, true
}

// List returns snapshots of all jobs in submission order.
func (s *Supervisor) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.jobs[id])
	}
	return out
}

// Cancel stops a job: a queued job is cancelled in place, a running or
// backing-off one is cancelled at its next superstep barrier. Returns
// ErrFinished if it already reached a terminal state.
func (s *Supervisor) Cancel(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return Job{}, ErrNotFound
	}
	if j.State.Terminal() {
		return *j, ErrFinished
	}
	if cancel := s.cancels[id]; cancel != nil {
		cancel(errCancelCause)
		return *j, nil
	}
	s.finishLocked(j, StateCancelled, "cancelled before start")
	return *j, nil
}

// Drain stops the supervisor gracefully: no new submissions, running
// jobs cancelled at their next journal commit and marked interrupted,
// manifest persisted. It returns once the workers have exited or ctx
// expires.
func (s *Supervisor) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.baseStop(errDrainCause)
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain: %w", ctx.Err())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistLocked()
}

// wake nudges one idle worker; a pending nudge is enough, since a
// woken worker drains the queue before sleeping again.
func (s *Supervisor) wake() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// worker pops runnable job IDs until the supervisor stops, sleeping
// only when the queue is empty.
func (s *Supervisor) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var id string
		if len(s.queue) > 0 {
			id = s.queue[0]
			s.queue = s.queue[1:]
		}
		rest := len(s.queue)
		s.mu.Unlock()
		if id != "" {
			if rest > 0 {
				// A single nudge can cover several submissions; pass it
				// on so another idle worker picks up the remainder.
				s.wake()
			}
			s.runJob(id)
			continue
		}
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.kick:
		}
	}
}

// runJob drives one job through admission to the global budget, its
// attempts, backoff, and its terminal (or interrupted) state.
func (s *Supervisor) runJob(id string) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil || j.State != StateQueued {
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	defer cancel(nil)
	if j.DeadlineUnixMS > 0 {
		dctx, dcancel := context.WithDeadline(ctx, time.UnixMilli(j.DeadlineUnixMS))
		defer dcancel()
		ctx = dctx
	}
	s.cancels[id] = cancel
	charge := s.charged[id]
	submitted := time.UnixMilli(j.SubmittedUnixMS)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.cancels, id)
		s.mu.Unlock()
	}()

	// Admission to the daemon-wide budget: wait for running jobs to
	// release capacity, but never past cancellation or the deadline.
	if err := s.global.ReserveCtx(ctx, charge); err != nil {
		s.settleInterruption(j, ctx)
		return
	}
	defer s.global.Release(charge)
	s.cfg.Metrics.Histogram("jobs_queue_wait").Observe(time.Since(submitted).Nanoseconds())

	for {
		s.mu.Lock()
		j.State = StateRunning
		j.Attempts++
		j.StartedUnixMS = time.Now().UnixMilli()
		s.persistLocked() //nolint:errcheck // transition is safe to redo after a crash
		s.gaugesLocked()
		s.mu.Unlock()

		start := time.Now()
		err := s.attempt(ctx, j)
		s.cfg.Metrics.Histogram("jobs_run").Observe(time.Since(start).Nanoseconds())
		if err == nil {
			s.mu.Lock()
			s.finishLocked(j, StateDone, "")
			s.mu.Unlock()
			return
		}
		if ctx.Err() != nil {
			s.settleInterruption(j, ctx)
			return
		}
		if embsp.Retriable(err) && j.Attempts < j.Request.MaxAttempts {
			s.cfg.Metrics.Counter("jobs_retried").Add(1)
			d := prng.BackoffDelay(j.Request.Workload.Seed, j.Attempts)
			s.mu.Lock()
			j.State = StateBackoff
			j.Error = fmt.Sprintf("attempt %d: %v (retrying in %v)", j.Attempts, err, d)
			s.persistLocked() //nolint:errcheck
			s.gaugesLocked()
			s.mu.Unlock()
			if s.cfg.Sleep(ctx, d) != nil {
				s.settleInterruption(j, ctx)
				return
			}
			continue
		}
		s.mu.Lock()
		s.finishLocked(j, StateFailed, fmt.Sprintf("attempt %d: %v", j.Attempts, err))
		s.mu.Unlock()
		return
	}
}

// buildWorkload builds the program an attempt runs. Tests substitute
// programs no Spec names (one whose Load over-reads, say).
var buildWorkload = workload.Spec.Build

// attempt executes one run of the job, resuming from the journal when
// a previous attempt committed at least one barrier.
func (s *Supervisor) attempt(ctx context.Context, j *Job) error {
	inst, err := buildWorkload(j.Request.Workload)
	if err != nil {
		return err
	}
	cfg := j.Request.machineFor(inst.Program)
	dir := filepath.Join(s.cfg.Root, j.StateDir)
	committed, err := journal.Committed(dir)
	if err != nil {
		return err
	}
	opts, err := j.Request.options(dir, committed > 0)
	if err != nil {
		return err
	}
	if opts.Resume {
		s.cfg.Metrics.Counter("jobs_resumed").Add(1)
		s.mu.Lock()
		j.Resumed = true
		s.mu.Unlock()
	}
	res, err := embsp.RunContext(ctx, inst.Program, cfg, opts)
	if err != nil {
		return err
	}
	s.mu.Lock()
	j.Result = summarize(inst, res)
	s.mu.Unlock()
	return nil
}

// settleInterruption records why a job's context ended: a drain leaves
// it interrupted (resumable), a cancel makes it cancelled, a missed
// deadline makes it failed.
func (s *Supervisor) settleInterruption(j *Job, ctx context.Context) {
	cause := context.Cause(ctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case errors.Is(cause, errDrainCause):
		j.State = StateInterrupted
		s.cfg.Metrics.Counter("jobs_interrupted").Add(1)
		s.persistLocked() //nolint:errcheck // drain persists again after the pool exits
		s.gaugesLocked()
	case errors.Is(cause, context.DeadlineExceeded):
		s.finishLocked(j, StateFailed, "deadline exceeded")
	default:
		s.finishLocked(j, StateCancelled, "cancelled")
	}
}

// finishLocked moves a job to a terminal state, releases its quota
// charge, and persists the manifest. Callers hold s.mu.
func (s *Supervisor) finishLocked(j *Job, state State, msg string) {
	j.State = state
	j.Error = msg
	j.FinishedUnixMS = time.Now().UnixMilli()
	if c, ok := s.charged[j.ID]; ok {
		delete(s.charged, j.ID)
		s.tenant(j.Request.Tenant).Release(c)
	}
	if dc, ok := s.chargedDisk[j.ID]; ok {
		delete(s.chargedDisk, j.ID)
		s.tenantDisk(j.Request.Tenant).Release(dc)
	}
	switch state {
	case StateDone:
		s.cfg.Metrics.Counter("jobs_done").Add(1)
	case StateFailed:
		s.cfg.Metrics.Counter("jobs_failed").Add(1)
	case StateCancelled:
		s.cfg.Metrics.Counter("jobs_cancelled").Add(1)
	}
	s.persistLocked() //nolint:errcheck // state is re-derivable; the run itself is journaled
	s.gaugesLocked()
}

// gaugesLocked refreshes the queue-depth and running gauges.
func (s *Supervisor) gaugesLocked() {
	var queued, running int64
	for _, j := range s.jobs {
		switch j.State {
		case StateQueued, StateBackoff:
			queued++
		case StateRunning:
			running++
		}
	}
	s.cfg.Metrics.Counter("jobs_queue_depth").Set(queued)
	s.cfg.Metrics.Counter("jobs_running").Set(running)
}
