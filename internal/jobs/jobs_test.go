package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"embsp/internal/fault"
	"embsp/internal/journal"
	"embsp/internal/obs"
	"embsp/internal/prng"
	"embsp/internal/workload"
)

func testSpec(seed uint64) workload.Spec {
	return workload.Spec{Alg: "sort", N: 48, V: 4, Seed: seed}
}

// startSupervisor builds a running supervisor over a temp root and
// tears it down with the test.
func startSupervisor(t *testing.T, cfg Config) *Supervisor {
	t.Helper()
	if cfg.Root == "" {
		cfg.Root = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s
}

func waitJob(t *testing.T, s *Supervisor, id string, pred func(Job) bool) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.Get(id)
		if ok && pred(j) {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := s.Get(id)
	t.Fatalf("job %s stuck: state=%s attempts=%d err=%q", id, j.State, j.Attempts, j.Error)
	return Job{}
}

func TestJobRunsToDone(t *testing.T) {
	s := startSupervisor(t, Config{Metrics: obs.NewRegistry()})
	req := Request{Workload: testSpec(7)}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j = waitJob(t, s, j.ID, func(j Job) bool { return j.State.Terminal() })
	if j.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", j.State, j.Error)
	}
	if j.Attempts != 1 || j.Resumed {
		t.Errorf("attempts=%d resumed=%v, want 1/false", j.Attempts, j.Resumed)
	}
	want, err := req.RunOnce(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if j.Result == nil || j.Result.Fingerprint != want.Fingerprint {
		t.Errorf("fingerprint %+v, want %q", j.Result, want.Fingerprint)
	}
	if got := s.Metrics().Counter("jobs_done").Value(); got != 1 {
		t.Errorf("jobs_done = %d, want 1", got)
	}
	if len(s.List()) != 1 {
		t.Errorf("List returned %d jobs, want 1", len(s.List()))
	}
}

// TestAdmission locks in the quota and queue-depth refusals: a tenant
// over its memory quota is refused while another tenant's identical
// job proceeds, a full queue refuses everyone, and a cancelled job
// releases its charge. No workers run, so admissions stay admitted.
func TestAdmission(t *testing.T) {
	req := Request{Workload: testSpec(1), Tenant: "a"}
	req.normalize()
	charge, err := req.charge()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Root:           t.TempDir(),
		TenantMemWords: charge, // exactly one job per tenant
		QueueDepth:     3,
		Metrics:        obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}

	j1, err := s.Submit(req)
	if err != nil {
		t.Fatalf("first job refused: %v", err)
	}
	var adm *AdmissionError
	if _, err := s.Submit(req); !errors.As(err, &adm) {
		t.Fatalf("over-quota submit returned %v, want AdmissionError", err)
	} else if adm.RetryAfter != time.Second {
		// No job has ever completed, so the hint has no history to draw
		// on and must be the documented fixed-second fallback.
		t.Errorf("no-history RetryAfter = %v, want %v", adm.RetryAfter, time.Second)
	}
	if _, err := s.Submit(Request{Workload: testSpec(1), Tenant: "b"}); err != nil {
		t.Fatalf("under-quota tenant refused: %v", err)
	}
	if _, err := s.Submit(Request{Workload: testSpec(1), Tenant: "c"}); err != nil {
		t.Fatalf("third tenant refused: %v", err)
	}
	if _, err := s.Submit(Request{Workload: testSpec(1), Tenant: "d"}); !errors.As(err, &adm) {
		t.Fatalf("submit into a full queue returned %v, want AdmissionError", err)
	} else if adm.RetryAfter != time.Second {
		t.Errorf("no-history queue-full RetryAfter = %v, want %v", adm.RetryAfter, time.Second)
	}
	if got := s.Metrics().Counter("jobs_rejected").Value(); got != 2 {
		t.Errorf("jobs_rejected = %d, want 2", got)
	}

	// Cancelling the queued job releases its quota charge.
	if j, err := s.Cancel(j1.ID); err != nil || j.State != StateCancelled {
		t.Fatalf("cancel queued job: state=%s err=%v", j.State, err)
	}
	if _, err := s.Submit(req); err != nil {
		t.Fatalf("submit after cancel refused: %v", err)
	}
}

// TestSubmitRefusesOversizedWorkload: a request above maxN or maxV is
// refused by validation, through Submit and as HTTP 400 through POST
// /jobs, before its input is drawn.
func TestSubmitRefusesOversizedWorkload(t *testing.T) {
	s := startSupervisor(t, Config{Metrics: obs.NewRegistry()})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, spec := range []workload.Spec{
		{Alg: "sort", N: 1 << 40, V: 4, Seed: 1},
		{Alg: "sort", N: 48, V: 1 << 40, Seed: 1},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := s.Submit(Request{Workload: spec})
		body, _ := json.Marshal(Request{Workload: spec})
		resp, herr := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "want <=") {
			t.Errorf("n=%d v=%d: Submit returned %v, want the size validation error", spec.N, spec.V, err)
		}
		if herr != nil {
			t.Fatal(herr)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("n=%d v=%d: POST /jobs status = %d, want 400", spec.N, spec.V, resp.StatusCode)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("n=%d v=%d: refusing the request allocated %d bytes, want < 1 MiB", spec.N, spec.V, alloc)
		}
	}
}

// TestSubmitRefusesChaos: the request has no fault-injection field, so
// a submission that asks for one is refused as HTTP 400 and admits no
// job.
func TestSubmitRefusesChaos(t *testing.T) {
	s := startSupervisor(t, Config{Metrics: obs.NewRegistry()})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := `{"workload":{"alg":"sort","n":48,"v":4,"seed":1},"chaos":{"fail_attempts":2}}`
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /jobs with a chaos field: status = %d, want 400", resp.StatusCode)
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Errorf("the refused submission admitted %d jobs, want 0", len(jobs))
	}
}

// TestSubmitRefusesWhatItsRunRefuses: a request whose run options the
// run would refuse against its machine — parity on one drive, a negative
// drive latency — is refused at admission, through Submit and as HTTP
// 400 through POST /jobs, and neither queues a job nor charges the
// tenant's quota.
func TestSubmitRefusesWhatItsRunRefuses(t *testing.T) {
	s := startSupervisor(t, Config{Metrics: obs.NewRegistry()})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	spec := workload.Spec{Alg: "sort", N: 48, V: 4, Seed: 1}
	for _, c := range []struct {
		req  Request
		want string
	}{
		{Request{Workload: spec, Disks: 1, Redundancy: "parity"}, "requires D >= 2"},
		{Request{Workload: spec, DriveLatencyUS: -5}, "want >= 0"},
	} {
		if _, err := s.Submit(c.req); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: Submit returned %v, want the run's refusal (%q)", c.req, err, c.want)
		}
		body, _ := json.Marshal(c.req)
		resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: POST /jobs status = %d, want 400", c.req, resp.StatusCode)
		}
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Errorf("the refused submissions admitted %d jobs, want 0", len(jobs))
	}
	s.mu.Lock()
	used := s.tenant("").Used() + s.tenantDisk("").Used()
	s.mu.Unlock()
	if used != 0 {
		t.Errorf("the refused submissions hold %d of the tenant's quota, want 0", used)
	}
}

// TestClampRetryAfter pins the hint's guard rails: no history falls
// back to the old fixed second, and derived values are clamped to
// [100ms, 2m] so a degenerate histogram can neither tell clients to
// hammer nor to go away for hours.
func TestClampRetryAfter(t *testing.T) {
	cases := []struct{ in, want time.Duration }{
		{0, time.Second},
		{-5 * time.Second, time.Second},
		{time.Millisecond, minRetryAfter},
		{minRetryAfter, minRetryAfter},
		{5 * time.Second, 5 * time.Second},
		{maxRetryAfter, maxRetryAfter},
		{10 * time.Minute, maxRetryAfter},
	}
	for _, c := range cases {
		if got := clampRetryAfter(c.in); got != c.want {
			t.Errorf("clampRetryAfter(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestRetryAfterDerivedFromHistory seeds the jobs_run and
// jobs_queue_wait histograms with known durations and checks that a
// refusal's Retry-After actually tracks them: a queue-full refusal
// hints one mean run time divided across the worker pool, and a
// quota refusal for a tenant with nothing running hints a queue wait
// plus a run. No workers run, so the histograms stay exactly as
// seeded and every admitted job stays queued.
func TestRetryAfterDerivedFromHistory(t *testing.T) {
	req := Request{Workload: testSpec(1), Tenant: "a"}
	req.normalize()
	charge, err := req.charge()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	// Two completed runs of 4s and 8s (mean 6s), queued for 2s each.
	reg.Histogram("jobs_run").Observe((4 * time.Second).Nanoseconds())
	reg.Histogram("jobs_run").Observe((8 * time.Second).Nanoseconds())
	reg.Histogram("jobs_queue_wait").Observe((2 * time.Second).Nanoseconds())
	s, err := New(Config{
		Root:           t.TempDir(),
		TenantMemWords: charge, // exactly one job per tenant
		QueueDepth:     2,
		Workers:        4,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Submit(req); err != nil {
		t.Fatalf("first job refused: %v", err)
	}
	// Tenant quota: nothing of tenant a's is running, so its next
	// release is a queue wait plus a run away: 2s + 6s.
	var adm *AdmissionError
	if _, err := s.Submit(req); !errors.As(err, &adm) {
		t.Fatalf("over-quota submit returned %v, want AdmissionError", err)
	} else if want := 8 * time.Second; adm.RetryAfter != want {
		t.Errorf("tenant-quota RetryAfter = %v, want mean wait + mean run = %v", adm.RetryAfter, want)
	}
	if _, err := s.Submit(Request{Workload: testSpec(1), Tenant: "b"}); err != nil {
		t.Fatalf("second tenant refused: %v", err)
	}
	// Queue slot: 4 workers retire a mean-6s job every 6s/4.
	if _, err := s.Submit(Request{Workload: testSpec(1), Tenant: "c"}); !errors.As(err, &adm) {
		t.Fatalf("submit into a full queue returned %v, want AdmissionError", err)
	} else if want := 6 * time.Second / 4; adm.RetryAfter != want {
		t.Errorf("queue-full RetryAfter = %v, want mean run / workers = %v", adm.RetryAfter, want)
	}

	// A pathological history is clamped, not forwarded: sub-millisecond
	// runs must not tell clients to hammer the endpoint.
	fast := obs.NewRegistry()
	fast.Histogram("jobs_run").Observe((100 * time.Microsecond).Nanoseconds())
	s2, err := New(Config{
		Root:       t.TempDir(),
		QueueDepth: 1,
		Workers:    4,
		Metrics:    fast,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Submit(req); err != nil {
		t.Fatalf("first job refused: %v", err)
	}
	if _, err := s2.Submit(req); !errors.As(err, &adm) {
		t.Fatalf("submit into a full queue returned %v, want AdmissionError", err)
	} else if adm.RetryAfter != minRetryAfter {
		t.Errorf("clamped RetryAfter = %v, want floor %v", adm.RetryAfter, minRetryAfter)
	}
}

// failAttempts makes the attempts of the job seeded seed fail before
// the engine starts, through the buildWorkload seam: the first n with a
// recoverable fault, or every one with an unrecoverable fault when n is
// negative. What is under test is the supervisor's bookkeeping —
// backoff, state transitions, attempt counting — not the engine.
func failAttempts(t *testing.T, seed uint64, n int32) {
	orig := buildWorkload
	t.Cleanup(func() { buildWorkload = orig }) // after the supervisor's drain
	var calls atomic.Int32
	buildWorkload = func(spec workload.Spec) (*workload.Instance, error) {
		if spec.Seed == seed {
			switch c := calls.Add(1); {
			case n < 0:
				return nil, fmt.Errorf("injected: %w", &fault.Error{Kind: fault.DriveLoss, Op: "read", Recoverable: false})
			case c <= n:
				return nil, fmt.Errorf("injected attempt %d: %w", c, &fault.Error{Kind: fault.TransientRead, Op: "read", Recoverable: true})
			}
		}
		return spec.Build()
	}
}

func TestRetriableChaosSucceedsWithinBackoffBudget(t *testing.T) {
	failAttempts(t, 3, 2)
	var mu sync.Mutex
	var sleeps []time.Duration
	s := startSupervisor(t, Config{
		Metrics: obs.NewRegistry(),
		Sleep: func(_ context.Context, d time.Duration) error {
			mu.Lock()
			sleeps = append(sleeps, d)
			mu.Unlock()
			return nil
		},
	})
	req := Request{Workload: testSpec(3), MaxAttempts: 3}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j = waitJob(t, s, j.ID, func(j Job) bool { return j.State.Terminal() })
	if j.State != StateDone || j.Attempts != 3 {
		t.Fatalf("state=%s attempts=%d (err %q), want done after 3 attempts", j.State, j.Attempts, j.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sleeps) != 2 {
		t.Fatalf("backoff slept %d times (%v), want 2", len(sleeps), sleeps)
	}
	if sleeps[1] <= sleeps[0] {
		t.Errorf("backoff not growing: %v then %v", sleeps[0], sleeps[1])
	}
	want, err := req.RunOnce(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if j.Result.Fingerprint != want.Fingerprint {
		t.Errorf("fingerprint after retries %q, want %q", j.Result.Fingerprint, want.Fingerprint)
	}
	if got := s.Metrics().Counter("jobs_retried").Value(); got != 2 {
		t.Errorf("jobs_retried = %d, want 2", got)
	}
}

func TestTerminalChaosNotRetried(t *testing.T) {
	failAttempts(t, 4, -1)
	s := startSupervisor(t, Config{Metrics: obs.NewRegistry()})
	j, err := s.Submit(Request{Workload: testSpec(4)})
	if err != nil {
		t.Fatal(err)
	}
	j = waitJob(t, s, j.ID, func(j Job) bool { return j.State.Terminal() })
	if j.State != StateFailed || j.Attempts != 1 {
		t.Fatalf("state=%s attempts=%d, want failed on the first attempt", j.State, j.Attempts)
	}
	if !strings.Contains(j.Error, "injected") {
		t.Errorf("error %q does not name the fault", j.Error)
	}
	if got := s.Metrics().Counter("jobs_retried").Value(); got != 0 {
		t.Errorf("jobs_retried = %d, want 0", got)
	}
}

// TestDeadlineFailsJob: the deadline (1 ms from submission) is shorter
// than one emulated drive access (3 ms), and the setup phase alone waits
// for at least one, so the job has missed it by its first barrier
// however few I/O operations the engine issues.
func TestDeadlineFailsJob(t *testing.T) {
	s := startSupervisor(t, Config{})
	j, err := s.Submit(Request{
		Workload:       workload.Spec{Alg: "sort", N: 96, V: 6, Seed: 5},
		DriveLatencyUS: 3000,
		DeadlineMS:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	j = waitJob(t, s, j.ID, func(j Job) bool { return j.State.Terminal() })
	if j.State != StateFailed || !strings.Contains(j.Error, "deadline") {
		t.Fatalf("state=%s err=%q, want failed with a deadline error", j.State, j.Error)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := startSupervisor(t, Config{Metrics: obs.NewRegistry()})
	j, err := s.Submit(Request{
		Workload:       workload.Spec{Alg: "sort", N: 96, V: 6, Seed: 6},
		DriveLatencyUS: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, j.ID, func(j Job) bool { return j.State == StateRunning })
	if _, err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	j = waitJob(t, s, j.ID, func(j Job) bool { return j.State.Terminal() })
	if j.State != StateCancelled {
		t.Fatalf("state = %s (err %q), want cancelled", j.State, j.Error)
	}
	if _, err := s.Cancel(j.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("second cancel returned %v, want ErrFinished", err)
	}
}

// TestDrainInterruptsAndResumes is the in-process half of the
// crash-resume story: a draining supervisor stops a running job at its
// next journal commit, and a new supervisor over the same root resumes
// it to a result bitwise identical to a clean uninterrupted run.
func TestDrainInterruptsAndResumes(t *testing.T) {
	root := t.TempDir()
	s, err := New(Config{Root: root, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	req := Request{
		Workload:       workload.Spec{Alg: "sort", N: 96, V: 6, Seed: 9},
		DriveLatencyUS: 1500,
	}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for at least one committed barrier so there is something to
	// resume from, then drain.
	stateDir := filepath.Join(root, j.StateDir)
	waitJob(t, s, j.ID, func(j Job) bool {
		n, err := journal.Committed(stateDir)
		return err == nil && n > 0 && j.State == StateRunning
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	j, _ = s.Get(j.ID)
	if j.State != StateInterrupted {
		t.Fatalf("state after drain = %s (err %q), want interrupted", j.State, j.Error)
	}
	if _, err := s.Submit(req); !errors.Is(err, ErrDraining) {
		t.Errorf("submit during drain returned %v, want ErrDraining", err)
	}

	// Second supervisor: re-adopts the interrupted job and resumes it.
	s2, err := New(Config{Root: root, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s2.Get(j.ID); got.State != StateQueued {
		t.Fatalf("adopted state = %s, want queued", got.State)
	}
	s2.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s2.Drain(ctx) //nolint:errcheck
	})
	j = waitJob(t, s2, j.ID, func(j Job) bool { return j.State.Terminal() })
	if j.State != StateDone || !j.Resumed {
		t.Fatalf("state=%s resumed=%v (err %q), want done via resume", j.State, j.Resumed, j.Error)
	}
	want, err := req.RunOnce(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if j.Result.Fingerprint != want.Fingerprint {
		t.Errorf("resumed fingerprint %q != clean run %q", j.Result.Fingerprint, want.Fingerprint)
	}
	if got := s2.Metrics().Counter("jobs_resumed").Value(); got < 1 {
		t.Errorf("jobs_resumed = %d, want >= 1", got)
	}
}

func TestManifestRoundtrip(t *testing.T) {
	root := t.TempDir()
	s, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Request{Workload: testSpec(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Request{Workload: testSpec(2), Tenant: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel("j2"); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	jobs := s2.List()
	if len(jobs) != 2 {
		t.Fatalf("reloaded %d jobs, want 2", len(jobs))
	}
	if jobs[0].State != StateQueued || jobs[1].State != StateCancelled {
		t.Errorf("reloaded states %s/%s, want queued/cancelled", jobs[0].State, jobs[1].State)
	}
	if jobs[1].Request.Tenant != "x" {
		t.Errorf("tenant %q lost in the roundtrip", jobs[1].Request.Tenant)
	}
	// The ID counter continues; a new submission never reuses an ID.
	j3, err := s2.Submit(Request{Workload: testSpec(3)})
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID != "j3" {
		t.Errorf("next ID = %s, want j3", j3.ID)
	}
}

// TestHTTPAPI exercises the front end end to end against a live
// supervisor: submit, poll, list, cancel conflicts, health, metrics,
// and the 429 + Retry-After admission path.
func TestHTTPAPI(t *testing.T) {
	// Quota sized to exactly the slow job submitted first, so a second
	// same-tenant submission is over quota while it runs.
	slow := Request{Workload: workload.Spec{Alg: "sort", N: 96, V: 6, Seed: 11}, Tenant: "a"}
	slow.normalize()
	charge, err := slow.charge()
	if err != nil {
		t.Fatal(err)
	}
	s := startSupervisor(t, Config{
		Metrics:        obs.NewRegistry(),
		TenantMemWords: charge,
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	decodeJob := func(resp *http.Response) Job {
		t.Helper()
		defer resp.Body.Close()
		var j Job
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		return j
	}

	// Submit a slow job so the quota stays held while we probe 429.
	resp := post("/jobs", `{"workload":{"alg":"sort","n":96,"v":6,"seed":11},"tenant":"a","drive_latency_us":2000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	j := decodeJob(resp)

	// Same tenant again: over quota, 429 with Retry-After.
	resp = post("/jobs", `{"workload":{"alg":"sort","n":48,"v":4,"seed":12},"tenant":"a"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without a Retry-After header")
	}
	resp.Body.Close()

	// Another tenant proceeds.
	resp = post("/jobs", `{"workload":{"alg":"sort","n":48,"v":4,"seed":13},"tenant":"b"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("under-quota status = %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()

	// Invalid bodies are 400.
	for _, bad := range []string{`{`, `{"workload":{"alg":"nosuch","n":48,"v":4}}`, `{"bogus":1}`} {
		resp = post("/jobs", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad submit %q status = %d, want 400", bad, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Poll the slow job to completion over HTTP.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/jobs/" + j.ID)
		if err != nil {
			t.Fatal(err)
		}
		j = decodeJob(resp)
		if j.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if j.State != StateDone || j.Result == nil {
		t.Fatalf("state=%s result=%v (err %q), want done", j.State, j.Result, j.Error)
	}

	// Cancelling a finished job conflicts.
	resp = post("/jobs/"+j.ID+"/cancel", "")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel done job status = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown job is 404.
	if resp, err = http.Get(srv.URL + "/jobs/nope"); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// List includes every submission.
	if resp, err = http.Get(srv.URL + "/jobs"); err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []Job `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 2 {
		t.Errorf("list has %d jobs, want 2", len(list.Jobs))
	}

	// Health and metrics ride on the same mux.
	if resp, err = http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	if resp, err = http.Get(srv.URL + "/metrics"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	for _, want := range []string{"embsp_jobs_submitted", "embsp_jobs_done", "embsp_jobs_queue_wait_seconds"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

func TestBackoffDeterministicJitter(t *testing.T) {
	for attempt := 1; attempt <= 8; attempt++ {
		a := prng.BackoffDelay(42, attempt)
		if b := prng.BackoffDelay(42, attempt); a != b {
			t.Fatalf("attempt %d: %v vs %v — jitter not deterministic", attempt, a, b)
		}
		if a < 37*time.Millisecond || a > 2500*time.Millisecond {
			t.Errorf("attempt %d delay %v outside [37ms, 2.5s]", attempt, a)
		}
	}
	if prng.BackoffDelay(1, 1) == prng.BackoffDelay(2, 1) {
		t.Error("different seeds produced identical jitter")
	}
}

// TestBackoffOverflowClamped: the exponent must be clamped before the
// shift — 50ms<<39 wraps int64, and before the clamp the wrapped value
// could slip past the cap as a bogus small positive delay. Every
// attempt count, however large, must land in the jittered [1.5s, 2.5s]
// band once the cap is reached.
func TestBackoffOverflowClamped(t *testing.T) {
	for _, tc := range []struct {
		attempt  int
		min, max time.Duration
	}{
		{1, 37 * time.Millisecond, 63 * time.Millisecond},     // 50ms ±25%
		{2, 75 * time.Millisecond, 125 * time.Millisecond},    // 100ms ±25%
		{6, 1200 * time.Millisecond, 2000 * time.Millisecond}, // 1.6s ±25%
		{7, 1500 * time.Millisecond, 2500 * time.Millisecond}, // capped
		{40, 1500 * time.Millisecond, 2500 * time.Millisecond},
		{63, 1500 * time.Millisecond, 2500 * time.Millisecond},
		{64, 1500 * time.Millisecond, 2500 * time.Millisecond},
		{1 << 20, 1500 * time.Millisecond, 2500 * time.Millisecond},
	} {
		for seed := uint64(0); seed < 16; seed++ {
			d := prng.BackoffDelay(seed, tc.attempt)
			if d < tc.min || d > tc.max {
				t.Errorf("prng.BackoffDelay(%d, %d) = %v, want within [%v, %v]",
					seed, tc.attempt, d, tc.min, tc.max)
			}
		}
	}
}

// TestDiskQuotaAdmission: jobs are charged their estimated StateDir
// footprint against the per-tenant disk budget; an exhausted budget is
// an AdmissionError (429) that clears when a charged job ends.
func TestDiskQuotaAdmission(t *testing.T) {
	req := Request{Workload: testSpec(1), Tenant: "a"}
	req.normalize()
	_, dc, err := req.charges()
	if err != nil {
		t.Fatal(err)
	}
	if dc <= 0 {
		t.Fatalf("disk charge = %d, want > 0", dc)
	}
	s, err := New(Config{
		Root:            t.TempDir(),
		TenantDiskBytes: dc, // exactly one job per tenant
		Metrics:         obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}

	j1, err := s.Submit(req)
	if err != nil {
		t.Fatalf("first job refused: %v", err)
	}
	var adm *AdmissionError
	_, err = s.Submit(req)
	if !errors.As(err, &adm) {
		t.Fatalf("over-disk-quota submit returned %v, want AdmissionError", err)
	}
	if !strings.Contains(adm.Reason, "disk quota") {
		t.Errorf("refusal reason %q does not name the disk quota", adm.Reason)
	}
	if adm.RetryAfter != time.Second {
		t.Errorf("no-history disk-quota RetryAfter = %v, want %v", adm.RetryAfter, time.Second)
	}
	if _, err := s.Submit(Request{Workload: testSpec(1), Tenant: "b"}); err != nil {
		t.Fatalf("other tenant refused: %v", err)
	}
	// Terminal jobs release their disk charge.
	if _, err := s.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(req); err != nil {
		t.Fatalf("submit after release refused: %v", err)
	}
}

// TestManifestCompaction: with Retain set, a restarted supervisor drops
// terminal jobs older than the window — manifest entry and state dir
// both — while keeping recent and non-terminal ones.
func TestManifestCompaction(t *testing.T) {
	root := t.TempDir()
	s := startSupervisor(t, Config{Root: root, Metrics: obs.NewRegistry()})
	old, err := s.Submit(Request{Workload: testSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := s.Submit(Request{Workload: testSpec(2)})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, old.ID, func(j Job) bool { return j.State == StateDone })
	waitJob(t, s, fresh.ID, func(j Job) bool { return j.State == StateDone })

	// Age the first job past the retention window.
	s.mu.Lock()
	s.jobs[old.ID].FinishedUnixMS = time.Now().Add(-48 * time.Hour).UnixMilli()
	oldDir := filepath.Join(root, s.jobs[old.ID].StateDir)
	err = s.persistLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(oldDir); err != nil {
		t.Fatalf("old job's state dir missing before compaction: %v", err)
	}

	s2, err := New(Config{Root: root, Retain: 24 * time.Hour, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(old.ID); ok {
		t.Error("job outside the retention window survived compaction")
	}
	if _, ok := s2.Get(fresh.ID); !ok {
		t.Error("job inside the retention window was compacted")
	}
	if _, err := os.Stat(oldDir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("compacted job's state dir still present: %v", err)
	}
	if got := s2.Metrics().Counter("jobs_compacted").Value(); got != 1 {
		t.Errorf("jobs_compacted = %d, want 1", got)
	}

	// The survivor list must round-trip: a third supervisor with no
	// retention sees exactly the compacted manifest.
	s3, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s3.List()); n != 1 {
		t.Errorf("after compaction: %d jobs persisted, want 1", n)
	}
}
