package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"embsp"
	"embsp/internal/jobs"
	"embsp/internal/prng"
	"embsp/internal/workload"
)

// serve_mix's shape: two closed-loop clients, each submitting its next job
// when the previous one is terminal, against a supervisor with two workers.
// One iteration is a round in which each client walks the mix once, on a
// fresh supervisor root, so the manifest every transition rewrites stays
// the same size in every round however long the run lasts.
const serveClients = 2

var serveAlgs = []string{"sort", "hull", "permute", "listrank"}

// serveRunner is a prepared serve_mix: each client's requests, one per
// workload of the mix, with the fingerprint every job must store.
type serveRunner struct {
	// reqs holds client c's requests at [c*mix, (c+1)*mix). The clients'
	// inputs are drawn from different seeds, so a round averages the
	// input-dependent costs (listrank's and hull's) over two instances.
	reqs []jobs.Request
	// want holds the Request.RunOnce fingerprints every job must store.
	// The durable runs that produce them are paid once, by the first
	// warm-up round, not by every repeat of the set-up.
	want    []string
	ioOps   float64 // mean parallel I/O operations per job of the mix
	ioUtil  float64 // blocks moved / (ops·D) over the mix
	memHigh float64 // mean internal-memory high-water mark of a job, words
	build   float64 // seconds to build the round's programs
}

// jobMachine mirrors jobs.Request's default machine (P=1, D=4, B=64,
// M=4µ). The harness needs it only for io_util and mem_high_words, which a
// job's Summary does not carry; expect checks the mirror's I/O operation count against
// RunOnce's, so it cannot silently drift.
func jobMachine(prog embsp.Program) embsp.MachineConfig {
	const d, b = 4, 64
	return embsp.MachineConfig{
		P: 1, M: max(4*prog.MaxContextWords(), d*b), D: d, B: b, G: 100,
		Cost: embsp.CostParams{GUnit: 1, GPkt: 64, Pkt: 64, L: 10},
	}
}

func prepareServe(e *env, parent int) (runner, error) {
	r := &serveRunner{}
	var ops, blocks int64
	// -quick keeps the two cheapest of the mix: a listrank job alone makes
	// 31 durable supersteps.
	algs := serveAlgs[:e.pick(len(serveAlgs), 2)]
	perRound := float64(serveClients * len(algs))
	for c := 0; c < serveClients; c++ {
		for _, alg := range algs {
			spec := workload.Spec{Alg: alg, N: e.pick(1024, 128), V: e.pick(8, 4), Seed: prng.Derive(e.seed, uint64(c))}
			name := "serve_mix/" + alg
			want, _, err := reference(e, parent, name, spec)
			if err != nil {
				return nil, err
			}
			// The same program through embsp.Run on the job machine:
			// checked bitwise against the reference, and the source of
			// io_util and mem_high_words.
			inst, build, err := buildSpec(e, parent, name, spec)
			if err != nil {
				return nil, err
			}
			r.build += build
			var res *embsp.Result
			_, err = e.step(parent, name+"/direct", func() error {
				var err error
				res, err = embsp.Run(inst.Program, jobMachine(inst.Program), embsp.Options{Seed: spec.Seed})
				return err
			})
			if !e.check(err == nil, "%s: direct run: %v", name, err) {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			e.step(parent, name+"/verify", func() error { //nolint:errcheck // failures are tallied by check
				verifyResult(e, name, inst, res, want)
				return nil
			})
			ops += res.EM.Run.Ops
			blocks += res.EM.Run.Blocks()
			r.memHigh += float64(res.EM.MemHigh) / perRound
			r.ioOps += float64(res.EM.Setup.Ops+res.EM.Run.Ops+res.EM.Finish.Ops) / perRound
			r.reqs = append(r.reqs, jobs.Request{Workload: spec})
		}
	}
	r.ioUtil = float64(blocks) / float64(ops*4)
	return r, nil
}

// expect runs every request of the mix once through Request.RunOnce and
// keeps the fingerprints; the mirrored job machine must have made the same
// number of I/O operations.
func (r *serveRunner) expect(e *env) error {
	var ops float64
	for _, req := range r.reqs {
		dir, err := e.freshDir("runonce")
		if err != nil {
			return err
		}
		sum, err := req.RunOnce(dir)
		os.RemoveAll(dir)
		if !e.check(err == nil, "serve_mix: RunOnce %s: %v", req.Workload.Alg, err) {
			return fmt.Errorf("serve_mix: RunOnce %s: %w", req.Workload.Alg, err)
		}
		r.want = append(r.want, sum.Fingerprint)
		ops += float64(sum.IOOps) / float64(len(r.reqs))
	}
	e.check(ops == r.ioOps, "serve_mix: RunOnce made %v I/O operations per job, the mirrored job machine %v", ops, r.ioOps)
	return nil
}

// round drives serveClients closed-loop clients through their requests, one
// job at a time; do runs one job and returns its latency.
func (r *serveRunner) round(do func(client, k int, req jobs.Request, want string) (float64, error)) (timing, []float64, error) {
	var mu sync.Mutex
	var lats []float64
	var firstErr error
	t, _ := timedRun(func() error {
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mix := len(r.reqs) / serveClients
				for k := 0; k < mix; k++ {
					i := c*mix + (c+k)%mix // the clients walk the mix out of phase
					lat, err := do(c, k, r.reqs[i], r.want[i])
					mu.Lock()
					lats = append(lats, lat)
					if err != nil && firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					if err != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		return nil
	})
	return t, lats, firstErr
}

func (r *serveRunner) sample(t timing, lats []float64, diskBytes int64, n int) sample {
	return sample{
		timing:     t,
		units:      lats,
		inputWords: float64(len(lats) * n),
		ioOps:      r.ioOps,
		ioUtil:     r.ioUtil,
		memHigh:    r.memHigh,
		diskBytes:  float64(diskBytes),
		build:      r.build,
	}
}

func (r *serveRunner) runA(e *env, parent int, o observers) (sample, error) {
	if r.want == nil {
		if err := r.expect(e); err != nil {
			return sample{}, err
		}
	}
	root, err := e.freshDir("serve")
	if err != nil {
		return sample{}, err
	}
	defer os.RemoveAll(root)
	sup, err := jobs.New(jobs.Config{Root: root, Workers: 2, QueueDepth: 64, Metrics: o.reg})
	if err != nil {
		return sample{}, err
	}
	sup.Start()
	// Drain stops the workers on every path out, a failed job included.
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		sup.Drain(ctx) //nolint:errcheck // the jobs are terminal; nothing is left to persist
	}()

	var mu sync.Mutex
	var submits []float64
	refused := 0
	sp := e.rec.start(parent, "serve_mix/round")
	t, lats, err := r.round(func(c, k int, req jobs.Request, want string) (float64, error) {
		jsp := e.rec.start(sp, fmt.Sprintf("serve_mix/job/%s", req.Workload.Alg))
		defer e.rec.end(jsp)
		t0 := time.Now()
		job, err := sup.Submit(req)
		sub := time.Since(t0).Seconds()
		if err != nil {
			mu.Lock()
			refused++
			mu.Unlock()
			e.check(false, "serve_mix: client %d job %d refused: %v", c, k, err)
			return time.Since(t0).Seconds(), err
		}
		// The supervisor has no completion channel; Get is polled, which on
		// this host adds up to one timer tick (≈2 ms) to a job's latency.
		for !job.State.Terminal() {
			time.Sleep(200 * time.Microsecond)
			job, _ = sup.Get(job.ID)
		}
		lat := time.Since(t0).Seconds()
		mu.Lock()
		submits = append(submits, sub)
		mu.Unlock()
		ok := job.State == jobs.StateDone && job.Result != nil
		if !e.check(ok, "serve_mix: job %s (%s) ended %s: %s", job.ID, req.Workload.Alg, job.State, job.Error) {
			return lat, nil
		}
		e.check(job.Result.Fingerprint == want, "serve_mix: job %s (%s) fingerprint %s, RunOnce %s", job.ID, req.Workload.Alg, job.Result.Fingerprint, want)
		e.check(!strings.Contains(job.Result.Description, "FAILED"), "serve_mix: job %s: %s", job.ID, job.Result.Description)
		return lat, nil
	})
	e.rec.end(sp)
	if err != nil {
		return sample{}, err
	}
	n, err := dirBytes(root)
	if err != nil {
		return sample{}, err
	}
	s := r.sample(t, lats, n, r.reqs[0].Workload.N)
	s.layer = map[string]float64{
		"jobs.submit_us": median(submits) * 1e6,
		"jobs.refused":   float64(refused),
	}
	if reg := o.reg; reg != nil {
		s.layer["jobs.queue_wait_mean_ms"] = float64(reg.Histogram("jobs_queue_wait").Snapshot().Mean().Nanoseconds()) / 1e6
		s.layer["jobs.run_mean_ms"] = float64(reg.Histogram("jobs_run").Snapshot().Mean().Nanoseconds()) / 1e6
		s.layer["jobs.retries"] = float64(reg.Counter("jobs_retried").Value())
		s.layer["jobs.refused"] = float64(reg.Counter("jobs_rejected").Value())
	}
	return s, nil
}

// runB pushes the same jobs through Request.RunOnce from the same two
// closed-loop clients: the engine work without the supervisor around it.
func (r *serveRunner) runB(e *env, parent int, _ sample) (sample, error) {
	sp := e.rec.start(parent, "serve_mix/runonce-round")
	defer e.rec.end(sp)
	t, lats, err := r.round(func(_, _ int, req jobs.Request, want string) (float64, error) {
		dir, err := e.freshDir("runonce")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		t0 := time.Now()
		sum, err := req.RunOnce(dir)
		lat := time.Since(t0).Seconds()
		if !e.check(err == nil, "serve_mix: RunOnce %s: %v", req.Workload.Alg, err) {
			return lat, err
		}
		e.check(sum.Fingerprint == want, "serve_mix: RunOnce %s fingerprint %s, expected %s", req.Workload.Alg, sum.Fingerprint, want)
		return lat, nil
	})
	if err != nil {
		return sample{}, err
	}
	return r.sample(t, lats, 0, r.reqs[0].Workload.N), nil
}
