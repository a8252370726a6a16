package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"

	"embsp"
	"embsp/internal/cluster"
	"embsp/internal/workload"
)

// clusterRunner is sort_cluster: two cluster.Worker goroutines and the
// cluster.Run coordinator over loopback TCP with per-node journals and
// replication off (as internal/bench/cluster.go does), paired with
// embsp.Run at P=2 with a StateDir on the same machine.
type clusterRunner struct {
	c    engineCase // the in-process side; the cluster side shares spec and machine
	want uint64
}

func prepareCluster(e *env, parent int) (runner, error) {
	c := engineCase{
		spec: workload.Spec{Alg: "sort", N: e.pick(16384, 1024), V: e.pick(16, 8), Seed: e.seed},
		p:    2, d: 2, b: 256, mFactor: 8, durable: true,
	}
	want, _, err := reference(e, parent, "sort_cluster", c.spec)
	if err != nil {
		return nil, err
	}
	return &clusterRunner{c: c, want: want}, nil
}

func (r *clusterRunner) runA(e *env, parent int, o observers) (sample, error) {
	const name = "sort_cluster"
	inst, build, err := buildSpec(e, parent, name, r.c.spec)
	if err != nil {
		return sample{}, err
	}
	cfg := workload.Machine(inst.Program, r.c.p, r.c.d, r.c.b, r.c.mFactor, 1000)
	opts := embsp.Options{Seed: r.c.spec.Seed, Trace: o.tr}
	root, err := e.freshDir("cluster")
	if err != nil {
		return sample{}, err
	}
	defer os.RemoveAll(root)

	// The coordinator owns and closes the listener, so the loopback port is
	// released on every path out of cluster.Run.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return sample{}, err
	}
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	workerErrs := make([]error, cfg.P)
	for i := range workerErrs {
		w := &cluster.Worker{
			Prog: inst.Program, Cfg: cfg, Opts: opts, NodeID: i,
			Dir: filepath.Join(root, fmt.Sprintf("node-%d", i)),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerErrs[i] = w.Run(addr, false, cluster.LinkConfig{Self: i, Peer: cfg.P, BackoffSeed: uint64(i) + 1})
		}()
	}
	var res *embsp.Result
	sp := e.rec.start(parent, name+"/run")
	t, err := timedRun(func() error {
		var err error
		res, err = cluster.Run(cluster.Config{
			Prog: inst.Program, Cfg: cfg, Opts: opts,
			Dir: filepath.Join(root, "coord"), Listener: ln, Metrics: o.reg,
		})
		return err
	})
	e.rec.end(sp)
	wg.Wait()
	if !e.check(err == nil, "%s: %v (workers: %v)", name, err, workerErrs) {
		return sample{}, fmt.Errorf("%s: %w", name, err)
	}
	// The coordinator's SHUTDOWN is best-effort: it closes each link right
	// after acknowledging the worker's BYE, and a worker that sees the close
	// before the acknowledgement ends with EOF. The run's output is the
	// coordinator's result, verified below, so that is logged, not counted.
	for i, werr := range workerErrs {
		if werr != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: worker %d ended with %v after the coordinator returned its result\n", name, i, werr)
		}
	}
	s := engineSample(t, res, r.c.spec.N, cfg)
	s.build = build
	n, err := dirBytes(root)
	if err != nil {
		return sample{}, err
	}
	s.diskBytes = float64(n)
	if reg := o.reg; reg != nil {
		bw := reg.Histogram("cluster_barrier_wait_nanos").Snapshot()
		s.layer = map[string]float64{
			"cluster.tx_bytes":             float64(reg.Counter("cluster_tx_bytes").Value()),
			"cluster.rx_bytes":             float64(reg.Counter("cluster_rx_bytes").Value()),
			"cluster.tx_frames":            float64(reg.Counter("cluster_tx_frames").Value()),
			"cluster.retries":              float64(reg.Counter("cluster_retries").Value()),
			"cluster.heartbeat_misses":     float64(reg.Counter("cluster_heartbeat_misses").Value()),
			"cluster.barrier_waits":        float64(bw.Count),
			"cluster.barrier_wait_mean_ms": float64(bw.Mean().Nanoseconds()) / 1e6,
		}
	}
	sp = e.rec.start(parent, name+"/verify")
	verifyResult(e, name, inst, res, r.want)
	e.rec.end(sp)
	return s, nil
}

// runB is the in-process engine on the identical machine; beyond the
// reference digest, the two sides' fingerprints (VP images, model costs and
// EM statistics) must agree.
func (r *clusterRunner) runB(e *env, parent int, a sample) (sample, error) {
	b, err := r.c.run(e, parent, "sort_cluster/inproc", r.want, observers{})
	if err != nil {
		return sample{}, err
	}
	fa, fb := workload.Fingerprint(a.res), workload.Fingerprint(b.res)
	e.check(fa == fb, "sort_cluster: cluster fingerprint %016x, in-process %016x", fa, fb)
	return b, nil
}
