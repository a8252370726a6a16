package cluster_test

// PR 8 robustness battery: permanent worker loss. Where cluster_test.go
// kills processes and lets their journals bring them back, these tests
// destroy the state itself — wiped directories, machines that never
// return, links that die without a FIN — and check that commit-time
// replication, heartbeat detection, and migration (onto respawns and
// spares) still produce the oracle's exact Result.

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"embsp/internal/cluster"
	"embsp/internal/core"
	"embsp/internal/fault"
	"embsp/internal/obs"
	"embsp/internal/workload"
)

// TestClusterWipeKill is the kill-and-wipe matrix: worker 1 dies at
// every 2PC phase boundary — mid-compute, after PREPARE, after its
// local COMMIT — and its state directory dies with it. The respawned
// (empty) worker cannot reconcile by journal, so the coordinator must
// migrate it from the replica store; the Result stays bitwise
// identical to the oracle.
func TestClusterWipeKill(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster kill matrix is slow")
	}
	spec := battery[0] // sort
	for _, phase := range []string{"computed", "prepared", "committed"} {
		for _, step := range []int{0, 2} {
			phase, step := phase, step
			t.Run(fmt.Sprintf("%s/step%d", phase, step), func(t *testing.T) {
				t.Parallel()
				prog := buildSpec(t, spec)
				cfg := clusterMachine(2)
				want := oracleFingerprint(t, prog, cfg, spec.Seed)

				h := newHarness(t, prog, cfg, spec.Seed)
				h.replicate = true
				h.wipeKill = true
				h.killAt(fmt.Sprintf("worker1/%s", phase), step)
				metrics := obs.NewRegistry()
				res, err := h.run(metrics)
				if err != nil {
					t.Fatal(err)
				}
				h.mu.Lock()
				fired := h.kills[fmt.Sprintf("worker1/%s/%d", phase, step)]
				h.mu.Unlock()
				if !fired {
					t.Fatalf("kill at %s/step %d never fired; the run had no such window", phase, step)
				}
				if got := workload.Fingerprint(res); got != want {
					t.Fatalf("cluster fingerprint %x after wipe-kill, oracle %x", got, want)
				}
				if metrics.Counter("cluster_migrations").Value() == 0 {
					t.Fatal("wiped worker rejoined without a migration; replica restore never ran")
				}
				if metrics.Counter("cluster_replica_bytes").Value() == 0 {
					t.Fatal("replication enabled but no snapshot bytes were shipped")
				}
			})
		}
	}
}

// TestClusterWipeKillNoReplica pins the PR 7 contract: with
// replication off, losing a worker's state is unrecoverable and the
// run must say so loudly rather than produce a wrong Result.
func TestClusterWipeKillNoReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster kill matrix is slow")
	}
	spec := battery[0]
	prog := buildSpec(t, spec)
	cfg := clusterMachine(2)

	h := newHarness(t, prog, cfg, spec.Seed)
	h.replicate = false
	h.wipeKill = true
	h.killAt("worker1/computed", 1)
	_, err := h.run(nil)
	if err == nil {
		t.Fatal("run with a wiped worker and no replica succeeded; divergence went undetected")
	}
	if !strings.Contains(err.Error(), "state lost beyond 2PC recovery") {
		t.Fatalf("expected the loud divergence verdict, got: %v", err)
	}
}

// TestClusterSilentLinkDeath injects the failure no FIN announces: at
// connection epoch 0 the worker 1 → coordinator direction goes
// permanently dead mid-superstep (data frames and pongs all vanish),
// like a died NIC. The coordinator's keep-alive is what must notice —
// its Recv would otherwise block for the full RecvTimeout — and the
// worker's redial (epoch 1 is healthy) reconciles the step. The Result
// stays bitwise identical.
func TestClusterSilentLinkDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster kill matrix is slow")
	}
	spec := battery[0]
	prog := buildSpec(t, spec)
	cfg := clusterMachine(2)
	want := oracleFingerprint(t, prog, cfg, spec.Seed)

	h := newHarness(t, prog, cfg, spec.Seed)
	h.replicate = true
	h.heartbeat = 40 * time.Millisecond
	h.workerMetrics = []*obs.Registry{1: obs.NewRegistry()}
	h.plan = fault.NetPlan{Deaths: []fault.LinkDeath{
		{From: 1, To: cfg.P, Epoch: 0, AfterSeq: 6},
	}}
	metrics := obs.NewRegistry()
	res, err := h.run(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if got := workload.Fingerprint(res); got != want {
		t.Fatalf("cluster fingerprint %x after silent link death, oracle %x", got, want)
	}
	misses := metrics.Counter("cluster_heartbeat_misses").Value() +
		h.workerMetrics[1].Counter("cluster_heartbeat_misses").Value()
	if misses == 0 {
		t.Fatal("link died silently but no heartbeat timeout fired; detection is dead")
	}
}

// TestClusterSpareTakeover is the machine-replacement drill: worker 1
// dies permanently (state wiped, never respawns), and a spare worker —
// parked at the coordinator since startup with no node of its own —
// must adopt node 1 from the replica and finish the run bitwise
// identical to the oracle.
func TestClusterSpareTakeover(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster kill matrix is slow")
	}
	spec := battery[0]
	prog := buildSpec(t, spec)
	cfg := clusterMachine(2)
	want := oracleFingerprint(t, prog, cfg, spec.Seed)

	h := newHarness(t, prog, cfg, spec.Seed)
	h.replicate = true
	h.wipeKill = true
	h.permaKill = true
	h.spares = 1
	h.spareDelay = 100 * time.Millisecond
	h.killAt("worker1/computed", 1)
	metrics := obs.NewRegistry()
	res, err := h.run(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if got := workload.Fingerprint(res); got != want {
		t.Fatalf("cluster fingerprint %x after spare takeover, oracle %x", got, want)
	}
	if metrics.Counter("cluster_migrations").Value() == 0 {
		t.Fatal("run completed without worker 1, yet no migration was counted")
	}
}

// TestClusterFingerprintMismatch pins welcome's first divergence
// verdict: a worker opened with the wrong run seed derives a different
// node fingerprint, and the coordinator must refuse it outright —
// not hang, not reset it into the roster.
func TestClusterFingerprintMismatch(t *testing.T) {
	spec := battery[2] // cc, the smallest
	prog := buildSpec(t, spec)
	cfg := clusterMachine(2)

	h := newHarness(t, prog, cfg, spec.Seed)
	h.badSeed = map[int]uint64{1: spec.Seed + 1000}
	_, err := h.run(nil)
	if err == nil {
		t.Fatal("worker with a foreign fingerprint was accepted")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("expected a fingerprint divergence verdict, got: %v", err)
	}
}

// TestClusterAuth runs a full cluster with join authentication on,
// while an intruder with the wrong secret keeps knocking. The real
// workers (right secret) must complete the run bitwise identical; the
// intruder must be rejected and counted, never welcomed.
func TestClusterAuth(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster auth battery is slow")
	}
	spec := battery[1] // listrank
	prog := buildSpec(t, spec)
	cfg := clusterMachine(2)
	want := oracleFingerprint(t, prog, cfg, spec.Seed)

	h := newHarness(t, prog, cfg, spec.Seed)
	h.secret = "covenant"
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		w := &cluster.Worker{
			Prog: prog, Cfg: cfg, Opts: core.Options{Seed: spec.Seed},
			NodeID: 0, Dir: filepath.Join(h.root, "intruder"),
			Secret: "wrong-secret",
		}
		defer w.Close()
		for !h.done.Load() {
			conn, err := net.Dial("tcp", h.addr)
			if err != nil {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			link := cluster.NewLink(conn, cluster.LinkConfig{Self: 0, Peer: cfg.P})
			w.Serve(link) //nolint:errcheck // rejection is the expected outcome
			link.Close()
			return
		}
	}()
	metrics := obs.NewRegistry()
	res, err := h.run(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if got := workload.Fingerprint(res); got != want {
		t.Fatalf("cluster fingerprint %x with auth on, oracle %x", got, want)
	}
	if metrics.Counter("cluster_auth_rejects").Value() == 0 {
		t.Fatal("intruder with the wrong secret was never rejected")
	}
}

// TestClusterMalformedHello: frames too short for what the handshake
// reads — an empty frame, a bare HELLO kind, and a HELLO whose list of
// node id and record count is cut short — from peers that never
// authenticate close their own links and nothing else. Queued at the
// listener before the real workers join, they leave the run bitwise
// identical to the in-process oracle.
func TestClusterMalformedHello(t *testing.T) {
	spec := battery[2] // cc, the smallest
	prog := buildSpec(t, spec)
	cfg := clusterMachine(2)
	want := oracleFingerprint(t, prog, cfg, spec.Seed)

	h := newHarness(t, prog, cfg, spec.Seed)
	h.secret = "covenant" // the frames are decoded before the challenge
	for _, frame := range [][]uint64{{}, {cluster.MsgHello}, {cluster.MsgHello, 1, 5}} {
		conn, err := net.Dial("tcp", h.addr)
		if err != nil {
			t.Fatal(err)
		}
		link := cluster.NewLink(conn, cluster.LinkConfig{Self: 0, Peer: cfg.P})
		t.Cleanup(func() { link.Close() })
		if err := link.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	res, err := h.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := workload.Fingerprint(res); got != want {
		t.Fatalf("cluster fingerprint %x after malformed handshakes, oracle %x", got, want)
	}
}

// TestClusterShutdownClosesPendingHandshakes pins the acceptLoop leak
// fix: a connection that says HELLO never (a port scanner, a stalled
// dialer) parks a handshake goroutine in Recv; shutdown must close it
// rather than leak it and its connection past the run.
func TestClusterShutdownClosesPendingHandshakes(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster battery is slow")
	}
	spec := battery[2] // cc, the smallest
	prog := buildSpec(t, spec)
	cfg := clusterMachine(2)

	h := newHarness(t, prog, cfg, spec.Seed)
	connC := make(chan net.Conn, 1)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for !h.done.Load() {
			conn, err := net.Dial("tcp", h.addr)
			if err != nil {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			connC <- conn // hold it open, silent: no HELLO ever
			return
		}
	}()
	res, err := h.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("no result")
	}
	select {
	case conn := <-connC:
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatal("unexpected data on a silent handshake connection")
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("silent handshake connection was never closed at shutdown; acceptLoop leaked it")
		}
	default:
		t.Skip("run finished before the silent dialer connected")
	}
}
