package cluster_test

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"embsp/internal/bsp"
	"embsp/internal/cluster"
	"embsp/internal/core"
	"embsp/internal/fault"
	"embsp/internal/obs"
	"embsp/internal/prng"
	"embsp/internal/workload"
)

func clusterMachine(p int) core.MachineConfig {
	return core.MachineConfig{
		P: p, M: 256, D: 2, B: 8, G: 10,
		Cost: bsp.CostParams{GUnit: 1, GPkt: 2, Pkt: 16, L: 5},
	}
}

// battery is the Table 1 subset the cluster determinism battery runs;
// sizes are small so the full matrix stays fast.
var battery = []workload.Spec{
	{Alg: "sort", N: 96, V: 8, Seed: 41},
	{Alg: "listrank", N: 64, V: 8, Seed: 42},
	{Alg: "cc", N: 40, V: 8, Seed: 43},
}

// oracleFingerprint runs the in-process engine — the p-node reference
// oracle — over the same configuration and digests its Result.
func oracleFingerprint(t *testing.T, prog bsp.Program, cfg core.MachineConfig, seed uint64) uint64 {
	t.Helper()
	res, err := core.Run(prog, cfg, core.Options{Seed: seed, StateDir: t.TempDir()})
	if err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	return workload.Fingerprint(res)
}

// killed is the panic sentinel the crash probes throw: the goroutine
// "process" around the worker or coordinator unwinds without any
// protocol farewell, like a SIGKILL would end a real process, leaving
// only the journals behind.
type killed struct{ who string }

// harness runs a coordinator plus P worker goroutines over real TCP
// loopback connections. Worker goroutines redial forever until the
// harness is marked done, so killed workers respawn and a killed
// coordinator's workers outlive it into the restarted run.
type harness struct {
	t    *testing.T
	prog bsp.Program
	cfg  core.MachineConfig
	opts core.Options
	root string
	addr string
	ln   net.Listener // the first coordinator incarnation's, bound from the start
	plan fault.NetPlan

	// PR 8 robustness knobs.
	replicate     bool            // coordinator keeps a replica store
	secret        string          // coordinator's join-auth secret
	workerSecrets map[int]string  // per-worker secret override (default: secret)
	badSeed       map[int]uint64  // per-worker wrong run seed (fingerprint divergence)
	heartbeat     time.Duration   // keep-alive interval, both sides
	wipeKill      bool            // a killed worker's state dir is wiped too
	permaKill     bool            // a killed worker never respawns
	spares        int             // extra spare workers dialing in
	spareDelay    time.Duration   // coordinator's spare-adoption delay
	workerMetrics []*obs.Registry // per worker id: transport counters on its side (nil: none)

	done atomic.Bool
	wg   sync.WaitGroup

	mu     sync.Mutex
	kills  map[string]bool // "node/phase/step" -> already fired
	dead   map[int]bool    // workers gone for good (permaKill)
	funnel func(id int, phase string, step int)
}

func newHarness(t *testing.T, prog bsp.Program, cfg core.MachineConfig, seed uint64) *harness {
	t.Helper()
	h := &harness{
		t: t, prog: prog, cfg: cfg,
		opts:  core.Options{Seed: seed},
		root:  t.TempDir(),
		kills: make(map[string]bool),
		dead:  make(map[int]bool),
	}
	// Bind a free port for the first coordinator and keep it, so no other
	// run can take it; a restarted coordinator listens on the same address,
	// where the workers keep dialing.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h.addr, h.ln = ln.Addr().String(), ln
	t.Cleanup(func() {
		h.stop()
		if h.ln != nil {
			h.ln.Close()
		}
	})
	return h
}

// killAt schedules one simulated SIGKILL: the first time the given
// probe fires on the given side, its process dies.
func (h *harness) killAt(who string, step int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.kills[fmt.Sprintf("%s/%d", who, step)] = false
}

func (h *harness) maybeKill(who string, step int) {
	h.mu.Lock()
	key := fmt.Sprintf("%s/%d", who, step)
	fired, scheduled := h.kills[key]
	if scheduled && !fired {
		h.kills[key] = true
		h.mu.Unlock()
		panic(killed{who: key})
	}
	h.mu.Unlock()
}

func (h *harness) startWorkers() {
	for i := 0; i < h.cfg.P; i++ {
		h.wg.Add(1)
		go h.workerLoop(i)
	}
	for i := 0; i < h.spares; i++ {
		h.wg.Add(1)
		go h.spareLoop(i)
	}
}

func (h *harness) workerSecret(id int) string {
	if s, ok := h.workerSecrets[id]; ok {
		return s
	}
	return h.secret
}

func (h *harness) stop() {
	h.done.Store(true)
	h.wg.Wait()
}

// workerLoop is one worker "process" incarnation after another: dial,
// serve until shutdown, death, or connection loss, repeat. Each
// incarnation opens the engine fresh from the node's state directory,
// exactly like a respawned process would.
func (h *harness) workerLoop(id int) {
	defer h.wg.Done()
	dir := filepath.Join(h.root, fmt.Sprintf("node-%d", id))
	for epoch := 0; !h.done.Load(); epoch++ {
		h.mu.Lock()
		gone := h.dead[id]
		h.mu.Unlock()
		if gone {
			return // machine permanently lost; no respawn
		}
		conn, err := net.Dial("tcp", h.addr)
		if err != nil {
			epoch--
			time.Sleep(20 * time.Millisecond)
			continue
		}
		h.serveOnce(id, dir, conn, epoch)
		time.Sleep(5 * time.Millisecond)
	}
}

// spareLoop is one spare worker "process": it parks at the coordinator
// with no node, and — unlike workerLoop's process-per-incarnation — the
// Worker persists across redials, because once adopted it IS some node
// and must rejoin as such (exactly how cmd/embsp-cluster behaves).
func (h *harness) spareLoop(i int) {
	defer h.wg.Done()
	w := &cluster.Worker{
		Prog: h.prog, Cfg: h.cfg, Opts: h.opts, NodeID: -1,
		Dir:    filepath.Join(h.root, fmt.Sprintf("spare-%d", i)),
		Spare:  true,
		Secret: h.secret,
	}
	defer w.Close()
	for epoch := 0; !h.done.Load(); epoch++ {
		conn, err := net.Dial("tcp", h.addr)
		if err != nil {
			epoch--
			time.Sleep(20 * time.Millisecond)
			continue
		}
		link := cluster.NewLink(conn, h.linkConfig(h.cfg.P+1+i, epoch, nil))
		err = w.Serve(link)
		link.Close()
		if err == nil {
			return // orderly SHUTDOWN
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (h *harness) linkConfig(self, epoch int, metrics *obs.Registry) cluster.LinkConfig {
	return cluster.LinkConfig{
		Self: self, Peer: h.cfg.P, Plan: h.plan,
		Epoch:     epoch,
		Heartbeat: h.heartbeat,
		Metrics:   metrics,
	}
}

func (h *harness) serveOnce(id int, dir string, conn net.Conn, epoch int) {
	var metrics *obs.Registry
	if id < len(h.workerMetrics) {
		metrics = h.workerMetrics[id]
	}
	link := cluster.NewLink(conn, h.linkConfig(id, epoch, metrics))
	defer link.Close()
	opts := h.opts
	if s, ok := h.badSeed[id]; ok {
		opts.Seed = s
	}
	w := &cluster.Worker{
		Prog: h.prog, Cfg: h.cfg, Opts: opts, NodeID: id, Dir: dir,
		Secret: h.workerSecret(id),
		Probe: func(phase string, step int) {
			h.maybeKill(fmt.Sprintf("worker%d/%s", id, phase), step)
		},
	}
	defer w.Close()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				panic(r)
			}
			// The "machine" died. Optionally its disks die with it —
			// the permanent-loss scenario replication exists for.
			if h.wipeKill {
				os.RemoveAll(dir) //nolint:errcheck
			}
			if h.permaKill {
				h.mu.Lock()
				h.dead[id] = true
				h.mu.Unlock()
			}
		}
	}()
	w.Serve(link) //nolint:errcheck // lost links redial; errors are the loop's signal
}

// runCoord runs one coordinator incarnation. A probe-scheduled kill
// surfaces as (nil, killed-error); the caller restarts by calling
// runCoord again — resuming from the decision journal on disk.
func (h *harness) runCoord(metrics *obs.Registry) (res *core.Result, err error) {
	ln := h.ln
	h.ln = nil // the coordinator closes it
	if ln == nil {
		var lerr error
		if ln, lerr = net.Listen("tcp", h.addr); lerr != nil {
			return nil, lerr
		}
	}
	defer func() {
		if r := recover(); r != nil {
			k, ok := r.(killed)
			if !ok {
				panic(r)
			}
			res, err = nil, fmt.Errorf("coordinator killed at %s", k.who)
		}
	}()
	return cluster.Run(cluster.Config{
		Prog: h.prog, Cfg: h.cfg, Opts: h.opts,
		Dir:      filepath.Join(h.root, "coord"),
		Listener: ln,
		Net:      h.plan,
		Probe: func(phase string, step int) {
			h.maybeKill("coord/"+phase, step)
		},
		RecvTimeout: 30 * time.Second,
		JoinTimeout: 20 * time.Second,
		Replicate:   h.replicate,
		Secret:      h.secret,
		Heartbeat:   h.heartbeat,
		SpareDelay:  h.spareDelay,
		Metrics:     metrics,
	})
}

// run starts the workers, drives coordinator incarnations until one
// completes (restarting through scheduled coordinator kills), and
// returns the Result.
func (h *harness) run(metrics *obs.Registry) (*core.Result, error) {
	h.startWorkers()
	for attempt := 0; ; attempt++ {
		res, err := h.runCoord(metrics)
		if err != nil && attempt < 4 {
			h.t.Logf("coordinator attempt %d: %v (restarting)", attempt, err)
			continue
		}
		return res, err
	}
}

func buildSpec(t *testing.T, spec workload.Spec) bsp.Program {
	t.Helper()
	inst, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return inst.Program
}

// cleanFrames runs prog once on a clean cluster, keep-alives off, and
// counts the DATA frames on worker 1's link in each direction: up, worker
// 1 to the coordinator, and down. It returns the run's fingerprint too.
func cleanFrames(t *testing.T, prog bsp.Program, cfg core.MachineConfig, seed uint64) (up, down int64, fpr uint64) {
	t.Helper()
	h := newHarness(t, prog, cfg, seed)
	h.workerMetrics = []*obs.Registry{1: obs.NewRegistry()}
	res, err := h.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	h.stop()
	m := h.workerMetrics[1]
	return m.Counter("cluster_tx_frames").Value(), m.Counter("cluster_rx_frames").Value(), workload.Fingerprint(res)
}

// linkDeath kills worker 1's link to the coordinator: dir "up" silences
// worker 1's writes, "down" the coordinator's to it, from data frame
// seq on, in connection epoch epoch.
func linkDeath(p int, dir string, epoch int, seq uint64) fault.LinkDeath {
	if dir == "up" {
		return fault.LinkDeath{From: 1, To: p, Epoch: epoch, AfterSeq: seq}
	}
	return fault.LinkDeath{From: p, To: 1, Epoch: epoch, AfterSeq: seq}
}

// linkDeathHeartbeat is the keep-alive interval of the runs whose links
// die: a silenced direction is noticed after four of them.
const linkDeathHeartbeat = 20 * time.Millisecond

// TestClusterBattery is the determinism battery: three Table 1
// workloads at p in {2, 4} real worker processes, clean and with worker
// 1's link killed in each direction, all bitwise identical to the
// in-process engine's Result. The linkdeath leg silences the
// coordinator's writes to worker 1 in their first connection and worker
// 1's writes in their second, each from a data frame drawn from the
// case's seed; the keep-alives notice, and the worker redials and
// rejoins. (The coordinator numbers a worker's connections by the HELLOs
// it receives, so the death that may swallow a HELLO comes last.)
func TestClusterBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster battery is slow")
	}
	for _, spec := range battery {
		for _, p := range []int{2, 4} {
			for _, leg := range []string{"clean", "linkdeath"} {
				spec, p, leg := spec, p, leg
				t.Run(fmt.Sprintf("%s/p%d/%s", spec.Alg, p, leg), func(t *testing.T) {
					t.Parallel()
					prog := buildSpec(t, spec)
					cfg := clusterMachine(p)
					want := oracleFingerprint(t, prog, cfg, spec.Seed)
					if leg == "linkdeath" {
						r := prng.New(prng.Derive(spec.Seed, uint64(p)))
						deaths := []fault.LinkDeath{
							linkDeath(p, "down", 0, uint64(1+r.Intn(16))),
							linkDeath(p, "up", 1, uint64(1+r.Intn(16))),
						}
						runLinkDeath(t, prog, cfg, spec.Seed, deaths, want)
						return
					}
					metrics := obs.NewRegistry()
					res, err := newHarness(t, prog, cfg, spec.Seed).run(metrics)
					if err != nil {
						t.Fatal(err)
					}
					if got := workload.Fingerprint(res); got != want {
						t.Fatalf("cluster fingerprint %x, oracle %x", got, want)
					}
					if metrics.Counter("cluster_tx_frames").Value() == 0 {
						t.Fatal("no frames counted; comm metrics are dead")
					}
				})
			}
		}
	}
}

// TestClusterLinkDeathEveryFrame kills worker 1's link at every data
// frame it carries in a clean run, in each direction, one death a run:
// every request and every reply of the handshake, the superstep body,
// PREPARE, COMMIT, FINAL and SHUTDOWN is, in some run, the first frame
// that never arrives. The keep-alives notice, the worker redials, and
// the rejoin handshake recovers — presumed abort before the decision,
// the commit finished after it. Every run must match the oracle.
func TestClusterLinkDeathEveryFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster link-death matrix is slow")
	}
	spec := workload.Spec{Alg: "sort", N: 32, V: 4, Seed: 44}
	prog := buildSpec(t, spec)
	cfg := clusterMachine(2)
	want := oracleFingerprint(t, prog, cfg, spec.Seed)
	up, down, got := cleanFrames(t, prog, cfg, spec.Seed)
	if got != want {
		t.Fatalf("clean cluster fingerprint %x, oracle %x", got, want)
	}
	t.Logf("worker 1's link carries %d data frames up and %d down", up, down)
	for _, dir := range []struct {
		name   string
		frames int64
	}{{"up", up}, {"down", down}} {
		dir := dir
		t.Run(dir.name, func(t *testing.T) {
			t.Parallel()
			// The runs spend most of their time waiting out a heartbeat
			// timeout, so several go at once: more than -parallel would
			// allow, hence subtests run from goroutines of this test.
			sem := make(chan struct{}, 4)
			var wg sync.WaitGroup
			for seq := uint64(1); seq <= uint64(dir.frames); seq++ {
				seq := seq
				sem <- struct{}{}
				wg.Add(1)
				go func() {
					defer func() { <-sem; wg.Done() }()
					t.Run(fmt.Sprintf("frame%02d", seq), func(t *testing.T) {
						d := []fault.LinkDeath{linkDeath(cfg.P, dir.name, 0, seq)}
						runLinkDeath(t, prog, cfg, spec.Seed, d, want)
					})
				}()
			}
			wg.Wait()
		})
	}
}

// runLinkDeath runs prog on a cluster whose links die as deaths says,
// keep-alives on, and checks the run against the oracle's fingerprint
// want and that every death fired. A host that stalls past the
// heartbeat timeout ends a link on its own, and the redial moves the
// connection epochs past a death's; such a run still has to match the
// oracle, and is repeated, up to three times, until its deaths fire.
func runLinkDeath(t *testing.T, prog bsp.Program, cfg core.MachineConfig, seed uint64, deaths []fault.LinkDeath, want uint64) {
	t.Helper()
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		h := newHarness(t, prog, cfg, seed)
		h.plan.Deaths = deaths
		h.heartbeat = linkDeathHeartbeat
		coord, worker := obs.NewRegistry(), obs.NewRegistry()
		h.workerMetrics = []*obs.Registry{1: worker}
		res, rerr := h.run(coord)
		h.stop()
		if rerr != nil {
			t.Fatal(rerr)
		}
		if got := workload.Fingerprint(res); got != want {
			t.Fatalf("cluster fingerprint %x, oracle %x", got, want)
		}
		err = nil
		for _, d := range deaths {
			dropper := coord
			if d.From == 1 {
				dropper = worker
			}
			if dropper.Counter("cluster_faults_injected").Value() == 0 {
				err = fmt.Errorf("the death %+v never fired in %d runs", d, attempt+1)
			}
		}
		if err == nil {
			return
		}
	}
	t.Fatal(err)
}

// TestClusterWorkerKill SIGKILLs (simulated) worker 1 once at every
// worker-side barrier phase — mid-compute, after PREPARE is fsynced,
// and after its local COMMIT but before the coordinator hears of it —
// at both an early and a later superstep. The respawned worker
// reconciles from its journal and the Result stays bitwise identical.
func TestClusterWorkerKill(t *testing.T) {
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
				h.killAt(fmt.Sprintf("worker1/%s", phase), step)
				res, err := h.run(nil)
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
					t.Fatalf("cluster fingerprint %x after worker kill, oracle %x", got, want)
				}
			})
		}
	}
}

// TestClusterCoordKill SIGKILLs (simulated) the coordinator once at
// each of its decision phases — before the PREPARE barrier and right
// after the decision record lands but before any worker hears COMMIT
// — and restarts it over the same journal. Workers reconcile through
// the rejoin handshake (commit-on-reconcile for the decided window,
// presumed abort otherwise) and the Result stays bitwise identical.
func TestClusterCoordKill(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster kill matrix is slow")
	}
	spec := battery[0] // sort
	for _, phase := range []string{"prepare", "decided"} {
		for _, step := range []int{0, 2} {
			phase, step := phase, step
			t.Run(fmt.Sprintf("%s/step%d", phase, step), func(t *testing.T) {
				t.Parallel()
				prog := buildSpec(t, spec)
				cfg := clusterMachine(2)
				want := oracleFingerprint(t, prog, cfg, spec.Seed)

				h := newHarness(t, prog, cfg, spec.Seed)
				h.killAt("coord/"+phase, step)
				res, err := h.run(nil)
				if err != nil {
					t.Fatal(err)
				}
				h.mu.Lock()
				fired := h.kills[fmt.Sprintf("coord/%s/%d", phase, step)]
				h.mu.Unlock()
				if !fired {
					t.Fatalf("kill at %s/step %d never fired; the run had no such window", phase, step)
				}
				if got := workload.Fingerprint(res); got != want {
					t.Fatalf("cluster fingerprint %x after coordinator kill, oracle %x", got, want)
				}
			})
		}
	}
}

// TestClusterSetupKill covers decision record 0: the coordinator dies
// after committing the setup barrier; the restart resumes past setup.
func TestClusterSetupKill(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster kill matrix is slow")
	}
	spec := battery[1] // listrank
	prog := buildSpec(t, spec)
	cfg := clusterMachine(2)
	want := oracleFingerprint(t, prog, cfg, spec.Seed)

	h := newHarness(t, prog, cfg, spec.Seed)
	h.killAt("coord/decided", -1)
	res, err := h.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := workload.Fingerprint(res); got != want {
		t.Fatalf("cluster fingerprint %x after setup-kill, oracle %x", got, want)
	}
}

// TestClusterRejectsBadOptions pins ClusterCheck's gate at the Run API.
func TestClusterRejectsBadOptions(t *testing.T) {
	spec := battery[0]
	prog := buildSpec(t, spec)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, err = cluster.Run(cluster.Config{
		Prog: prog, Cfg: clusterMachine(1), Opts: core.Options{},
		Dir: t.TempDir(), Listener: ln,
		JoinTimeout: time.Second,
	})
	if err == nil {
		t.Fatal("P=1 cluster accepted; ClusterCheck not wired into Run")
	}
}
