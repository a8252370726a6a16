// Command embsp-cluster runs one Table 1 workload across p real
// worker processes: each worker simulates its own node's share of the
// EM-BSP* machine over a private state directory, the coordinator
// relays size-b packet exchange and drives every compound-superstep
// barrier through a two-phase commit over the per-node journals. The
// Result is bitwise identical to the in-process engine (-check proves
// it), and SIGKILLing any worker — or the coordinator itself — leaves
// journals from which the run continues exactly.
//
// Spawn mode (one command, local processes):
//
//	embsp-cluster -spawn -alg sort -n 65536 -p 4 -state-dir /tmp/c
//
// Join mode (processes started by hand or by an init system):
//
//	embsp-cluster -listen :7000 -alg sort -n 65536 -p 2 -state-dir /tmp/c
//	embsp-cluster -join host:7000 -node 0 -alg sort -n 65536 -p 2 -state-dir /tmp/c
//	embsp-cluster -join host:7000 -node 1 -alg sort -n 65536 -p 2 -state-dir /tmp/c
//
// Every process of one run must be given the same workload and machine
// flags; a mismatch is caught at the join handshake by the config
// fingerprint. A killed coordinator is restarted with the same command
// line (the decision journal in -state-dir resumes it); a killed
// worker likewise, or automatically in spawn mode.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"embsp/internal/bsp"
	"embsp/internal/cluster"
	"embsp/internal/core"
	"embsp/internal/obs"
	"embsp/internal/workload"
)

// reexecEnv lets the test binary masquerade as embsp-cluster for the
// processes spawn mode launches; the real binary ignores it.
const reexecEnv = "EMBSP_CLUSTER_REEXEC"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// killSpec is the parsed -kill-at flag: SIGKILL this process the
// first time the named probe phase fires at the given superstep.
type killSpec struct {
	phase string
	step  int
}

func parseKillAt(spec string) (killSpec, error) {
	phase, stepStr, ok := strings.Cut(spec, "@")
	if !ok {
		return killSpec{}, fmt.Errorf("bad -kill-at %q: want phase@step", spec)
	}
	step, err := strconv.Atoi(stepStr)
	if err != nil {
		return killSpec{}, fmt.Errorf("bad -kill-at step %q: %v", stepStr, err)
	}
	return killSpec{phase: phase, step: step}, nil
}

// probe returns a probe hook that SIGKILLs the process — no deferred
// cleanup, exactly like a power loss — when the spec matches. A
// non-empty wipeDir is removed first: the machine does not just die,
// its disks are gone too (the permanent-loss scenario).
func (k killSpec) probe(wipeDir string) func(phase string, step int) {
	if k.phase == "" {
		return nil
	}
	return func(phase string, step int) {
		if phase == k.phase && step == k.step {
			if wipeDir != "" {
				os.RemoveAll(wipeDir) //nolint:errcheck
			}
			syscall.Kill(os.Getpid(), syscall.SIGKILL) //nolint:errcheck
		}
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("embsp-cluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	alg := fs.String("alg", "sort", "workload: "+strings.Join(workload.Names(), " "))
	n := fs.Int("n", 1<<16, "problem size")
	v := fs.Int("v", 32, "virtual processors")
	procs := fs.Int("p", 2, "real processors (cluster nodes)")
	d := fs.Int("d", 4, "disks per processor")
	b := fs.Int("b", 512, "block size in words")
	mFactor := fs.Int("mfactor", 6, "memory = mfactor × µ (per processor)")
	g := fs.Float64("g", 1000, "I/O cost G per parallel operation")
	seed := fs.Uint64("seed", 1, "random seed")
	stateDir := fs.String("state-dir", "", "root state directory: coordinator journal in coord/, node i in node-<i>/ (required)")
	spawn := fs.Bool("spawn", false, "spawn the p workers as local child processes (and respawn dead ones)")
	listen := fs.String("listen", "127.0.0.1:0", "coordinator listen address")
	join := fs.String("join", "", "worker mode: coordinator address to join")
	node := fs.Int("node", -1, "worker mode: this worker's node id")
	check := fs.Bool("check", false, "after the run, replay in-process and verify bitwise identity")
	killAt := fs.String("kill-at", "", "crash hook phase@step: SIGKILL this process at that probe (worker phases: computed, prepared, committed; coordinator: prepare, decided); resumed invocations must not pass it again")
	killWorker := fs.Int("kill-worker", -1, "spawn mode: pass -kill-at to this worker instead of applying it here")
	recvTimeout := fs.Duration("recv-timeout", 0, "coordinator per-phase response deadline (0 = default)")
	joinTimeout := fs.Duration("join-timeout", 0, "how long the coordinator waits for a worker to (re)join (0 = default)")
	replicate := fs.Bool("replicate", true, "replicate worker state to the coordinator at each commit; off, permanent worker loss fails the run")
	spare := fs.Bool("spare", false, "worker mode: join as a spare owning no node, adopted via replica restore when a worker is permanently lost")
	secret := fs.String("secret", "", "shared join-authentication secret; empty disables the HMAC challenge")
	wipe := fs.Bool("wipe", false, "with -kill-at: also wipe this worker's state directory before dying (permanent machine loss)")
	heartbeat := fs.Duration("heartbeat", 0, "link keep-alive interval; an idle peer is declared lost after -heartbeat-timeout (0 disables)")
	hbTimeout := fs.Duration("heartbeat-timeout", 0, "silence span that declares a peer lost (default 4x -heartbeat)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *stateDir == "" {
		fmt.Fprintln(stderr, "embsp-cluster: -state-dir is required (the journals live there)")
		return 2
	}

	inst, err := workload.Spec{Alg: *alg, N: *n, V: *v, Seed: *seed}.Build()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	prog := inst.Program
	cfg := workload.Machine(prog, *procs, *d, *b, *mFactor, *g)
	opts := core.Options{Seed: *seed}
	if err := core.ClusterCheck(cfg, opts); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var kill killSpec
	if *killAt != "" {
		if kill, err = parseKillAt(*killAt); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	if *spare && *join == "" {
		fmt.Fprintln(stderr, "embsp-cluster: -spare needs -join (a spare dials the coordinator)")
		return 2
	}
	if *join != "" {
		return runWorker(workerParams{
			addr: *join, node: *node, root: *stateDir,
			prog: prog, cfg: cfg, opts: opts,
			heartbeat: *heartbeat, hbTimeout: *hbTimeout,
			spare: *spare, secret: *secret, wipe: *wipe, kill: kill,
		}, stderr)
	}
	return runCoordinator(coordParams{
		inst: inst, prog: prog, cfg: cfg, opts: opts,
		root: *stateDir, listen: *listen, spawn: *spawn,
		check: *check, kill: kill, killWorker: *killWorker,
		recvTimeout: *recvTimeout, joinTimeout: *joinTimeout,
		replicate: *replicate, secret: *secret,
		heartbeat: *heartbeat, hbTimeout: *hbTimeout, wipe: *wipe,
		args: args,
	}, stdout, stderr)
}

type workerParams struct {
	addr string
	node int
	root string
	prog bsp.Program
	cfg  core.MachineConfig
	opts core.Options

	heartbeat, hbTimeout time.Duration

	spare  bool
	secret string
	wipe   bool
	kill   killSpec
}

// runWorker is a worker process's whole life: open the node engine
// over its state directory (resuming from the journal when one is
// there), dial the coordinator, serve until SHUTDOWN — redialing
// through coordinator restarts. A spare opens nothing: it parks at the
// coordinator until a RESTORE makes it some lost worker's replacement.
func runWorker(p workerParams, stderr io.Writer) int {
	self := p.node
	var dir string
	if p.spare {
		// A spare is a different machine: its directory is its own, not
		// any node's slot, and stays its own after adoption.
		self = p.cfg.P + 1
		dir = filepath.Join(p.root, fmt.Sprintf("spare-%d", os.Getpid()))
	} else {
		if p.node < 0 || p.node >= p.cfg.P {
			fmt.Fprintf(stderr, "embsp-cluster: -join needs -node in [0, %d)\n", p.cfg.P)
			return 2
		}
		dir = nodeDir(p.root, p.node)
	}
	wipeDir := ""
	if p.wipe {
		wipeDir = dir
	}
	w := &cluster.Worker{
		Prog: p.prog, Cfg: p.cfg, Opts: p.opts, NodeID: p.node,
		Dir:    dir,
		Spare:  p.spare,
		Secret: p.secret,
		Probe:  p.kill.probe(wipeDir),
	}
	defer w.Close()
	err := w.Run(p.addr, true, cluster.LinkConfig{
		Self: self, Peer: p.cfg.P,
		Heartbeat:        p.heartbeat,
		HeartbeatTimeout: p.hbTimeout,
	})
	if err != nil {
		fmt.Fprintf(stderr, "embsp-cluster: worker %d: %v\n", w.NodeID, err)
		return 1
	}
	return 0
}

func nodeDir(root string, id int) string {
	return filepath.Join(root, fmt.Sprintf("node-%d", id))
}

type coordParams struct {
	inst *workload.Instance
	prog bsp.Program
	cfg  core.MachineConfig
	opts core.Options

	root   string
	listen string
	spawn  bool
	check  bool

	kill       killSpec
	killWorker int
	wipe       bool

	replicate bool
	secret    string

	recvTimeout, joinTimeout, heartbeat, hbTimeout time.Duration

	args []string // original command line, reused to spawn workers
}

func runCoordinator(p coordParams, stdout, stderr io.Writer) int {
	ln, err := net.Listen("tcp", p.listen)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	addr := ln.Addr().String()
	fmt.Fprintf(stderr, "embsp-cluster: coordinating %d workers on %s\n", p.cfg.P, addr)

	var respawn func(id int) error
	if p.spawn {
		launch := func(id int, withKill bool) error {
			args := []string{"-join", addr, "-node", strconv.Itoa(id)}
			args = append(args, workerArgs(p.args)...)
			if withKill && p.killWorker == id && p.kill.phase != "" {
				args = append(args, "-kill-at", p.kill.phase+"@"+strconv.Itoa(p.kill.step))
				if p.wipe {
					args = append(args, "-wipe")
				}
			}
			cmd := exec.Command(os.Args[0], args...)
			cmd.Stdout = os.Stderr
			cmd.Stderr = os.Stderr
			cmd.Env = append(os.Environ(), reexecEnv+"=1")
			if err := cmd.Start(); err != nil {
				return err
			}
			go cmd.Wait() //nolint:errcheck // children are monitored via the protocol
			return nil
		}
		for i := 0; i < p.cfg.P; i++ {
			if err := launch(i, true); err != nil {
				fmt.Fprintf(stderr, "embsp-cluster: spawn worker %d: %v\n", i, err)
				return 1
			}
		}
		respawn = func(id int) error { return launch(id, false) }
	}

	metrics := obs.NewRegistry()
	var coordKill func(string, int)
	if p.killWorker < 0 {
		coordKill = p.kill.probe("")
	}
	start := time.Now()
	res, err := cluster.Run(cluster.Config{
		Prog: p.prog, Cfg: p.cfg, Opts: p.opts,
		Dir:              filepath.Join(p.root, "coord"),
		Listener:         ln,
		RecvTimeout:      p.recvTimeout,
		JoinTimeout:      p.joinTimeout,
		Replicate:        p.replicate,
		Secret:           p.secret,
		Heartbeat:        p.heartbeat,
		HeartbeatTimeout: p.hbTimeout,
		Respawn:          respawn,
		Probe:            coordKill,
		Metrics:          metrics,
	})
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintln(stderr, err)
		fmt.Fprintf(stderr, "state saved; continue with the same command line (journals in %s)\n", p.root)
		return 1
	}

	fmt.Fprintf(stdout, "%s: %s\n", flagAlg(p.args), p.inst.Describe(res))
	fmt.Fprintf(stdout, "cluster: p=%d workers, D=%d B=%d M=%d words (k=%d VPs/group, %d groups)\n",
		p.cfg.P, p.cfg.D, p.cfg.B, p.cfg.M, res.EM.K, res.EM.Groups)
	fmt.Fprintf(stdout, "supersteps λ=%d\n", res.Costs.Supersteps)
	fmt.Fprintf(stdout, "I/O: %d parallel ops, utilization %.2f, T_IO=%.4g\n",
		res.EM.Run.Ops, res.EM.Run.Utilization(), res.EM.IOTime)
	fmt.Fprintf(stdout, "communication: %d packets (%d words), T_comm=%.4g\n",
		res.EM.CommPkts, res.EM.CommWords, res.EM.CommTime)
	fmt.Fprintf(stdout, "fingerprint: %016x\n", workload.Fingerprint(res))
	// Wire-level counters are wall-clock observability (like Overlap):
	// stderr, so stdout stays diffable across faulted and clean runs.
	meanBarrier := metrics.Histogram("cluster_barrier_wait_nanos").Snapshot().Mean()
	fmt.Fprintf(stderr, "wire: %d frames out (%d bytes), %d in (%d bytes), %d checksum rejects; mean barrier wait %v; wall %v\n",
		metrics.Counter("cluster_tx_frames").Value(), metrics.Counter("cluster_tx_bytes").Value(),
		metrics.Counter("cluster_rx_frames").Value(), metrics.Counter("cluster_rx_bytes").Value(),
		metrics.Counter("cluster_checksum_rejects").Value(), meanBarrier, wall.Round(time.Millisecond))
	fmt.Fprintf(stderr, "robustness: %d heartbeat misses, %d migrations, %d replica bytes shipped, %d auth rejects\n",
		metrics.Counter("cluster_heartbeat_misses").Value(), metrics.Counter("cluster_migrations").Value(),
		metrics.Counter("cluster_replica_bytes").Value(), metrics.Counter("cluster_auth_rejects").Value())

	if p.check {
		tmp, err := os.MkdirTemp("", "embsp-cluster-check-*")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer os.RemoveAll(tmp)
		oracle, err := core.Run(p.prog, p.cfg, core.Options{Seed: p.opts.Seed, StateDir: tmp})
		if err != nil {
			fmt.Fprintf(stderr, "check: in-process oracle failed: %v\n", err)
			return 1
		}
		want, got := workload.Fingerprint(oracle), workload.Fingerprint(res)
		if want != got {
			fmt.Fprintf(stderr, "check: FAILED: cluster fingerprint %016x, in-process %016x; first difference (in-process vs cluster): %s\n",
				got, want, core.Diff(oracle, res))
			return 1
		}
		fmt.Fprintf(stdout, "check: ok (bitwise identical to the in-process engine)\n")
	}
	return 0
}

// workerArgs filters the coordinator's command line down to the flags
// a worker shares: workload, machine, state and transport — dropping
// coordinator-only flags and any crash hook.
func workerArgs(args []string) []string {
	keep := map[string]bool{
		"-alg": true, "-n": true, "-v": true, "-p": true, "-d": true, "-b": true,
		"-mfactor": true, "-g": true, "-seed": true, "-state-dir": true,
		"-secret": true, "-heartbeat": true, "-heartbeat-timeout": true,
	}
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		name, inline, hasInline := strings.Cut(a, "=")
		if keep[name] {
			if hasInline {
				out = append(out, name+"="+inline)
			} else if i+1 < len(args) {
				out = append(out, a, args[i+1])
				i++
			}
		}
	}
	return out
}

// flagAlg digs the workload name back out of the argument list for
// the summary line (default "sort").
func flagAlg(args []string) string {
	for i := 0; i < len(args); i++ {
		if args[i] == "-alg" && i+1 < len(args) {
			return args[i+1]
		}
		if v, ok := strings.CutPrefix(args[i], "-alg="); ok {
			return v
		}
	}
	return "sort"
}
