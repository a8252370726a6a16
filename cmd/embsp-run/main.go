// Command embsp-run executes one Table 1 workload on a configurable
// simulated EM machine and prints the model costs — a quick way to
// explore how an algorithm's I/O responds to p, D, B, M and v without
// writing code.
//
// Usage examples:
//
//	embsp-run -alg sort -n 1048576 -p 1 -d 4 -b 1024
//	embsp-run -alg cc -n 65536 -p 4 -d 8 -v 128
//	embsp-run -alg lca -n 32768 -deterministic
//	embsp-run -alg sort -n 65536 -faults 0.01
//	embsp-run -alg permute -p 4 -faults read=0.02,corrupt=0.01,faildrive=2@100 -redundancy mirror -fault-seed 7
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"embsp"
	"embsp/internal/obs"
	"embsp/internal/workload"
)

// killProgram wraps a Program so that VP v/2 hard-kills the process
// with SIGKILL — no deferred cleanup, exactly like a power loss — when
// it starts computing superstep killStep. Every VP is wrapped and the
// victim is found by Env.ID: an engine steps VP v/2 in whichever object
// its slot holds. In a superstep VP v/2 began asleep (it voted halt and
// may get no message: the sort's phase 1, in which only VP 0 works), VP
// 0 is a victim too, and whichever of the two is stepped first kills.
// It exists for the crash-recovery end-to-end test; the resumed
// invocation must not pass -kill-step again.
type killProgram struct {
	embsp.Program
	killStep int
	asleep   bool // VP v/2 voted halt in superstep voted
	voted    int
}

func (p *killProgram) NewVP(id int) embsp.VP {
	return &killVP{VP: p.Program.NewVP(id), p: p}
}

type killVP struct {
	embsp.VP
	p *killProgram
}

func (k *killVP) Step(env *embsp.Env, in []embsp.Message) (bool, error) {
	half, id, step := k.p.NumVPs()/2, env.ID(), env.Superstep()
	victim := id == half || id == 0 && k.p.asleep && k.p.voted < step
	if victim && step == k.p.killStep {
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
	halt, err := k.VP.Step(env, in)
	if id == half {
		k.p.asleep, k.p.voted = halt, step
	}
	return halt, err
}

// parseFaultPlan turns the -faults flag value into a fault plan. A
// plain float r is shorthand for read=r,write=r,corrupt=r; the long
// form is a comma-separated list of key=value fields:
//
//	read=R write=R corrupt=R   per-block fault probabilities in [0,1)
//	firstop=N                  first operation index eligible for faults
//	faildrive=D@OP             drive D dies permanently at operation OP
//	failproc=P                 processor hit by the drive death (P>1 runs)
//
// What survives a drive death is -redundancy mirror or parity; the fault
// plan only injects.
func parseFaultPlan(spec string, seed uint64) (*embsp.FaultPlan, error) {
	plan := &embsp.FaultPlan{Seed: seed}
	if r, err := strconv.ParseFloat(spec, 64); err == nil {
		plan.ReadErrorRate, plan.WriteErrorRate, plan.CorruptRate = r, r, r
		return plan, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		if field == "mirror" {
			return nil, fmt.Errorf("bad -faults field %q: a fault plan only injects faults; mirror the drives with -redundancy mirror", field)
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("bad -faults field %q: want key=value", field)
		}
		switch key {
		case "read", "write", "corrupt":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -faults rate %q: %v", field, err)
			}
			switch key {
			case "read":
				plan.ReadErrorRate = r
			case "write":
				plan.WriteErrorRate = r
			case "corrupt":
				plan.CorruptRate = r
			}
		case "firstop":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -faults field %q: %v", field, err)
			}
			plan.FirstOp = n
		case "faildrive":
			ds, ops, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("bad -faults field %q: want faildrive=D@OP", field)
			}
			d, err := strconv.Atoi(ds)
			if err != nil {
				return nil, fmt.Errorf("bad -faults drive %q: %v", field, err)
			}
			op, err := strconv.ParseInt(ops, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -faults operation %q: %v", field, err)
			}
			plan.FailDrive, plan.FailDriveOp = d, op
		case "failproc":
			p, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("bad -faults field %q: %v", field, err)
			}
			plan.FailProc = p
		default:
			return nil, fmt.Errorf("unknown -faults key %q", key)
		}
	}
	return plan, nil
}

// parseTiers turns the -tiers flag value into a tier chain spec. Each
// comma-separated field is words[:latency] — a tier cache capacity in
// words (0 selects the engine default) with an optional emulated
// per-track access latency — listed outermost first, matching
// Options.Tiers.
func parseTiers(spec string) ([]embsp.TierSpec, error) {
	var tiers []embsp.TierSpec
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		ws, ls, hasLat := strings.Cut(field, ":")
		w, err := strconv.ParseInt(ws, 10, 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad -tiers field %q: want words[:latency] with words >= 0", field)
		}
		ts := embsp.TierSpec{Words: w}
		if hasLat {
			d, err := time.ParseDuration(ls)
			if err != nil {
				return nil, fmt.Errorf("bad -tiers latency in %q: %v", field, err)
			}
			if d < 0 {
				return nil, fmt.Errorf("bad -tiers latency in %q: want >= 0", field)
			}
			ts.Latency = d
		}
		tiers = append(tiers, ts)
	}
	if len(tiers) == 0 {
		return nil, fmt.Errorf("empty -tiers spec")
	}
	return tiers, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, parameterized over its argument list and
// output streams so the CLI tests can drive it in-process. Model
// results go to stdout (kept byte-for-byte diffable between runs);
// everything wall-clock — the overlap line, the phase report, the
// metrics banner — goes to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("embsp-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	alg := fs.String("alg", "sort", "workload: "+strings.Join(workload.Names(), " "))
	n := fs.Int("n", 1<<16, "problem size")
	v := fs.Int("v", 32, "virtual processors")
	procs := fs.Int("p", 1, "real processors")
	d := fs.Int("d", 4, "disks per processor")
	b := fs.Int("b", 512, "block size in words")
	mFactor := fs.Int("mfactor", 6, "memory = mfactor × µ (per processor)")
	g := fs.Float64("g", 1000, "I/O cost G per parallel operation")
	seed := fs.Uint64("seed", 1, "random seed")
	det := fs.Bool("deterministic", false, "deterministic (CGM) block placement")
	faults := fs.String("faults", "", "fault plan: a rate (e.g. 0.01) or read=R,write=R,corrupt=R,firstop=N,faildrive=D@OP,failproc=P (a drive death needs -redundancy)")
	faultSeed := fs.Uint64("fault-seed", 1, "seed for the fault schedule")
	maxRetries := fs.Int("max-retries", 0, "transient-fault retry budget per op (0 = default, -1 disables retries)")
	stateDir := fs.String("state-dir", "", "directory for durable on-disk state and the superstep journal")
	resume := fs.Bool("resume", false, "resume an interrupted run from the journal in -state-dir")
	killStep := fs.Int("kill-step", -1, "crash-test hook: SIGKILL the process mid-computation of this superstep")
	storeKind := fs.String("store", "file", "durable store backend for -state-dir runs: file (pread/pwrite) or mapped (mmap, zero-copy; falls back to file where unsupported)")
	tiersFlag := fs.String("tiers", "", "stack intermediate store tiers over the backend: comma-separated words[:latency] per tier, outermost first (e.g. 65536:50us; 0 words = engine default capacity; requires -state-dir)")
	driveLatency := fs.Duration("drive-latency", 0, "emulated per-track access latency of the file-backed drives (e.g. 1ms; 0 = none); it also picks the physical schedule: one I/O worker per drive and the group pipeline under latency, synchronous at zero")
	redundancyFlag := fs.String("redundancy", "", "drive redundancy: none, mirror or parity")
	scrub := fs.Bool("scrub", false, "background scrub between supersteps (requires -redundancy mirror or parity)")
	soak := fs.Bool("soak", false, "chaos-soak mode: randomized fault/kill/resume schedules over the Table 1 workloads, checked bitwise against the reference")
	soakDuration := fs.Duration("duration", 30*time.Second, "how long to keep soaking (-soak)")
	soakAlgs := fs.String("soak-algs", "", "comma-separated workload filter for -soak (default: all 13)")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON timeline of the run to this file (chrome://tracing, Perfetto); with -resume the file is appended to")
	report := fs.Bool("report", false, "print a per-phase wall-clock breakdown of the run to stderr")
	metricsAddr := fs.String("metrics-addr", "", "serve the run's metrics (Prometheus text at /metrics, JSON at /metrics.json) plus pprof and expvar on this address while the run executes")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *soak {
		return runSoak(*soakDuration, *soakAlgs, *seed)
	}

	inst, err := workload.Spec{Alg: *alg, N: *n, V: *v, Seed: *seed}.Build()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	prog, describe := inst.Program, inst.Describe
	cfg := workload.Machine(prog, *procs, *d, *b, *mFactor, *g)
	opts := embsp.Options{
		Seed: *seed, Deterministic: *det, MaxRetries: *maxRetries,
		StateDir: *stateDir, Resume: *resume, Scrub: *scrub,
		DriveLatency: *driveLatency,
	}
	switch *storeKind {
	case "file":
	case "mapped":
		if *stateDir == "" {
			fmt.Fprintln(stderr, "-store mapped requires -state-dir (the mapped store maps durable drive files)")
			return 2
		}
		opts.MappedStore = true
		if !embsp.MmapSupported() {
			fmt.Fprintln(stderr, "note: mmap is unsupported on this platform; falling back to the file store (results are identical)")
		}
	default:
		fmt.Fprintf(stderr, "bad -store %q: want file or mapped\n", *storeKind)
		return 2
	}
	if *tiersFlag != "" {
		if *stateDir == "" {
			fmt.Fprintln(stderr, "-tiers requires -state-dir (tiers stack over the durable store)")
			return 2
		}
		ts, err := parseTiers(*tiersFlag)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		opts.Tiers = ts
	}
	if *redundancyFlag != "" {
		mode, err := embsp.ParseRedundancy(*redundancyFlag)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		opts.Redundancy = mode
	}
	if *faults != "" {
		plan, err := parseFaultPlan(*faults, *faultSeed)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		opts.FaultPlan = plan
	}
	if *killStep >= 0 {
		prog = &killProgram{Program: prog, killStep: *killStep}
	}

	// Observability: a file-backed tracer for -trace, a memory-only one
	// when -report wants the phase totals or -metrics-addr wants live
	// phase histograms mid-run. Neither enters the config fingerprint,
	// so traced and untraced runs resume each other.
	var tr *embsp.Tracer
	if *tracePath != "" {
		tr, err = embsp.OpenTrace(*tracePath, *resume)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else if *report || *metricsAddr != "" {
		tr = embsp.NewTracer()
	}
	defer tr.Close() //nolint:errcheck // write errors surface below
	var reg *embsp.MetricsRegistry
	if *metricsAddr != "" {
		reg = embsp.NewMetricsRegistry()
		actual, err := embsp.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "metrics: serving Prometheus text, pprof and expvar on http://%s\n", actual)
	}
	tr.AttachRegistry(reg)
	opts.Trace, opts.Metrics = tr, reg

	// SIGINT/SIGTERM stop the run at the next superstep barrier; with a
	// -state-dir the journal is left at the last committed superstep. A
	// second signal while the graceful stop is still draining — e.g. a
	// barrier wedged behind slow physical I/O, where ctrl-C would
	// otherwise appear ignored — forces an immediate hard exit with the
	// conventional 128+signal status.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sigc)
		close(sigc)
	}()
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(stderr, "embsp-run: %v: stopping at the next superstep barrier (signal again to force exit)\n", sig)
		cancel()
		if sig, ok = <-sigc; ok {
			fmt.Fprintf(stderr, "embsp-run: %v again: forcing immediate exit\n", sig)
			code := 130
			if s, isSys := sig.(syscall.Signal); isSys {
				code = 128 + int(s)
			}
			os.Exit(code)
		}
	}()

	start := time.Now()
	res, err := embsp.RunContext(ctx, prog, cfg, opts)
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintln(stderr, err)
		if errors.Is(err, context.Canceled) && *stateDir != "" {
			fmt.Fprintf(stderr, "state saved; continue with: embsp-run -state-dir %s -resume (plus the original flags)\n", *stateDir)
		}
		return 1
	}
	fmt.Fprintf(stdout, "%s: %s\n", *alg, describe(res))
	fmt.Fprintf(stdout, "machine: p=%d D=%d B=%d M=%d words (k=%d VPs/group, %d groups)\n",
		cfg.P, cfg.D, cfg.B, cfg.M, res.EM.K, res.EM.Groups)
	fmt.Fprintf(stdout, "supersteps λ=%d\n", res.Costs.Supersteps)
	fmt.Fprintf(stdout, "I/O: %d parallel ops, %d blocks, utilization %.2f, T_IO=%.4g\n",
		res.EM.Run.Ops, res.EM.Run.Blocks(), res.EM.Run.Utilization(), res.EM.IOTime)
	if cfg.P > 1 {
		fmt.Fprintf(stdout, "communication: %d packets (%d words), T_comm=%.4g\n",
			res.EM.CommPkts, res.EM.CommWords, res.EM.CommTime)
	}
	// The contexts are charged for the blocks they fill; the bound beside
	// the mark is what k contexts of µ words would fill.
	fmt.Fprintf(stdout, "memory high-water: %d words (context bound k·⌈(µ+1)/B⌉·B = %d words)\n",
		res.EM.MemHigh, res.EM.K*res.EM.CtxBlocksPerVP*cfg.B)
	// What a run holds on disk at once is a count of allocated tracks, and
	// a run that can roll back (a StateDir or a fault plan) holds the
	// context generation it would roll back to beside the one it writes: the
	// figure follows the store options, so like the store lines below it
	// goes to stderr and stdout stays diffable across them.
	fmt.Fprintf(stderr, "disk: peak %d blocks/drive\n", res.EM.LiveBlocksPerDrive)
	// The overlap counters are wall-clock observability, not model
	// output: they go to stderr so two runs of the same workload stay
	// diffable on stdout (the crash-recovery CI check relies on this).
	// Only file-backed runs have a physical pipeline, so the line is
	// suppressed entirely for in-memory runs instead of printing
	// all-zero noise.
	if ov := res.EM.Overlap; *stateDir != "" && (ov.PrefetchIssued > 0 || ov.AsyncWrites > 0) {
		fmt.Fprintf(stderr, "pipeline: %d blocks prefetched (%d cache hits, %d misses), %d async writes, %.1fms stalled, peak %d transfers in flight\n",
			ov.PrefetchIssued, ov.PrefetchHits, ov.PrefetchMisses,
			ov.AsyncWrites, float64(ov.StallNanos)/1e6, ov.ConcurrentPeak)
	}
	// The opened backend and the tier cache counters are configuration
	// and wall-clock observability, outside the identity contract: like
	// the overlap line they go to stderr so tiered and flat runs of the
	// same workload stay byte-diffable on stdout.
	if res.EM.StoreBackend != "" {
		fmt.Fprintf(stderr, "store: backend %s\n", res.EM.StoreBackend)
	}
	for _, ts := range res.EM.Tiers {
		fmt.Fprintf(stderr, "store tier %d: cap %d words, %d hits, %d misses, %d fills, %d drains, high-water %d words\n",
			ts.Level, ts.CapWords, ts.Hits, ts.Misses, ts.Fills, ts.Drains, ts.HighWords)
	}
	if opts.FaultPlan != nil {
		em := res.EM
		fmt.Fprintf(stdout, "faults: %d injected (%d checksum failures, %d drive losses)\n",
			em.FaultsInjected, em.ChecksumFailures, em.DriveFailures)
		fmt.Fprintf(stdout, "recovery: %d retries (%d blocks), %d superstep replays, %d extra ops\n",
			em.Retries, em.RetriedBlocks, em.Replays, em.RecoveryOps)
	}
	if opts.Redundancy != embsp.RedundancyNone {
		em := res.EM
		fmt.Fprintf(stdout, "redundancy: %v, %d ops, %d parity blocks over %d striped, %d degraded ops, %d reconstructed\n",
			opts.Redundancy, em.ParityOps, em.ParityBlocks, em.StripedBlocks, em.DegradedOps, em.ReconstructedBlocks)
		if opts.Scrub {
			fmt.Fprintf(stdout, "scrub: %d blocks verified, %d repaired\n", em.ScrubbedBlocks, em.ScrubRepairs)
		}
	}
	if *report {
		obs.WriteReport(stderr, tr.Phases(), wall)
	}
	if tr != nil {
		if err := tr.Close(); err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 1
		}
	}
	return 0
}
