package bench

import (
	"fmt"
	"io"

	"embsp/internal/alg/cgmgraph"
	"embsp/internal/bsp"
	"embsp/internal/core"
	"embsp/internal/pdm"
	"embsp/internal/prng"
	"embsp/internal/workload"
)

func init() {
	register(Experiment{
		ID:         "fig2/layout",
		Title:      "Block reorganization: standard linked → standard consecutive format",
		Reproduces: "Figure 2 and Algorithm 2 (SimulateRouting)",
		Run: func(w io.Writer, s Scale) error {
			v := pick(s, 8, 12, 16)
			per := pick(s, 2, 3, 4)
			return core.DemoRouting(w, nil, v, 4, 8, per, (v+3)/4, 0xF162)
		},
	})

	register(Experiment{
		ID:         "lemma2/balance",
		Title:      "Bucket blocks are evenly spread over the drives (whp)",
		Reproduces: "Lemma 2 / Lemma 3 (the randomized writing phase balance)",
		Run:        runLemma2,
	})

	register(Experiment{
		ID:         "lemma5/concentration",
		Title:      "Total simulation cost concentrates across independent supersteps",
		Reproduces: "Lemma 5 (independent per-superstep experiments compose)",
		Run:        runLemma5,
	})

	register(Experiment{
		ID:         "lemma10/balls",
		Title:      "Balls into bins maximum load tail",
		Reproduces: "Lemma 10 (Appendix A.1)",
		Run:        runLemma10,
	})

	register(Experiment{
		ID:         "scale/disks",
		Title:      "I/O time scales as 1/D (parallel disks fully used)",
		Reproduces: "Section 1 ('a factor of D too high') and Theorem 1's D-dependence",
		Run:        runScaleDisks,
	})

	register(Experiment{
		ID:         "scale/procs",
		Title:      "I/O time scales as 1/p (multiprocessor simulation)",
		Reproduces: "Theorem 1's p-dependence (Algorithm 3)",
		Run:        runScaleProcs,
	})

	register(Experiment{
		ID:         "scale/blocking",
		Title:      "Fully blocked simulation vs. unblocked Sibeyn–Kaufmann-style simulation",
		Reproduces: "Section 1 (blocking factor) and the Section 2.1 comparison with [26]",
		Run:        runScaleBlocking,
	})

	register(Experiment{
		ID:         "scale/slack",
		Title:      "Slackness: v ≥ k·D·log(M/B) keeps the randomized placement balanced",
		Reproduces: "Theorem 1 / Lemma 3's slackness condition on v",
		Run:        runScaleSlack,
	})

	register(Experiment{
		ID:         "scale/memory",
		Title:      "Group size k = ⌊M/µ⌋: memory sweep",
		Reproduces: "Section 4 ('take full advantage of the physical memory available')",
		Run:        runScaleMemory,
	})

	register(Experiment{
		ID:         "table1/bicc",
		Title:      "Biconnected components (Tarjan–Vishkin, composed from CC + Euler tour + subtree extremes)",
		Reproduces: "Table 1, Group C, row 'Biconnected components'",
		Run:        runBiCC,
	})

	register(Experiment{
		ID:         "table1/eardecomp",
		Title:      "Open ear decomposition (composed from CC + Euler tour + LCA + subtree minima)",
		Reproduces: "Table 1, Group C, row 'Ear and open ear decomposition'",
		Run:        runEarDecomp,
	})

	register(Experiment{
		ID:         "copt/ratio",
		Title:      "c-optimality preservation: I/O and communication vanish against computation",
		Reproduces: "Observation 2 (Section 5.4)",
		Run:        runCOpt,
	})

	register(Experiment{
		ID:         "obs1/cgm",
		Title:      "CGM h-relations and the deterministic placement variant",
		Reproduces: "Observation 1 and the Section 4 note on deterministic CGM simulation",
		Run:        runObs1,
	})
}

func runLemma2(w io.Writer, s Scale) error {
	trials := pick(s, 200, 1000, 5000)
	fmt.Fprintln(w, "Randomized writing phase: R blocks per bucket written D at a time under")
	fmt.Fprintln(w, "fresh random drive permutations; X = max per-drive share of a bucket.")
	fmt.Fprintln(w, "Lemma 2: Pr[X >= l·R/D] <= exp(-Ω(l·log l·R/D)).")
	tw := newTable(w)
	fmt.Fprintf(tw, "D\tR\ttrials\tmean l\tmax l\tP[l>=1.5]\tP[l>=2]\tP[l>=3]\n")
	r := prng.New(42)
	for _, cfg := range []struct{ d, rPerBucket int }{{2, 16}, {4, 16}, {4, 64}, {4, 256}, {8, 64}, {8, 256}} {
		d, R := cfg.d, cfg.rPerBucket
		var sum float64
		var maxL float64
		var ge15, ge2, ge3 int
		for t := 0; t < trials; t++ {
			// R·D blocks total (R per bucket), one block per bucket
			// per round, random permutation per round.
			counts := make([][]int, d) // [bucket][drive]
			for b := range counts {
				counts[b] = make([]int, d)
			}
			perm := make([]int, d)
			for round := 0; round < R; round++ {
				r.PermInto(perm)
				for b := 0; b < d; b++ {
					counts[b][perm[b]]++
				}
			}
			worst := 0
			for b := 0; b < d; b++ {
				for k := 0; k < d; k++ {
					if counts[b][k] > worst {
						worst = counts[b][k]
					}
				}
			}
			// worst vs the even share R/D: l = worst·D/R.
			lv := float64(worst) * float64(d) / float64(R)
			sum += lv
			if lv > maxL {
				maxL = lv
			}
			if lv >= 1.5 {
				ge15++
			}
			if lv >= 2 {
				ge2++
			}
			if lv >= 3 {
				ge3++
			}
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.3f\t%.2f\t%.4f\t%.4f\t%.4f\n",
			d, R, trials, sum/float64(trials), maxL,
			float64(ge15)/float64(trials), float64(ge2)/float64(trials), float64(ge3)/float64(trials))
	}
	tw.Flush()
	fmt.Fprintln(w, "Expected: mean l → 1 and the tail probabilities collapse as R/D grows.")
	return nil
}

func runLemma5(w io.Writer, s Scale) error {
	trials := pick(s, 15, 40, 80)
	// A skew-sensitive regime: few blocks per bucket per drive, so the
	// per-superstep randomized placement actually varies.
	n := pick(s, 1<<8, 1<<9, 1<<10)
	prog, err := sortProgram(n, 16, 0x1E5)
	if err != nil {
		return err
	}
	cfg := machineFor(prog, 1, 8, 32, 4)
	fmt.Fprintf(w, "The randomized writing phase re-randomizes every compound superstep; Lemma 5\n")
	fmt.Fprintf(w, "composes the per-superstep tail bounds, so the TOTAL cost concentrates even\n")
	fmt.Fprintf(w, "in the skew-prone small-R/D regime. %d runs of one sort (n=%d, D=8, B=32)\n", trials, n)
	fmt.Fprintf(w, "under different placement seeds:\n")
	var min, max, sum int64
	var skewMin, skewMax float64 = 1e9, 0
	min = 1 << 62
	for t := 0; t < trials; t++ {
		res, err := core.Run(prog, cfg, core.Options{Seed: uint64(0xBEEF + t)})
		if err != nil {
			return err
		}
		ops := res.EM.Run.Ops
		sum += ops
		if ops < min {
			min = ops
		}
		if ops > max {
			max = ops
		}
		if res.EM.MaxBucketSkew < skewMin {
			skewMin = res.EM.MaxBucketSkew
		}
		if res.EM.MaxBucketSkew > skewMax {
			skewMax = res.EM.MaxBucketSkew
		}
	}
	mean := float64(sum) / float64(trials)
	fmt.Fprintf(w, "I/O ops: min=%d  mean=%.0f  max=%d  spread=(max-min)/mean=%.3f\n",
		min, mean, max, float64(max-min)/mean)
	fmt.Fprintf(w, "per-run worst bucket skew l ranged %.2f..%.2f, yet total cost stayed tight\n", skewMin, skewMax)
	fmt.Fprintln(w, "Expected: a spread of a few percent — no heavy tail over seeds (Lemma 5).")
	fmt.Fprintln(w, "Measured since blocks are placed by the directory's counts (DESIGN.md §5): the")
	fmt.Fprintln(w, "seed only breaks ties among equally loaded drives, so the spread is an")
	fmt.Fprintln(w, "operation or two — tighter than the lemma promises, and no longer its doing.")
	fmt.Fprintln(w)
	return nil
}

func runLemma10(w io.Writer, s Scale) error {
	trials := pick(s, 200, 1000, 5000)
	fmt.Fprintln(w, "x balls into y bins; L = max load · y / x.")
	fmt.Fprintln(w, "Lemma 10: Pr[max load > l·x/y] = exp(-Ω(l·ln l·(x/y) - ln y)).")
	tw := newTable(w)
	fmt.Fprintf(tw, "x\ty\ttrials\tmean L\tmax L\tP[L>=1.5]\tP[L>=2]\n")
	r := prng.New(43)
	for _, cfg := range []struct{ x, y int }{{64, 8}, {256, 8}, {1024, 8}, {1024, 32}, {8192, 32}} {
		var sum, maxL float64
		var ge15, ge2 int
		for t := 0; t < trials; t++ {
			bins := make([]int, cfg.y)
			for i := 0; i < cfg.x; i++ {
				bins[r.Intn(cfg.y)]++
			}
			worst := 0
			for _, c := range bins {
				if c > worst {
					worst = c
				}
			}
			L := float64(worst) * float64(cfg.y) / float64(cfg.x)
			sum += L
			if L > maxL {
				maxL = L
			}
			if L >= 1.5 {
				ge15++
			}
			if L >= 2 {
				ge2++
			}
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.3f\t%.2f\t%.4f\t%.4f\n",
			cfg.x, cfg.y, trials, sum/float64(trials), maxL,
			float64(ge15)/float64(trials), float64(ge2)/float64(trials))
	}
	tw.Flush()
	fmt.Fprintln(w, "Expected: the tail collapses as x/y grows (the paper's dummy-packet padding regime).")
	return nil
}

// sortProgram builds the registry's sort of n keys drawn from seed on
// v VPs.
func sortProgram(n, v int, seed uint64) (bsp.Program, error) {
	inst, err := workload.Spec{Alg: "sort", N: n, V: v, Seed: seed}.Build()
	if err != nil {
		return nil, err
	}
	return inst.Program, nil
}

func runScaleDisks(w io.Writer, s Scale) error {
	b := bFor(s)
	prog, err := sortProgram(pick(s, 1<<12, 1<<15, 1<<18), benchVPs, 0x5CA1E)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Sort workload, p=1, D sweep (B=%d). T_IO = G·ops must scale ≈ 1/D.\n", b)
	tw := newTable(w)
	fmt.Fprintf(tw, "D\tI/O ops\tD·ops\tutil\tT_IO\n")
	var base float64
	for _, d := range []int{1, 2, 4, 8, 16} {
		cfg := machineFor(prog, 1, d, b, 8)
		res, err := core.Run(prog, cfg, core.Options{Seed: 0x5CA1E})
		if err != nil {
			return err
		}
		if d == 1 {
			base = float64(res.EM.Run.Ops)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.2f\t%.3g\n",
			d, res.EM.Run.Ops, int64(d)*res.EM.Run.Ops, res.EM.Run.Utilization(), res.EM.IOTime)
		_ = base
	}
	tw.Flush()
	fmt.Fprintln(w, "Expected: the D·ops column stays roughly constant (full parallel-disk use).")
	fmt.Fprintln(w)
	return nil
}

func runScaleProcs(w io.Writer, s Scale) error {
	b := bFor(s)
	prog, err := sortProgram(pick(s, 1<<12, 1<<15, 1<<18), benchVPs, 0x5CA1F)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Sort workload, D=4, p sweep (B=%d). Per-processor I/O must scale ≈ 1/p.\n", b)
	tw := newTable(w)
	fmt.Fprintf(tw, "p\ttotal ops\tT_IO (max/proc/step)\tp·T_IO\tcomm pkts\tT_comm\n")
	for _, p := range []int{1, 2, 4, 8} {
		cfg := machineFor(prog, p, 4, b, 8)
		res, err := core.Run(prog, cfg, core.Options{Seed: 0x5CA1F})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d\t%.3g\t%.3g\t%d\t%.3g\n",
			p, res.EM.Run.Ops, res.EM.IOTime, float64(p)*res.EM.IOTime, res.EM.CommPkts, res.EM.CommTime)
	}
	tw.Flush()
	fmt.Fprintln(w, "Expected: p·T_IO roughly constant; real communication appears only for p>1.")
	fmt.Fprintln(w)
	return nil
}

func runScaleBlocking(w io.Writer, s Scale) error {
	n := pick(s, 1<<10, 1<<12, 1<<13)
	v := 16
	prog, err := sortProgram(n, v, 0xB10C)
	if err != nil {
		return err
	}
	b := 64
	fmt.Fprintf(w, "Same sort program (n=%d, v=%d, B=%d): the paper's simulation vs. the\n", n, v, b)
	fmt.Fprintln(w, "Sibeyn–Kaufmann-style one-VP-at-a-time unblocked simulation [26], D sweep.")
	tw := newTable(w)
	fmt.Fprintf(tw, "D\tEM-CGM ops (util)\tSK ops (util)\tratio SK/EM\n")
	for _, d := range []int{1, 2, 4, 8} {
		cfg := machineFor(prog, 1, d, b, 4)
		res, err := core.Run(prog, cfg, core.Options{Seed: 0xB10C})
		if err != nil {
			return err
		}
		sk, err := pdm.SKSim(prog, d, b, pdm.SKOptions{Seed: 0xB10C})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d (%.2f)\t%d (%.2f)\t%.1f\n",
			d, res.EM.Run.Ops, res.EM.Run.Utilization(),
			sk.Disk.Ops, sk.Disk.Utilization(),
			float64(sk.Disk.Ops)/float64(res.EM.Run.Ops))
	}
	tw.Flush()
	fmt.Fprintln(w, "Expected: the SK simulation cannot exploit D (its ops stay flat), so the")
	fmt.Fprintln(w, "ratio grows ≈ linearly with D — the parallel-disk gap the paper closes.")
	fmt.Fprintln(w)

	// Block-size sweep with coarse messages (message length >> B) so
	// the ⌈len/B⌉ blocking effect dominates fixed per-message costs.
	nb := pick(s, 1<<13, 1<<15, 1<<17)
	vb := 8
	progB, err := sortProgram(nb, vb, 0xB10D)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Block-size sweep (n=%d, v=%d, D=4): I/O ops must scale ≈ 1/B.\n", nb, vb)
	tw = newTable(w)
	fmt.Fprintf(tw, "B\tI/O ops\tB·ops\tutil\n")
	for _, bb := range []int{16, 64, 256, 1024} {
		cfgB := machineFor(progB, 1, 4, bb, 4)
		resB, err := core.Run(progB, cfgB, core.Options{Seed: 0xB10D})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.2f\n", bb, resB.EM.Run.Ops, int64(bb)*resB.EM.Run.Ops, resB.EM.Run.Utilization())
	}
	tw.Flush()
	fmt.Fprintln(w, "Expected: B·ops roughly constant — the simulation adapts to the blocking factor.")
	fmt.Fprintln(w)
	return nil
}

func runScaleSlack(w io.Writer, s Scale) error {
	n := pick(s, 1<<13, 1<<15, 1<<17)
	b := bFor(s)
	const d = 4
	fmt.Fprintf(w, "Sort workload (n=%d, D=%d, B=%d), v sweep at k=⌈v/8⌉: Theorem 1 requires\n", n, d, b)
	fmt.Fprintln(w, "slackness v = Ω(k·D·log(M/B)) for the randomized writing phase to balance")
	fmt.Fprintln(w, "the drives whp (Lemma 3). The observed bucket skew l and utilization track it.")
	tw := newTable(w)
	fmt.Fprintf(tw, "v\tk\tv/(k·D)\tI/O ops\tutil\tmax bucket skew l\n")
	for _, v := range []int{4, 8, 16, 32, 64, 128} {
		prog, err := sortProgram(n, v, 0x51AC)
		if err != nil {
			return err
		}
		cfg := machineFor(prog, 1, d, b, 8)
		res, err := core.Run(prog, cfg, core.Options{Seed: 0x51AC})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d\t%.1f\t%d\t%.2f\t%.2f\n",
			v, res.EM.K, float64(v)/float64(res.EM.K*d),
			res.EM.Run.Ops, res.EM.Run.Utilization(), res.EM.MaxBucketSkew)
	}
	tw.Flush()
	fmt.Fprintln(w, "Expected: with little slack (v/kD ≈ 1 or below) the per-bucket drive shares")
	fmt.Fprintln(w, "are skewed; as slack grows the skew approaches 1 and utilization stays high.")
	fmt.Fprintln(w)
	return nil
}

func runScaleMemory(w io.Writer, s Scale) error {
	b := bFor(s)
	prog, err := sortProgram(pick(s, 1<<12, 1<<15, 1<<18), benchVPs, 0x3E3)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Sort workload, p=1, D=4, B=%d, memory sweep: k = ⌊M/µ⌋ VPs per group;\n", b)
	fmt.Fprintln(w, "k·µ is the context bound k·⌈(µ+1)/B⌉·B, mem high what the engine held.")
	tw := newTable(w)
	fmt.Fprintf(tw, "groups (v/k)\tk\tM (words)\tI/O ops\tk·µ\tmem high\n")
	for _, groups := range []int{1, 2, 4, 8, 16, 32} {
		cfg := machineFor(prog, 1, 4, b, groups)
		res, err := core.Run(prog, cfg, core.Options{Seed: 0x3E3})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\n", res.EM.Groups, res.EM.K, cfg.M, res.EM.Run.Ops,
			res.EM.K*res.EM.CtxBlocksPerVP*cfg.B, res.EM.MemHigh)
	}
	tw.Flush()
	fmt.Fprintln(w, "Expected: larger memory (fewer groups) lowers overhead mildly; I/O stays Θ(λ·vµ/DB).")
	fmt.Fprintln(w)
	return nil
}

func runBiCC(w io.Writer, s Scale) error {
	n := pick(s, 1<<8, 1<<11, 1<<13)
	b := bFor(s)
	edges := workload.RandomTree(prng.New(0xB1CC), n)
	r := prng.New(0xB1CD)
	for i := 0; i < n/2; i++ {
		a, bb := r.Intn(n), r.Intn(n)
		if a != bb {
			edges = append(edges, [2]int{a, bb})
		}
	}
	fmt.Fprintf(w, "Biconnected components of a connected graph (n=%d, m=%d): four composed\n", n, len(edges))
	fmt.Fprintln(w, "EM-CGM phases (spanning tree, Euler tour, two subtree-extreme passes, aux")
	fmt.Fprintln(w, "components), each a full program run on the sequential EM machine.")
	fmt.Fprintln(w, "paper: prev O(G·(E/DB)·log_{M/B}(V/B)·…); new T_I/O = Õ(G·log(p)·n/(pBD))")
	var ops int64
	var supersteps int
	runner := func(p bsp.Program) ([]bsp.VP, error) {
		cfg := machineFor(p, 1, 4, b, 8)
		res, err := core.Run(p, cfg, core.Options{Seed: 0xB1CC})
		if err != nil {
			return nil, err
		}
		ops += res.EM.Run.Ops
		supersteps += res.Costs.Supersteps
		return res.VPs, nil
	}
	labels, err := cgmgraph.Biconnectivity(n, edges, benchVPs, runner)
	if err != nil {
		return err
	}
	comps := map[int]bool{}
	for _, l := range labels {
		comps[l] = true
	}
	// Verify against the same composition on the in-memory reference.
	refLabels, err := cgmgraph.Biconnectivity(n, edges, benchVPs, func(p bsp.Program) ([]bsp.VP, error) {
		res, err := bsp.Run(p, bsp.RunOptions{Seed: 0xB1CC, PktSize: b})
		if err != nil {
			return nil, err
		}
		return res.VPs, nil
	})
	if err != nil {
		return err
	}
	for i := range labels {
		if labels[i] != refLabels[i] {
			return fmt.Errorf("EM and reference biconnectivity labels differ at edge %d", i)
		}
	}
	fmt.Fprintf(w, "%d biconnected components; %d parallel I/O ops over λ=%d total supersteps\n",
		len(comps), ops, supersteps)
	fmt.Fprintln(w, "EM labels verified identical to the in-memory reference composition.")
	fmt.Fprintln(w)
	return nil
}

func runEarDecomp(w io.Writer, s Scale) error {
	n := pick(s, 1<<8, 1<<11, 1<<13)
	b := bFor(s)
	r := prng.New(0xEA2)
	edges := make([][2]int, 0, n+n/2)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	for len(edges) < n+n/2 {
		a, bb := r.Intn(n), r.Intn(n)
		if a != bb {
			edges = append(edges, [2]int{a, bb})
		}
	}
	fmt.Fprintf(w, "Open ear decomposition of a biconnected graph (n=%d, m=%d): four composed\n", n, len(edges))
	fmt.Fprintln(w, "EM-CGM phases (spanning tree, Euler tour, batched LCA, subtree minima).")
	fmt.Fprintln(w, "paper: new T_I/O = Õ(G·log(p)·n/(pBD)), λ=O(log p) per phase")
	var ops int64
	var supersteps int
	runner := func(p bsp.Program) ([]bsp.VP, error) {
		cfg := machineFor(p, 1, 4, b, 8)
		res, err := core.Run(p, cfg, core.Options{Seed: 0xEA2})
		if err != nil {
			return nil, err
		}
		ops += res.EM.Run.Ops
		supersteps += res.Costs.Supersteps
		return res.VPs, nil
	}
	ears, err := cgmgraph.EarDecomposition(n, edges, benchVPs, runner)
	if err != nil {
		return err
	}
	nEars := 0
	for _, e := range ears {
		if e+1 > nEars {
			nEars = e + 1
		}
	}
	if nEars != len(edges)-n+1 {
		return fmt.Errorf("got %d ears, want m-n+1 = %d", nEars, len(edges)-n+1)
	}
	refEars, err := cgmgraph.EarDecomposition(n, edges, benchVPs, func(p bsp.Program) ([]bsp.VP, error) {
		res, err := bsp.Run(p, bsp.RunOptions{Seed: 0xEA2, PktSize: b})
		if err != nil {
			return nil, err
		}
		return res.VPs, nil
	})
	if err != nil {
		return err
	}
	for i := range ears {
		if ears[i] != refEars[i] {
			return fmt.Errorf("EM and reference ear labels differ at edge %d", i)
		}
	}
	fmt.Fprintf(w, "%d ears (= m-n+1) over %d parallel I/O ops, λ=%d total supersteps\n", nEars, ops, supersteps)
	fmt.Fprintln(w, "EM labels verified identical to the in-memory reference composition.")
	fmt.Fprintln(w)
	return nil
}

func runCOpt(w io.Writer, s Scale) error {
	b := 64
	v := benchVPs
	fmt.Fprintln(w, "c-optimality preservation (Observation 2): as n grows, I/O time and")
	fmt.Fprintln(w, "communication time vanish relative to per-processor computation time.")
	tw := newTable(w)
	fmt.Fprintf(tw, "n\tT_comp/p\tT_IO\tT_IO/(T_comp/p)\tT_comm*\tT_comm/(T_comp/p)\n")
	for _, sh := range []int{10, 12, 14, pick(s, 14, 16, 18)} {
		n := 1 << sh
		prog, err := sortProgram(n, v, 0xC0)
		if err != nil {
			return err
		}
		cfg := machineFor(prog, 4, 4, b, 4)
		cfg.G = 10 // modest I/O cost so the trend is visible
		res, err := core.Run(prog, cfg, core.Options{Seed: 0xC0})
		if err != nil {
			return err
		}
		// The simulation executes all v virtual processors on p real
		// ones, so its per-processor computation time is the total
		// charged work divided by p (Theorem 1's (v/p)·β term).
		comp := float64(res.Costs.TotalCharge()) / float64(cfg.P)
		fmt.Fprintf(tw, "%d\t%.3g\t%.3g\t%.3f\t%.3g\t%.3f\n",
			n, comp, res.EM.IOTime, res.EM.IOTime/comp, res.EM.CommTime, res.EM.CommTime/comp)
	}
	tw.Flush()
	fmt.Fprintln(w, "Expected: both ratio columns decrease with n (conditions of Observation 2).")
	fmt.Fprintln(w)
	return nil
}

func runObs1(w io.Writer, s Scale) error {
	n := pick(s, 1<<12, 1<<14, 1<<16)
	v := benchVPs
	prog, err := sortProgram(n, v, 0x0B51)
	if err != nil {
		return err
	}
	b := 64
	ref, err := bsp.Run(prog, bsp.RunOptions{Seed: 0x0B51, PktSize: b})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "CGM sort, n=%d, v=%d: every communication round is an h-relation with h <= c·n/v.\n", n, v)
	tw := newTable(w)
	fmt.Fprintf(tw, "superstep\th (words)\th/(n/v)\n")
	for i, st := range ref.Costs.PerStep {
		fmt.Fprintf(tw, "%d\t%d\t%.2f\n", i, st.HWords(), float64(st.HWords())/(float64(n)/float64(v)))
	}
	tw.Flush()
	fmt.Fprintf(w, "BSP* communication time (Observation 1 accounting, b=%d): %.4g; λ=%d\n",
		b, ref.Costs.CommTimeBSPStar(bsp.CostParams{GPkt: float64(b), Pkt: b, L: 100}), ref.Costs.Supersteps)

	// Deterministic placement variant (predetermined CGM traffic).
	cfg := machineFor(prog, 1, 4, b, 8)
	rnd, err := core.Run(prog, cfg, core.Options{Seed: 0x0B51})
	if err != nil {
		return err
	}
	det, err := core.Run(prog, cfg, core.Options{Seed: 0x0B51, Deterministic: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "randomized placement:    ops=%d  max bucket skew=%.2f\n", rnd.EM.Run.Ops, rnd.EM.MaxBucketSkew)
	fmt.Fprintf(w, "deterministic placement: ops=%d  max bucket skew=%.2f (CGM note, Section 4)\n", det.EM.Run.Ops, det.EM.MaxBucketSkew)
	fmt.Fprintln(w, "Placement by the directory's counts leaves the permutation, or the rotation,")
	fmt.Fprintln(w, "only the ties to break: the two variants differ by a few operations at most.")
	fmt.Fprintln(w)
	return nil
}
