package bench

import (
	"fmt"
	"io"

	"embsp/internal/bsp"
	"embsp/internal/pdm"
	"embsp/internal/workload"
)

// row is one Table 1 experiment: a registry workload, its size at each
// Scale, and an optional sequential-EM baseline. Every EM run of a row
// is verified against the in-memory reference run by its final VP
// states.
type row struct {
	id         string
	title      string
	reproduces string
	paperNote  string // the paper's complexity entries for this row
	alg        string // the workload.Spec name
	n          [3]int // the problem size at Small, Medium, Large
	baseline   func(w io.Writer, s Scale, b, m int) error
}

// rowSeed draws every row's input and seeds its runs.
const rowSeed = 0x7AB1E1

const benchVPs = 32

var table1 = []row{
	{
		id:         "table1/sorting",
		title:      "Sorting (EM-CGM sample sort vs. PDM merge sort)",
		reproduces: "Table 1, Group A, row 'Sorting'",
		paperNote:  "prev: Θ(G·(n/DB)·log_{M/B}(n/B));  new: T_I/O = Õ(G·n/(pBD)), λ=O(1)",
		alg:        "sort",
		n:          [3]int{1 << 12, 1 << 15, 1 << 18},
		baseline:   sortBaseline,
	},
	{
		id:         "table1/permutation",
		title:      "Permutation (EM-CGM routing vs. PDM direct/sort methods)",
		reproduces: "Table 1, Group A, row 'Permutation'",
		paperNote:  "prev: Θ(G·min(n/D, (n/DB)·log_{M/B}(n/B)));  new: T_I/O = Õ(G·n/(pBD)), λ=O(1)",
		alg:        "permute",
		n:          [3]int{1 << 12, 1 << 15, 1 << 18},
		baseline:   permuteBaseline,
	},
	{
		id:         "table1/transpose",
		title:      "Matrix transpose",
		reproduces: "Table 1, Group A, row 'Matrix transpose'",
		paperNote:  "prev: Θ(G·(n/BD)·log min(M,r,c,n/B)/log(M/B));  new: T_I/O = Õ(G·n/(pBD)), λ=O(1)",
		alg:        "transpose",
		n:          [3]int{64 * 64, 181 * 181, 512 * 512},
		baseline:   transposeBaseline,
	},
	{
		id:         "table1/hull2d",
		title:      "Convex hull (stand-in for the 3D hull / Voronoi / Delaunay family)",
		reproduces: "Table 1, Group B, row '3D convex hull, 2D Voronoi diagram, Delaunay triangulation'",
		paperNote:  "prev: O(G·(n/B)·log_{M/B}(n/B));  new: T_I/O = Õ(G·n/(pBD)), λ=Õ(1) (ours: ⌈log₂ v⌉ merge rounds, DESIGN.md §5)",
		alg:        "hull",
		n:          [3]int{1 << 11, 1 << 14, 1 << 17},
	},
	{
		id:         "table1/maxima3d",
		title:      "3D maxima",
		reproduces: "Table 1, Group B, row '3D-maxima'",
		paperNote:  "prev: O(G·(n/B)·log_{M/B}(n/B));  new: T_I/O = Õ(G·n/(pBD)), λ=O(1)",
		alg:        "maxima",
		n:          [3]int{1 << 11, 1 << 14, 1 << 17},
	},
	{
		id:         "table1/dominance",
		title:      "2D weighted dominance counting",
		reproduces: "Table 1, Group B, row '2D-weighted dominance counting'",
		paperNote:  "new: T_I/O = Õ(G·n/(pBD)), λ=O(1)",
		alg:        "dominance",
		n:          [3]int{1 << 10, 1 << 13, 1 << 16},
	},
	{
		id:         "table1/rectunion",
		title:      "Area of union of rectangles",
		reproduces: "Table 1, Group B, row 'Area of union of rectangles'",
		paperNote:  "prev: O(G·(n/B)·log_{M/B}(n/B));  new: T_I/O = Õ(G·n/(pBD)), λ=O(1)",
		alg:        "rectunion",
		n:          [3]int{1 << 9, 1 << 11, 1 << 13},
	},
	{
		id:         "table1/envelope",
		title:      "Lower envelope of non-intersecting segments",
		reproduces: "Table 1, Group B, row 'Lower envelope of non-intersecting line segments'",
		paperNote:  "new: T_I/O = Õ(G·n/(pBD)), λ=O(1)",
		alg:        "envelope",
		n:          [3]int{1 << 9, 1 << 11, 1 << 13},
	},
	{
		id:         "table1/genenvelope",
		title:      "Generalized lower envelope of (possibly intersecting) segments",
		reproduces: "Table 1, Group B, row 'Generalized lower envelope of line segments'",
		paperNote:  "new: T_I/O = Õ(G·n·α(n)/(pBD)), λ=O(1)",
		alg:        "genenvelope",
		n:          [3]int{1 << 9, 1 << 11, 1 << 13},
	},
	{
		id:         "table1/segtree",
		title:      "Batched segment tree construction",
		reproduces: "Table 1, Group B, row 'Segment tree construction'",
		paperNote:  "prev: O(G·(n/B)·log_{M/B}(n/B));  new: T_I/O = Õ(G·(n log n)/(pBD)), λ=O(1)",
		alg:        "segtree",
		n:          [3]int{1 << 9, 1 << 12, 1 << 15},
	},
	{
		id:         "table1/nextelem",
		title:      "Batched next-element search (vertical ray shooting)",
		reproduces: "Table 1, Group B, rows 'Next element search' / 'Batched planar point location'",
		paperNote:  "prev: O(G·(n/B)·log_{M/B}(n/B));  new: T_I/O = Õ(G·(n log n)/(pBD)), λ=O(1)",
		alg:        "nextelement",
		n:          [3]int{1 << 9, 1 << 11, 1 << 13},
	},
	{
		id:         "table1/separability",
		title:      "Linear separability of two point sets (hulls + separating axis)",
		reproduces: "Table 1, Group B, row 'Uni- and multi-directional separability'",
		paperNote:  "new: T_I/O = Õ(G·n/(pBD)), λ=O(1) (ours: ⌈log₂ v⌉ hull merge rounds)",
		alg:        "separability",
		n:          [3]int{1 << 10, 1 << 13, 1 << 16},
	},
	{
		id:         "table1/nn2d",
		title:      "2D all nearest neighbors",
		reproduces: "Table 1, Group B, row '2D-nearest neighbors'",
		paperNote:  "prev: O(G·(n/B)·log_{M/B}(n/B));  new: T_I/O = Õ(G·n/(pBD)), λ=O(1) expected",
		alg:        "nn",
		n:          [3]int{1 << 10, 1 << 13, 1 << 16},
	},
	{
		id:         "table1/listrank",
		title:      "List ranking (EM-CGM contraction vs. Chiang et al. PRAM-by-sorting)",
		reproduces: "Table 1, Group C, row 'List ranking' (+ comparison with [14])",
		paperNote:  "prev: O(G·(n/B)·log_{M/B}(n/B)) per PRAM pass [14];  new: T_I/O = Õ(G·log(p)·n/(pBD)), λ=O(log p)",
		alg:        "listrank",
		n:          [3]int{1 << 11, 1 << 14, 1 << 17},
		baseline:   listRankBaseline,
	},
	{
		id:         "table1/eulertour",
		title:      "Euler tour of a tree (+ rooting, depth, subtree size)",
		reproduces: "Table 1, Group C, row 'Euler tour (tree)' and tree applications",
		paperNote:  "prev: O(G·(n/B)·log_{M/B}(n/B));  new: T_I/O = Õ(G·log(p)·n/(pBD)), λ=O(log p)",
		alg:        "euler",
		n:          [3]int{1 << 10, 1 << 13, 1 << 16},
	},
	{
		id:         "table1/lca",
		title:      "Batched lowest common ancestors (Euler tour + distributed sparse-table RMQ)",
		reproduces: "Table 1, Group C, row 'Lowest common ancestor'",
		paperNote:  "prev: O(G·(n/B)·log_{M/B}(n/B));  new: T_I/O = Õ(G·log(p)·n/(pBD)), λ=O(log p) (ours adds ⌊log₂ 2n⌋ RMQ levels)",
		alg:        "lca",
		n:          [3]int{1 << 10, 1 << 13, 1 << 15},
	},
	{
		id:         "table1/exprtree",
		title:      "Expression tree evaluation by parallel tree contraction (rake)",
		reproduces: "Table 1, Group C, rows 'Tree contraction / Expression tree evaluation'",
		paperNote:  "prev: O(G·(n/B)·log_{M/B}(n/B));  new: T_I/O = Õ(G·log(p)·n/(pBD)), λ=O(log p)",
		alg:        "expr",
		n:          [3]int{1 << 9, 1 << 12, 1 << 14},
	},
	{
		id:         "table1/cc",
		title:      "Connected components and spanning forest",
		reproduces: "Table 1, Group C, rows 'Connected components / Spanning forest'",
		paperNote:  "prev: O(G·(E/DB)·log_{M/B}(V/B)·max{1, log log(VBD/E)});  new: T_I/O = Õ(G·log(p)·n/(pBD)), λ=O(log p)",
		alg:        "cc",
		n:          [3]int{1 << 10, 1 << 13, 1 << 15},
	},
}

func init() {
	for _, r := range table1 {
		register(Experiment{
			ID:         r.id,
			Title:      r.title,
			Reproduces: r.reproduces,
			Workload:   r.alg,
			Run:        func(w io.Writer, s Scale) error { return runRow(w, s, r) },
		})
	}
}

func runRow(w io.Writer, s Scale, r row) error {
	b := bFor(s)
	inst, err := workload.Spec{Alg: r.alg, N: r.n[s], V: benchVPs, Seed: rowSeed}.Build()
	if err != nil {
		return err
	}
	prog := inst.Program
	ref, err := bsp.Run(prog, bsp.RunOptions{Seed: rowSeed, PktSize: b})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	rows, pd, err := standardMachines(prog, b, rowSeed)
	if err != nil {
		return err
	}
	for _, em := range rows {
		if err := sameStates(ref.VPs, em.res.VPs); err != nil {
			return fmt.Errorf("%s: %w", em.label, err)
		}
	}

	fmt.Fprintf(w, "%s — %s\n", r.id, r.title)
	fmt.Fprintf(w, "paper: %s\n", r.paperNote)
	fmt.Fprintf(w, "v=%d VPs, λ(measured)=%d, all EM outputs verified against the reference run\n",
		prog.NumVPs(), ref.Costs.Supersteps)
	tw := newTable(w)
	lambda := ref.Costs.Supersteps
	vmu := prog.NumVPs() * prog.MaxContextWords()
	theory := func(p, d int) float64 {
		return 2 * emCGMOps(lambda, vmu, p, d, b)
	}
	printEMRows(tw, rows, 1000, theory, pd)
	tw.Flush()
	if r.baseline != nil {
		cfg := machineFor(prog, 1, 4, b, 8)
		m := cfg.M
		if m < 4*4*b {
			m = 4 * 4 * b
		}
		if err := r.baseline(w, s, b, m); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	return nil
}

func sortBaseline(w io.Writer, s Scale, b, m int) error {
	n := pick(s, 1<<12, 1<<15, 1<<18)
	mach, err := pdm.NewMachine(m, 4, b)
	if err != nil {
		return err
	}
	f, err := mach.WriteFile(workload.Keys(rowSeed, n))
	if err != nil {
		return err
	}
	mach.Arr.ResetStats()
	if _, err := mach.MergeSort(f, 1); err != nil {
		return err
	}
	st := mach.Arr.Stats()
	fmt.Fprintf(w, "baseline PDM merge sort (D=4): ops=%d blocks=%d util=%.2f theory=%.0f ops\n",
		st.Ops, st.Blocks(), st.Utilization(), sortIOOps(n, m, 4, b))
	return nil
}

func permuteBaseline(w io.Writer, s Scale, b, m int) error {
	n := pick(s, 1<<10, 1<<12, 1<<14) // direct method is Θ(n) ops
	targets := workload.Perm(rowSeed+1, n)
	for _, method := range []string{"direct", "bySort"} {
		mach, err := pdm.NewMachine(m, 4, b)
		if err != nil {
			return err
		}
		f, err := mach.WriteFile(workload.Keys(rowSeed, n))
		if err != nil {
			return err
		}
		mach.Arr.ResetStats()
		if method == "direct" {
			_, err = mach.PermuteDirect(f, func(i int) int { return targets[i] })
		} else {
			_, err = mach.PermuteBySort(f, func(i int) int { return targets[i] })
		}
		if err != nil {
			return err
		}
		st := mach.Arr.Stats()
		fmt.Fprintf(w, "baseline PDM permute %-7s (n=%d, D=4): ops=%d blocks=%d util=%.2f\n",
			method, n, st.Ops, st.Blocks(), st.Utilization())
	}
	return nil
}

func transposeBaseline(w io.Writer, s Scale, b, m int) error {
	side := pick(s, 64, 181, 512)
	mach, err := pdm.NewMachine(m, 4, b)
	if err != nil {
		return err
	}
	f, err := mach.WriteFile(workload.Keys(rowSeed, side*side))
	if err != nil {
		return err
	}
	mach.Arr.ResetStats()
	if _, err := mach.Transpose(f, side, side); err != nil {
		return err
	}
	st := mach.Arr.Stats()
	fmt.Fprintf(w, "baseline PDM transpose (sort-based, D=4): ops=%d blocks=%d util=%.2f\n",
		st.Ops, st.Blocks(), st.Utilization())
	return nil
}

func listRankBaseline(w io.Writer, s Scale, b, m int) error {
	n := pick(s, 1<<11, 1<<13, 1<<15)
	mach, err := pdm.NewMachine(m, 4, b)
	if err != nil {
		return err
	}
	if _, err := mach.PRAMListRank(workload.List(rowSeed, n)); err != nil {
		return err
	}
	st := mach.Arr.Stats()
	fmt.Fprintf(w, "baseline PRAM-by-sorting list rank [14] (n=%d, D=4): ops=%d blocks=%d (≈%.1f full sorts)\n",
		n, st.Ops, st.Blocks(), float64(st.Blocks())/(2*float64(n)/float64(b))/float64(log2ceil(n)))
	return nil
}
