// Package workload is the registry of named Table 1 programs, the one
// place a Table 1 input is drawn and its program built. A Spec
// identifies a workload by name and shape (problem size, VP count,
// input seed) and builds it deterministically: the same Spec always
// yields the same Program over the same input, which is what lets a
// job daemon rebuild an in-flight job's Program after a crash and
// resume its journal. The CLI, the chaos soak, the job daemon, the
// cluster, the tests and the paper's experiments (internal/bench) all
// build their programs here.
package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"embsp"
	"embsp/internal/prng"
	"embsp/internal/words"
)

// Spec names one workload instance. Building the same Spec twice — in
// another process, after a daemon restart — yields the same Program
// over the same deterministically drawn input.
type Spec struct {
	// Alg is the workload name; see Names.
	Alg string `json:"alg"`
	// N is the problem size (records, points, nodes ...; for transpose
	// the largest square matrix of at most N entries).
	N int `json:"n"`
	// V is the number of virtual processors.
	V int `json:"v"`
	// Seed keys the deterministic input generator.
	Seed uint64 `json:"seed"`
}

// Instance is a built workload: the Program plus its result describer.
type Instance struct {
	// Program is the BSP program for the spec.
	Program embsp.Program
	// Describe summarizes a completed run's output in one line (and
	// performs the workload's cheap self-check, e.g. sortedness).
	Describe func(*embsp.Result) string
}

type entry struct {
	name  string
	build func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error)
}

// counted describes a run by the length of its output: "<len> <what>".
func counted[T any](out func([]embsp.VP) []T, what string) func(*embsp.Result) string {
	return func(res *embsp.Result) string { return fmt.Sprintf("%d %s", len(out(res.VPs)), what) }
}

// table lists every named workload: the 13 Table 1 rows, the three
// further Group B rows the experiments run (genenvelope, segtree,
// separability), and the LCA and expression-tree graph workloads. An
// entry draws its input from the seed alone, on one stream or on
// several derived from it (seed+1, ...).
func table() []entry {
	return []entry{
		{"sort", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			p, err := embsp.NewSort(Keys(seed, n), 1, v)
			return p, func(res *embsp.Result) string {
				out := p.Output(res.VPs)
				for i := 1; i < len(out); i++ {
					if out[i-1] > out[i] {
						return "FAILED: output not sorted"
					}
				}
				return fmt.Sprintf("%d keys sorted", len(out))
			}, err
		}},
		{"permute", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = uint64(i)
			}
			p, err := embsp.NewPermute(vals, Perm(seed, n), v)
			return p, counted(p.Output, "records routed"), err
		}},
		{"transpose", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			side := int(math.Sqrt(float64(n)))
			p, err := embsp.NewTranspose(Keys(seed, side*side), side, side, v)
			return p, counted(p.Output, "matrix entries transposed"), err
		}},
		{"maxima", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			r := prng.New(seed)
			pts := make([]embsp.Point3, n)
			for i := range pts {
				pts[i] = embsp.Point3{X: r.Float64(), Y: r.Float64(), Z: r.Float64()}
			}
			p, err := embsp.NewMaxima3D(pts, v)
			return p, counted(p.Output, "maximal points"), err
		}},
		{"dominance", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			weights := make([]uint64, n)
			for i := range weights {
				weights[i] = uint64(i%7 + 1)
			}
			p, err := embsp.NewDominance2D(points(seed, n), weights, v)
			return p, counted(p.Output, "dominance counts"), err
		}},
		{"rectunion", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			r := prng.New(seed)
			rects := make([]embsp.Rect, n)
			for i := range rects {
				x, y := r.Float64(), r.Float64()
				rects[i] = embsp.Rect{X1: x, X2: x + 0.005 + r.Float64()*0.1, Y1: y, Y2: y + 0.005 + r.Float64()*0.1}
			}
			p, err := embsp.NewRectUnion(rects, v)
			return p, func(res *embsp.Result) string {
				return fmt.Sprintf("union area %.6g", p.Output(res.VPs))
			}, err
		}},
		{"hull", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			p, err := embsp.NewHull2D(points(seed, n), v)
			return p, func(res *embsp.Result) string {
				return fmt.Sprintf("hull has %d vertices", len(p.Output(res.VPs)))
			}, err
		}},
		{"envelope", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			// Non-crossing segments, stacked at distinct heights.
			r := prng.New(seed)
			segs := make([]embsp.Segment, n)
			for i := range segs {
				x := r.Float64()
				y := float64(i) + r.Float64()*0.4
				segs[i] = embsp.Segment{X1: x, Y1: y, X2: x + 0.02 + r.Float64()*0.3, Y2: y + r.Float64()*0.05}
			}
			p, err := embsp.NewEnvelope(segs, v)
			return p, counted(p.Output, "envelope pieces"), err
		}},
		{"genenvelope", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			// Segments that may cross.
			r := prng.New(seed + 3)
			segs := make([]embsp.Segment, n)
			for i := range segs {
				x := r.Float64()
				segs[i] = embsp.Segment{X1: x, Y1: r.Float64(), X2: x + 0.05 + r.Float64()*0.6, Y2: r.Float64()}
			}
			p, err := embsp.NewGenEnvelope(segs, v)
			return p, counted(p.Output, "envelope pieces"), err
		}},
		{"segtree", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			r := prng.New(seed + 7)
			intervals := make([]embsp.Segment, n)
			for i := range intervals {
				x := r.Float64()
				intervals[i] = embsp.Segment{X1: x, X2: x + 0.01 + r.Float64()*0.5}
			}
			p, err := embsp.NewSegTree(intervals, v)
			return p, counted(p.Output, "segment tree nodes"), err
		}},
		{"nextelement", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			r := prng.New(seed)
			hsegs := make([]embsp.HSegment, n)
			for i := range hsegs {
				x := r.Float64()
				hsegs[i] = embsp.HSegment{X1: x, X2: x + 0.01 + r.Float64()*0.3, Y: r.Float64()}
			}
			p, err := embsp.NewNextElement(hsegs, points(seed+1, n), v)
			return p, counted(p.Output, "next-element queries answered"), err
		}},
		{"separability", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			r := prng.New(seed + 5)
			b := make([]embsp.Point, n/2)
			dx := 0.8 + r.Float64() // straddles the separability boundary
			for i := range b {
				b[i] = embsp.Point{X: dx + r.Float64(), Y: r.Float64()}
			}
			p, err := embsp.NewSeparability(points(seed, n/2), b, v)
			return p, func(res *embsp.Result) string {
				return fmt.Sprintf("linearly separable: %v", p.Output(res.VPs))
			}, err
		}},
		{"nn", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			p, err := embsp.NewNN2D(points(seed, n), v)
			return p, counted(p.Output, "nearest neighbors found"), err
		}},
		{"listrank", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			p, err := embsp.NewListRank(List(seed, n), nil, v)
			return p, counted(p.Output, "nodes ranked"), err
		}},
		{"euler", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			p, err := embsp.NewEulerTour(n, RandomTree(prng.New(seed), n), v)
			return p, func(res *embsp.Result) string {
				info := p.Output(res.VPs)
				maxDepth := 0
				for _, d := range info.Depth {
					if d > maxDepth {
						maxDepth = d
					}
				}
				return fmt.Sprintf("tree rooted; height %d", maxDepth)
			}, err
		}},
		{"cc", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			r := prng.New(seed)
			edges := make([][2]int, 0, 2*n)
			for len(edges) < 2*n {
				a, b := r.Intn(n), r.Intn(n)
				if a != b {
					edges = append(edges, [2]int{a, b})
				}
			}
			p, err := embsp.NewCC(n, edges, v)
			return p, func(res *embsp.Result) string {
				comps := map[int]bool{}
				for _, l := range p.Output(res.VPs) {
					comps[l] = true
				}
				return fmt.Sprintf("%d components, %d forest edges, %d Borůvka rounds",
					len(comps), len(p.Forest(res.VPs)), p.Rounds(res.VPs))
			}, err
		}},
		{"lca", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			r := prng.New(seed + 9)
			queries := make([][2]int, n)
			for i := range queries {
				queries[i] = [2]int{r.Intn(n), r.Intn(n)}
			}
			p, err := embsp.NewLCA(n, RandomTree(prng.New(seed), n), queries, v)
			return p, counted(p.Output, "LCA queries answered"), err
		}},
		{"expr", func(n, v int, seed uint64) (embsp.Program, func(*embsp.Result) string, error) {
			parent, kind, value := randomExpr(prng.New(seed), n)
			p, err := embsp.NewExprTree(parent, kind, value, v)
			return p, func(res *embsp.Result) string {
				return fmt.Sprintf("expression value %d", p.Output(res.VPs))
			}, err
		}},
	}
}

// Machine builds the standard CLI machine shape for a built program:
// per-processor memory scaled off the program's context footprint
// (M = mFactor·µ) and the default cost parameters over block size b.
// embsp-run and embsp-cluster must agree on this mapping exactly —
// the cluster's bitwise-identity check replays the same flags through
// the in-process engine.
func Machine(prog embsp.Program, p, d, b, mFactor int, g float64) embsp.MachineConfig {
	return embsp.MachineConfig{
		P: p, M: mFactor * prog.MaxContextWords(), D: d, B: b, G: g,
		Cost: embsp.CostParams{GUnit: 1, GPkt: float64(b), Pkt: b, L: 100},
	}
}

// Names returns the registered workload names, sorted.
func Names() []string {
	t := table()
	names := make([]string, len(t))
	for i, e := range t {
		names[i] = e.name
	}
	sort.Strings(names)
	return names
}

// Table1Names returns the names of the 13 Table 1 workloads the soak
// and the test batteries run, in table order.
func Table1Names() []string {
	return []string{"sort", "permute", "transpose", "maxima", "dominance", "rectunion",
		"hull", "envelope", "nextelement", "nn", "listrank", "euler", "cc"}
}

// Validate checks the spec's shape without building it.
func (s Spec) Validate() error {
	found := false
	for _, e := range table() {
		if e.name == s.Alg {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("workload: unknown workload %q; available: %v", s.Alg, Names())
	}
	if s.N < 2 {
		return fmt.Errorf("workload: n = %d, want >= 2", s.N)
	}
	if s.V < 1 {
		return fmt.Errorf("workload: v = %d, want >= 1", s.V)
	}
	return nil
}

// Build constructs the workload deterministically from the spec.
func (s Spec) Build() (*Instance, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	for _, e := range table() {
		if e.name != s.Alg {
			continue
		}
		p, describe, err := e.build(s.N, s.V, s.Seed)
		if err != nil {
			return nil, err
		}
		return &Instance{Program: p, Describe: describe}, nil
	}
	panic("unreachable: Validate checked the name")
}

// Keys draws n uniform 64-bit keys.
func Keys(seed uint64, n int) []uint64 {
	r := prng.New(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

// Perm draws a uniform permutation of 0..n-1.
func Perm(seed uint64, n int) []int { return prng.New(seed).Perm(n) }

// List returns the successor array of one random chain over n nodes
// (-1 ends it).
func List(seed uint64, n int) []int {
	perm := Perm(seed, n)
	succ := make([]int, n)
	for i := range succ {
		succ[i] = -1
	}
	for i := 0; i+1 < n; i++ {
		succ[perm[i]] = perm[i+1]
	}
	return succ
}

// points draws n points uniform in the unit square.
func points(seed uint64, n int) []embsp.Point {
	r := prng.New(seed)
	out := make([]embsp.Point, n)
	for i := range out {
		out[i] = embsp.Point{X: r.Float64(), Y: r.Float64()}
	}
	return out
}

// RandomTree draws a uniformly attached random tree on n nodes as an
// edge list (every node i > 0 attaches to a random earlier node).
func RandomTree(r *prng.Rand, n int) [][2]int {
	edges := make([][2]int, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{r.Intn(i), i})
	}
	return edges
}

// randomExpr draws a random binary +/× expression tree with nLeaves
// leaves holding small values.
func randomExpr(r *prng.Rand, nLeaves int) (parent []int, kind []uint8, value []uint64) {
	parent = []int{-1}
	kind = []uint8{embsp.OpLeaf}
	value = []uint64{r.Uint64() % 1000}
	if nLeaves <= 1 {
		return
	}
	leaves := []int{0}
	for len(leaves) < nLeaves {
		li := r.Intn(len(leaves))
		node := leaves[li]
		if r.Bool() {
			kind[node] = embsp.OpAdd
		} else {
			kind[node] = embsp.OpMul
		}
		for c := 0; c < 2; c++ {
			parent = append(parent, node)
			kind = append(kind, embsp.OpLeaf)
			value = append(value, r.Uint64()%1000)
			if c == 0 {
				leaves[li] = len(parent) - 1
			} else {
				leaves = append(leaves, len(parent)-1)
			}
		}
	}
	return
}

// Fingerprint digests a Result into one comparable value: the marshaled
// context of every final VP (the bitwise-identity contract's ground
// truth), the BSP model costs and the EM statistics — with
// EMStats.Overlap zeroed first, since overlap is wall-clock
// observability explicitly outside that contract. Two runs of the same
// Spec on the same machine configuration — clean, fault-injected,
// killed-and-resumed, pipelined or serial — must produce equal
// fingerprints; the job daemon stores it per job so a crash-resumed
// daemon's results can be checked against clean one-shot runs.
func Fingerprint(res *embsp.Result) uint64 {
	h := fnv.New64a()
	enc := words.NewEncoder(nil)
	var buf [8]byte
	for _, vp := range res.VPs {
		enc.Reset()
		vp.Save(enc)
		for _, w := range enc.Words() {
			putWord(&buf, w)
			h.Write(buf[:])
		}
		// Separate VPs so context boundaries shift the digest.
		fmt.Fprintf(h, "|")
	}
	em := res.EM
	em.Overlap = embsp.OverlapStats{}
	fmt.Fprintf(h, "%+v%+v", res.Costs, em)
	return h.Sum64()
}

func putWord(buf *[8]byte, w uint64) {
	for i := 0; i < 8; i++ {
		buf[i] = byte(w >> (8 * i))
	}
}
