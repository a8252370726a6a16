package cgmgraph_test

import (
	"testing"

	"embsp/internal/alg/algtest"
	"embsp/internal/alg/cgmgraph"
	"embsp/internal/bsp"
	"embsp/internal/prng"
)

// unionFind is the sequential reference for components.
type unionFind []int

func newUF(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = i
	}
	return u
}

func (u unionFind) find(x int) int {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

func (u unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	u[ra] = rb
	return true
}

// minLabels returns per-vertex minimum component vertex id.
func minLabels(n int, edges [][2]int) []int {
	uf := newUF(n)
	for _, e := range edges {
		uf.union(e[0], e[1])
	}
	minOf := make(map[int]int)
	for i := 0; i < n; i++ {
		r := uf.find(i)
		if m, ok := minOf[r]; !ok || i < m {
			minOf[r] = i
		}
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = minOf[uf.find(i)]
	}
	return out
}

func randGraph(r *prng.Rand, n, m int) [][2]int {
	var edges [][2]int
	for len(edges) < m {
		a, b := r.Intn(n), r.Intn(n)
		if a != b {
			edges = append(edges, [2]int{a, b})
		}
	}
	return edges
}

func TestCCRandomGraphs(t *testing.T) {
	r := prng.New(1)
	cases := []struct{ n, m int }{
		{1, 0}, {2, 0}, {2, 1}, {10, 5}, {30, 15}, {50, 100}, {60, 30},
	}
	for _, c := range cases {
		for _, v := range []int{1, 2, 4} {
			edges := randGraph(r, c.n, c.m)
			p, err := cgmgraph.NewCC(c.n, edges, v)
			if err != nil {
				t.Fatal(err)
			}
			res := algtest.RunAll(t, p, 61, func(vps []bsp.VP) []uint64 {
				var out []uint64
				for _, x := range p.Output(vps) {
					out = append(out, uint64(x))
				}
				for _, x := range p.Forest(vps) {
					out = append(out, uint64(x))
				}
				return out
			})
			got := p.Output(res.VPs)
			want := minLabels(c.n, edges)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d m=%d v=%d: comp[%d] = %d, want %d", c.n, c.m, v, i, got[i], want[i])
				}
			}
			validateForest(t, c.n, edges, p.Forest(res.VPs))
		}
	}
}

// validateForest checks the forest edges form a spanning forest: the
// right count per component and acyclic.
func validateForest(t *testing.T, n int, edges [][2]int, forest []int) {
	t.Helper()
	uf := newUF(n)
	for _, ei := range forest {
		if ei < 0 || ei >= len(edges) {
			t.Fatalf("forest edge index %d out of range", ei)
		}
		if !uf.union(edges[ei][0], edges[ei][1]) {
			t.Fatalf("forest edge %d creates a cycle", ei)
		}
	}
	// Same component structure as the full graph.
	full := newUF(n)
	for _, e := range edges {
		full.union(e[0], e[1])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if (uf.find(i) == uf.find(j)) != (full.find(i) == full.find(j)) {
				t.Fatalf("forest connectivity differs from graph at (%d,%d)", i, j)
			}
		}
	}
}

func TestCCStructuredGraphs(t *testing.T) {
	// Path, cycle, star, two components, grid.
	path := func(n int) [][2]int {
		var e [][2]int
		for i := 0; i+1 < n; i++ {
			e = append(e, [2]int{i, i + 1})
		}
		return e
	}
	star := func(n int) [][2]int {
		var e [][2]int
		for i := 1; i < n; i++ {
			e = append(e, [2]int{0, i})
		}
		return e
	}
	cases := []struct {
		name  string
		n     int
		edges [][2]int
	}{
		{"path", 20, path(20)},
		{"star", 20, star(20)},
		{"cycle", 12, append(path(12), [2]int{11, 0})},
		{"twoComponents", 14, append(path(7), [][2]int{{7, 8}, {8, 9}, {9, 10}, {10, 11}, {11, 12}, {12, 13}}...)},
		{"isolated", 9, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := cgmgraph.NewCC(c.n, c.edges, 3)
			if err != nil {
				t.Fatal(err)
			}
			res := algtest.RunRef(t, p, 67)
			got := p.Output(res.VPs)
			want := minLabels(c.n, c.edges)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("comp[%d] = %d, want %d", i, got[i], want[i])
				}
			}
			validateForest(t, c.n, c.edges, p.Forest(res.VPs))
		})
	}
}

func TestCCRejectsBadInput(t *testing.T) {
	if _, err := cgmgraph.NewCC(3, [][2]int{{0, 3}}, 1); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := cgmgraph.NewCC(3, [][2]int{{1, 1}}, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := cgmgraph.NewCC(3, nil, 0); err == nil {
		t.Error("v=0 accepted")
	}
}

// randomTree builds a random tree on n vertices: vertex i attaches to
// a random earlier vertex.
func randomTree(r *prng.Rand, n int) [][2]int {
	var edges [][2]int
	for i := 1; i < n; i++ {
		p := r.Intn(i)
		if r.Bool() {
			edges = append(edges, [2]int{i, p})
		} else {
			edges = append(edges, [2]int{p, i})
		}
	}
	return edges
}

// treeReference computes parent/depth/size rooted at 0 sequentially.
func treeReference(n int, edges [][2]int) cgmgraph.TreeInfo {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	info := cgmgraph.TreeInfo{
		Parent: make([]int, n),
		Depth:  make([]int, n),
		Size:   make([]int, n),
	}
	for i := range info.Parent {
		info.Parent[i] = -1
	}
	var dfs func(u, par, depth int) int
	dfs = func(u, par, depth int) int {
		info.Parent[u] = par
		info.Depth[u] = depth
		size := 1
		for _, w := range adj[u] {
			if w != par {
				size += dfs(w, u, depth+1)
			}
		}
		info.Size[u] = size
		return size
	}
	dfs(0, -1, 0)
	info.Parent[0] = -1
	return info
}

func TestEulerTour(t *testing.T) {
	r := prng.New(23)
	for _, n := range []int{1, 2, 3, 10, 60} {
		for _, v := range []int{1, 2, 4} {
			edges := randomTree(r, n)
			p, err := cgmgraph.NewEulerTour(n, edges, v)
			if err != nil {
				t.Fatal(err)
			}
			res := algtest.RunAll(t, p, 71, func(vps []bsp.VP) []uint64 {
				info := p.Output(vps)
				var out []uint64
				for i := range info.Parent {
					out = append(out, uint64(int64(info.Parent[i])), uint64(int64(info.Depth[i])), uint64(info.Size[i]))
				}
				return out
			})
			got := p.Output(res.VPs)
			want := treeReference(n, edges)
			for i := 0; i < n; i++ {
				if got.Parent[i] != want.Parent[i] {
					t.Fatalf("n=%d v=%d: parent[%d] = %d, want %d", n, v, i, got.Parent[i], want.Parent[i])
				}
				if got.Depth[i] != want.Depth[i] {
					t.Fatalf("n=%d v=%d: depth[%d] = %d, want %d", n, v, i, got.Depth[i], want.Depth[i])
				}
				if got.Size[i] != want.Size[i] {
					t.Fatalf("n=%d v=%d: size[%d] = %d, want %d", n, v, i, got.Size[i], want.Size[i])
				}
			}
		}
	}
}

func TestEulerTourPositionsArePermutation(t *testing.T) {
	r := prng.New(29)
	n := 40
	edges := randomTree(r, n)
	p, err := cgmgraph.NewEulerTour(n, edges, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := algtest.RunRef(t, p, 73)
	pos := cgmgraph.TourPositions(res.VPs)
	if len(pos) != 2*(n-1) {
		t.Fatalf("%d positions, want %d", len(pos), 2*(n-1))
	}
	seen := make([]bool, len(pos))
	for _, q := range pos {
		if q < 0 || q >= len(pos) || seen[q] {
			t.Fatalf("positions are not a permutation: %v", pos)
		}
		seen[q] = true
	}
}

func TestEulerTourStarAndPath(t *testing.T) {
	// Star: all depths 1; path: depths 0..n-1.
	n := 12
	var star, path [][2]int
	for i := 1; i < n; i++ {
		star = append(star, [2]int{0, i})
		path = append(path, [2]int{i - 1, i})
	}
	for name, edges := range map[string][][2]int{"star": star, "path": path} {
		p, err := cgmgraph.NewEulerTour(n, edges, 3)
		if err != nil {
			t.Fatal(err)
		}
		res := algtest.RunRef(t, p, 79)
		got := p.Output(res.VPs)
		want := treeReference(n, edges)
		for i := 0; i < n; i++ {
			if got.Depth[i] != want.Depth[i] || got.Size[i] != want.Size[i] || got.Parent[i] != want.Parent[i] {
				t.Fatalf("%s: vertex %d: got (%d,%d,%d), want (%d,%d,%d)", name, i,
					got.Parent[i], got.Depth[i], got.Size[i],
					want.Parent[i], want.Depth[i], want.Size[i])
			}
		}
	}
}

func TestEulerTourRejectsBadInput(t *testing.T) {
	if _, err := cgmgraph.NewEulerTour(3, [][2]int{{0, 1}}, 1); err == nil {
		t.Error("wrong edge count accepted")
	}
	if _, err := cgmgraph.NewEulerTour(2, [][2]int{{0, 0}}, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := cgmgraph.NewEulerTour(0, nil, 1); err == nil {
		t.Error("n=0 accepted")
	}
}
