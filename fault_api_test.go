package embsp_test

// The issue's acceptance property over the public API: every Table 1
// workload, at small scale, run under a seeded transient-fault plan at
// P = 1 and P > 1, produces VP states bitwise identical to
// RunReference, while EMStats shows the recovery machinery actually
// worked (faults injected and paid for).

import (
	"fmt"
	"testing"

	"embsp"
	"embsp/internal/prng"
	"embsp/internal/words"
)

// table1Programs builds one small instance of each Table 1 workload.
func table1Programs(t *testing.T) map[string]embsp.Program {
	t.Helper()
	r := prng.New(99)
	const n = 48
	const v = 6

	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	vals := make([]uint64, n)
	perm := r.Perm(n)
	for i := range vals {
		vals[i] = uint64(i)
	}
	pts := make([]embsp.Point, n)
	for i := range pts {
		pts[i] = embsp.Point{X: r.Float64(), Y: r.Float64()}
	}
	pts3 := make([]embsp.Point3, n)
	for i := range pts3 {
		pts3[i] = embsp.Point3{X: r.Float64(), Y: r.Float64(), Z: r.Float64()}
	}
	rects := make([]embsp.Rect, n)
	for i := range rects {
		x, y := r.Float64(), r.Float64()
		rects[i] = embsp.Rect{X1: x, X2: x + r.Float64(), Y1: y, Y2: y + r.Float64()}
	}
	segs := make([]embsp.Segment, n)
	for i := range segs {
		x := 3 * float64(i)
		segs[i] = embsp.Segment{X1: x, Y1: r.Float64(), X2: x + 2, Y2: r.Float64()}
	}
	hsegs := make([]embsp.HSegment, n)
	for i := range hsegs {
		x := r.Float64()
		hsegs[i] = embsp.HSegment{X1: x, X2: x + 0.2, Y: r.Float64()}
	}
	succ := make([]int, n)
	lperm := r.Perm(n)
	for i := range succ {
		succ[i] = -1
	}
	for i := 0; i+1 < n; i++ {
		succ[lperm[i]] = lperm[i+1]
	}
	tree := make([][2]int, 0, n-1)
	for i := 1; i < n; i++ {
		tree = append(tree, [2]int{r.Intn(i), i})
	}
	graph := make([][2]int, 0, n)
	for len(graph) < n {
		a, b := r.Intn(n), r.Intn(n)
		if a != b {
			graph = append(graph, [2]int{a, b})
		}
	}

	progs := make(map[string]embsp.Program)
	add := func(name string, p embsp.Program, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs[name] = p
	}
	{
		p, err := embsp.NewSort(keys, 1, v)
		add("sort", p, err)
	}
	{
		p, err := embsp.NewPermute(vals, perm, v)
		add("permute", p, err)
	}
	{
		p, err := embsp.NewTranspose(keys, 6, 8, v)
		add("transpose", p, err)
	}
	{
		p, err := embsp.NewMaxima3D(pts3, v)
		add("maxima", p, err)
	}
	{
		p, err := embsp.NewDominance2D(pts, vals, v)
		add("dominance", p, err)
	}
	{
		p, err := embsp.NewRectUnion(rects, v)
		add("rectunion", p, err)
	}
	{
		p, err := embsp.NewHull2D(pts, v)
		add("hull", p, err)
	}
	{
		p, err := embsp.NewEnvelope(segs, v)
		add("envelope", p, err)
	}
	{
		p, err := embsp.NewNextElement(hsegs, pts, v)
		add("nextelement", p, err)
	}
	{
		p, err := embsp.NewNN2D(pts, v)
		add("nn", p, err)
	}
	{
		p, err := embsp.NewListRank(succ, nil, v)
		add("listrank", p, err)
	}
	{
		p, err := embsp.NewEulerTour(n, tree, v)
		add("euler", p, err)
	}
	{
		p, err := embsp.NewCC(n, graph, v)
		add("cc", p, err)
	}
	return progs
}

// vpImage marshals a VP's full context, the bitwise-identity witness.
func vpImage(vp embsp.VP) []uint64 {
	enc := words.NewEncoder(nil)
	vp.Save(enc)
	return append([]uint64(nil), enc.Words()...)
}

func TestFaultPropertyTable1(t *testing.T) {
	const seed = 17
	// The shortest rows (permute, transpose at P = 1) take a few dozen
	// operations, so whether 2% rates strike them at all is the plan
	// seed's luck, and the draws follow which drive a block goes to: 23
	// served until contexts moved to allocated tracks (PR 23).
	plan := &embsp.FaultPlan{
		Seed:           24,
		ReadErrorRate:  0.02,
		WriteErrorRate: 0.02,
		CorruptRate:    0.02,
	}
	for name, prog := range table1Programs(t) {
		t.Run(name, func(t *testing.T) {
			ref, err := embsp.RunReference(prog, seed)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]uint64, len(ref.VPs))
			for i, vp := range ref.VPs {
				want[i] = vpImage(vp)
			}
			for _, p := range []int{1, 2, 3} {
				cfg := embsp.MachineConfig{
					P: p, M: 4 * prog.MaxContextWords(), D: 3, B: 32, G: 100,
					Cost: embsp.CostParams{GUnit: 1, GPkt: 64, Pkt: 64, L: 10},
				}
				res, err := embsp.Run(prog, cfg, embsp.Options{Seed: seed, FaultPlan: plan})
				if err != nil {
					t.Fatalf("P=%d: %v", p, err)
				}
				for i, vp := range res.VPs {
					got := vpImage(vp)
					if fmt.Sprint(got) != fmt.Sprint(want[i]) {
						t.Fatalf("P=%d: VP %d context differs from reference under faults", p, i)
					}
				}
				em := res.EM
				if em.FaultsInjected == 0 {
					t.Errorf("P=%d: no faults injected at 2%% rates", p)
				}
				if em.RecoveryOps == 0 {
					t.Errorf("P=%d: faults injected but RecoveryOps=0", p)
				}
			}
		})
	}
}
