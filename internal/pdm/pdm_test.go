package pdm_test

import (
	"sort"
	"testing"
	"testing/quick"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/pdm"
	"embsp/internal/prng"
)

func newMachine(t *testing.T, m, d, b int) *pdm.Machine {
	t.Helper()
	mach, err := pdm.NewMachine(m, d, b)
	if err != nil {
		t.Fatal(err)
	}
	return mach
}

func randWords(r *prng.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

func TestFileRoundTrip(t *testing.T) {
	m := newMachine(t, 1024, 2, 16)
	r := prng.New(1)
	for _, n := range []int{0, 1, 15, 16, 17, 1000} {
		data := randWords(r, n)
		f, err := m.WriteFile(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("n=%d: word %d = %d, want %d", n, i, got[i], data[i])
			}
		}
		m.Free(f)
	}
}

func TestMergeSort(t *testing.T) {
	r := prng.New(2)
	for _, n := range []int{0, 1, 7, 100, 5000} {
		for _, w := range []int{1, 3} {
			m := newMachine(t, 2048, 4, 16)
			data := randWords(r, n*w)
			f, err := m.WriteFile(data)
			if err != nil {
				t.Fatal(err)
			}
			sorted, err := m.MergeSort(f, w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.ReadFile(sorted)
			if err != nil {
				t.Fatal(err)
			}
			want := append([]uint64(nil), data...)
			cgm.SortRecords(want, w)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d w=%d: word %d differs", n, w, i)
				}
			}
		}
	}
}

func TestMergeSortProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := prng.New(seed)
		n := r.Intn(3000)
		m, err := pdm.NewMachine(1024+r.Intn(4096), 1+r.Intn(4), 8+r.Intn(24))
		if err != nil {
			return true // invalid combo (M < 4DB); skip
		}
		data := randWords(r, n)
		file, err := m.WriteFile(data)
		if err != nil {
			return false
		}
		sorted, err := m.MergeSort(file, 1)
		if err != nil {
			return false
		}
		got, err := m.ReadFile(sorted)
		if err != nil {
			return false
		}
		want := append([]uint64(nil), data...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMergeSortIOShape(t *testing.T) {
	// I/O ops should scale near-linearly in n/DB for fixed memory
	// (one level of merging), and the utilization should be high.
	const d, b = 4, 64
	m := newMachine(t, 1<<14, d, b)
	n := 1 << 16
	data := randWords(prng.New(3), n)
	f, err := m.WriteFile(data)
	if err != nil {
		t.Fatal(err)
	}
	m.Arr.ResetStats()
	if _, err := m.MergeSort(f, 1); err != nil {
		t.Fatal(err)
	}
	s := m.Arr.Stats()
	passes := float64(s.Blocks()) / float64(2*n/b)
	if passes < 1.5 || passes > 8 {
		t.Errorf("merge sort made %.1f effective passes, want a small constant", passes)
	}
	if u := s.Utilization(); u < 0.5 {
		t.Errorf("drive utilization %.2f, want >= 0.5", u)
	}
}

func TestPermute(t *testing.T) {
	r := prng.New(5)
	for _, n := range []int{0, 1, 50, 700} {
		m := newMachine(t, 4096, 2, 16)
		data := randWords(r, n)
		targets := r.Perm(n)
		f, err := m.WriteFile(data)
		if err != nil {
			t.Fatal(err)
		}
		bySort, err := m.PermuteBySort(f, func(i int) int { return targets[i] })
		if err != nil {
			t.Fatal(err)
		}
		direct, err := m.PermuteDirect(f, func(i int) int { return targets[i] })
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, n)
		for i, tgt := range targets {
			want[tgt] = data[i]
		}
		for name, file := range map[string]pdm.File{"bySort": bySort, "direct": direct} {
			got, err := m.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d %s: word %d = %d, want %d", n, name, i, got[i], want[i])
				}
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	r := prng.New(7)
	for _, dims := range [][2]int{{1, 1}, {4, 8}, {16, 16}, {5, 13}} {
		rows, cols := dims[0], dims[1]
		m := newMachine(t, 4096, 2, 16)
		data := randWords(r, rows*cols)
		f, err := m.WriteFile(data)
		if err != nil {
			t.Fatal(err)
		}
		tf, err := m.Transpose(f, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.ReadFile(tf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if got[j*rows+i] != data[i*cols+j] {
					t.Fatalf("%dx%d: element (%d,%d) wrong", rows, cols, i, j)
				}
			}
		}
	}
}

func seqRank(succ []int) []uint64 {
	rank := make([]uint64, len(succ))
	done := make([]bool, len(succ))
	var solve func(i int) uint64
	solve = func(i int) uint64 {
		if done[i] {
			return rank[i]
		}
		done[i] = true
		if succ[i] >= 0 {
			rank[i] = 1 + solve(succ[i])
		}
		return rank[i]
	}
	for i := range succ {
		solve(i)
	}
	return rank
}

func TestPRAMListRank(t *testing.T) {
	r := prng.New(11)
	for _, n := range []int{0, 1, 2, 64, 500} {
		m := newMachine(t, 4096, 2, 16)
		perm := r.Perm(n)
		succ := make([]int, n)
		for i := range succ {
			succ[i] = -1
		}
		for i := 0; i+1 < n; i++ {
			succ[perm[i]] = perm[i+1]
		}
		got, err := m.PRAMListRank(succ)
		if err != nil {
			t.Fatal(err)
		}
		want := seqRank(succ)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: rank[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestSKSimMatchesReference(t *testing.T) {
	p := &bsptest.RandomProgram{V: 10, Steps: 3, MsgsPerStep: 3, MaxLen: 8}
	ref, err := bsp.Run(p, bsp.RunOptions{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pdm.SKSim(p, 2, 16, pdm.SKOptions{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	a := bsptest.Checksums(ref)
	bb := bsptest.Checksums(&bsp.Result{VPs: res.VPs})
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("VP %d: %x vs %x", i, a[i], bb[i])
		}
	}
	if res.Supersteps != ref.Costs.Supersteps {
		t.Errorf("λ = %d, want %d", res.Supersteps, ref.Costs.Supersteps)
	}
	if res.Disk.Ops <= 0 {
		t.Error("no I/O counted")
	}
	// The whole point: SKSim never uses more than one block per op.
	if u := res.Disk.Utilization(); u > 0.51 {
		t.Errorf("SKSim utilization %.2f, expected ~1/D", u)
	}
}

func TestSKSimRing(t *testing.T) {
	p := &bsptest.RingProgram{V: 7, Rounds: 5}
	res, err := pdm.SKSim(p, 1, 16, pdm.SKOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 7; id++ {
		want := bsptest.ExpectedRingAcc(7, 5, id)
		if got := bsptest.RingAcc(&bsp.Result{VPs: res.VPs}, id); got != want {
			t.Errorf("vp %d: %d, want %d", id, got, want)
		}
	}
}
