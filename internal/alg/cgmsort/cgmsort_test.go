package cgmsort_test

import (
	"sort"
	"testing"
	"testing/quick"

	"embsp/internal/alg/algtest"
	"embsp/internal/alg/cgm"
	"embsp/internal/alg/cgmsort"
	"embsp/internal/bsp"
	"embsp/internal/prng"
)

func randWords(r *prng.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

func TestSortMatchesStdlib(t *testing.T) {
	r := prng.New(1)
	for _, n := range []int{0, 1, 2, 17, 100, 257} {
		for _, v := range []int{1, 2, 4, 7} {
			data := randWords(r, n)
			p, err := cgmsort.NewSort(data, 1, v)
			if err != nil {
				t.Fatal(err)
			}
			res := algtest.RunAll(t, p, 5, func(vps []bsp.VP) []uint64 { return p.Output(vps) })
			got := p.Output(res.VPs)
			want := append([]uint64(nil), data...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d v=%d: word %d = %d, want %d", n, v, i, got[i], want[i])
				}
			}
			if res.Costs.Supersteps != cgm.SorterSupersteps {
				t.Errorf("n=%d v=%d: λ = %d, want %d", n, v, res.Costs.Supersteps, cgm.SorterSupersteps)
			}
		}
	}
}

func TestSortWideRecords(t *testing.T) {
	// 3-word records: sort by (key, tiebreak, payload) lexicographic.
	r := prng.New(3)
	const n, w, v = 120, 3, 5
	data := make([]uint64, n*w)
	for i := 0; i < n; i++ {
		data[i*w] = uint64(r.Intn(16)) // many duplicate keys
		data[i*w+1] = uint64(i)        // tiebreak
		data[i*w+2] = r.Uint64()       // payload
	}
	p, err := cgmsort.NewSort(data, w, v)
	if err != nil {
		t.Fatal(err)
	}
	res := algtest.RunAll(t, p, 7, func(vps []bsp.VP) []uint64 { return p.Output(vps) })
	got := p.Output(res.VPs)
	if !cgm.RecordsSorted(got, w) {
		t.Fatal("output not sorted")
	}
	// Same multiset: compare against a locally sorted copy.
	want := append([]uint64(nil), data...)
	cgm.SortRecords(want, w)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// partSizes is the number of w-word records each VP holds after the
// sort — the PSRS balance observable.
func partSizes(p *cgmsort.SortProgram, vps []bsp.VP, w int) []int {
	out := make([]int, len(vps))
	for i := range vps {
		out[i] = len(p.Output(vps[i:i+1])) / w
	}
	return out
}

func TestSortBalance(t *testing.T) {
	// PSRS with distinct records: no VP ends with more than ~2·⌈n/v⌉
	// records.
	r := prng.New(9)
	const n, v = 4000, 8
	data := make([]uint64, 2*n)
	for i := 0; i < n; i++ {
		data[2*i] = r.Uint64()
		data[2*i+1] = uint64(i)
	}
	p, err := cgmsort.NewSort(data, 2, v)
	if err != nil {
		t.Fatal(err)
	}
	res := algtest.RunRef(t, p, 2)
	limit := 2*cgm.MaxPart(n, v) + v
	for id, sz := range partSizes(p, res.VPs, 2) {
		if sz > limit {
			t.Errorf("VP %d holds %d records, exceeding PSRS bound %d", id, sz, limit)
		}
	}
}

func TestSortProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := prng.New(seed)
		n := r.Intn(200)
		v := r.Intn(8) + 1
		data := randWords(r, n)
		p, err := cgmsort.NewSort(data, 1, v)
		if err != nil {
			return false
		}
		res, err := bsp.Run(p, bsp.RunOptions{Seed: seed, ValidateContexts: true})
		if err != nil {
			return false
		}
		got := p.Output(res.VPs)
		want := append([]uint64(nil), data...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSortAdversarialInputs(t *testing.T) {
	const n, v = 600, 6
	cases := map[string]func(i int) uint64{
		"sorted":   func(i int) uint64 { return uint64(i) },
		"reversed": func(i int) uint64 { return uint64(n - i) },
		"allEqual": func(i int) uint64 { return 42 },
		"sawtooth": func(i int) uint64 { return uint64(i % 7) },
		"twoVals":  func(i int) uint64 { return uint64(i & 1) },
	}
	for name, gen := range cases {
		t.Run(name, func(t *testing.T) {
			data := make([]uint64, n)
			for i := range data {
				data[i] = gen(i)
			}
			p, err := cgmsort.NewSort(data, 1, v)
			if err != nil {
				t.Fatal(err)
			}
			res := algtest.RunAll(t, p, 3, func(vps []bsp.VP) []uint64 { return p.Output(vps) })
			got := p.Output(res.VPs)
			want := append([]uint64(nil), data...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("word %d = %d, want %d", i, got[i], want[i])
				}
			}
			// The tie-break by place guarantees the PSRS balance even
			// for duplicate-heavy inputs.
			limit := 2*cgm.MaxPart(n, v) + v
			for id, sz := range partSizes(p, res.VPs, 1) {
				if sz > limit {
					t.Errorf("VP %d holds %d records, exceeding PSRS bound %d", id, sz, limit)
				}
			}
		})
	}
}

func TestSortRejectsBadInput(t *testing.T) {
	if _, err := cgmsort.NewSort(make([]uint64, 5), 2, 2); err == nil {
		t.Error("odd data length accepted for width 2")
	}
	if _, err := cgmsort.NewSort(nil, 0, 2); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := cgmsort.NewSort(nil, 1, 0); err == nil {
		t.Error("v=0 accepted")
	}
	// A tie-break tag holds the VP id in 32 bits.
	if _, err := cgmsort.NewSort(nil, 1, 1<<32+1); err == nil {
		t.Error("v=2³²+1 accepted")
	}
}

func TestPermute(t *testing.T) {
	r := prng.New(4)
	for _, n := range []int{0, 1, 13, 100} {
		for _, v := range []int{1, 3, 6} {
			vals := randWords(r, n)
			targets := r.Perm(n)
			p, err := cgmsort.NewPermute(vals, targets, v)
			if err != nil {
				t.Fatal(err)
			}
			res := algtest.RunAll(t, p, 11, func(vps []bsp.VP) []uint64 { return p.Output(vps) })
			got := p.Output(res.VPs)
			want := make([]uint64, n)
			for i, tgt := range targets {
				want[tgt] = vals[i]
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d v=%d: out[%d] = %d, want %d", n, v, i, got[i], want[i])
				}
			}
			if res.Costs.Supersteps != 2 {
				t.Errorf("n=%d v=%d: λ = %d, want 2", n, v, res.Costs.Supersteps)
			}
		}
	}
}

func TestPermuteRejectsNonPermutation(t *testing.T) {
	if _, err := cgmsort.NewPermute([]uint64{1, 2}, []int{0, 0}, 1); err == nil {
		t.Error("duplicate targets accepted")
	}
	if _, err := cgmsort.NewPermute([]uint64{1, 2}, []int{0, 2}, 1); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := cgmsort.NewPermute([]uint64{1, 2}, []int{0}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestTranspose(t *testing.T) {
	r := prng.New(8)
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {8, 8}, {16, 4}} {
		rows, cols := dims[0], dims[1]
		m := randWords(r, rows*cols)
		p, err := cgmsort.NewTranspose(m, rows, cols, 4)
		if err != nil {
			t.Fatal(err)
		}
		res := algtest.RunAll(t, p, 13, func(vps []bsp.VP) []uint64 { return p.Output(vps) })
		got := p.Output(res.VPs)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if got[j*rows+i] != m[i*cols+j] {
					t.Fatalf("%dx%d: transposed[%d][%d] = %d, want %d", rows, cols, j, i, got[j*rows+i], m[i*cols+j])
				}
			}
		}
	}
}

func TestTransposeRejectsBadShape(t *testing.T) {
	if _, err := cgmsort.NewTranspose(make([]uint64, 5), 2, 3, 1); err == nil {
		t.Error("wrong element count accepted")
	}
}
