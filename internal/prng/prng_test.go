package prng

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 1 and 2 collide on %d/100 outputs", same)
	}
}

func TestDeriveDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for vp := uint64(0); vp < 64; vp++ {
		for step := uint64(0); step < 16; step++ {
			k := Derive(99, vp, step)
			if seen[k] {
				t.Fatalf("Derive collision at vp=%d step=%d", vp, step)
			}
			seen[k] = true
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(42)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := trials / n
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d has %d hits, want about %d", i, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(3)
	f := func(n uint8) bool {
		m := int(n%64) + 1
		p := r.Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	a, b := New(5), New(5)
	p := a.Perm(33)
	q := make([]int, 33)
	b.PermInto(q)
	for i := range p {
		if p[i] != q[i] {
			t.Fatalf("Perm and PermInto disagree at %d: %d vs %d", i, p[i], q[i])
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(11)
	const n, trials = 8, 80000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := trials / n
	for i, c := range counts {
		if c < want*85/100 || c > want*115/100 {
			t.Errorf("P[perm[0]=%d] off: %d hits, want about %d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

// TestBackoffDelaySchedule pins the first eight delays for two seeds:
// the job supervisor's retries run on this schedule, and a run replayed
// from a seed must wait exactly as long as the first time.
func TestBackoffDelaySchedule(t *testing.T) {
	for seed, want := range map[uint64][8]time.Duration{
		1:  {42902656, 100454512, 158693806, 354339482, 783519272, 1893564753, 1881564491, 1920448614},
		42: {56062756, 106856817, 191505996, 498744181, 991964659, 1594078619, 1633874883, 2304477184},
	} {
		for i, w := range want {
			if got := BackoffDelay(seed, i+1); got != w {
				t.Errorf("BackoffDelay(%d, %d) = %d, want %d", seed, i+1, got, w)
			}
		}
	}
}
