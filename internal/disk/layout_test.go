package disk

import (
	"slices"
	"testing"
	"testing/quick"

	"embsp/internal/prng"
)

func TestAreaStriping(t *testing.T) {
	a := newTest(t, 3, 2)
	ar := a.Reserve(7)
	if ar.Blocks() != 7 {
		t.Fatalf("Blocks = %d, want 7", ar.Blocks())
	}
	// Block i lives on drive i mod D with consecutive tracks per drive.
	perDriveTracks := make(map[int][]int)
	for i := 0; i < 7; i++ {
		ad := ar.Addr(i)
		if ad.Disk != i%3 {
			t.Errorf("block %d on drive %d, want %d", i, ad.Disk, i%3)
		}
		perDriveTracks[ad.Disk] = append(perDriveTracks[ad.Disk], ad.Track)
	}
	for d, tracks := range perDriveTracks {
		for i := 1; i < len(tracks); i++ {
			if tracks[i] != tracks[i-1]+1 {
				t.Errorf("drive %d tracks not consecutive: %v", d, tracks)
			}
		}
	}
	// Per-drive block counts differ by at most one (Definition 2).
	minC, maxC := 7, 0
	for d := 0; d < 3; d++ {
		c := len(perDriveTracks[d])
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC-minC > 1 {
		t.Errorf("per-drive block counts differ by %d > 1", maxC-minC)
	}
}

// TestReserveTakesOccupiedTracksOnly: the drive at offset a = (d − rot)
// mod D of an n-block area holds blocks a, a+D, …, so ⌈(n − a)/D⌉ tracks
// and none when a ≥ n. Areas shorter than D, empty areas and their
// slices address only tracks that were reserved, and the next area or
// Alloc starts right behind them.
func TestReserveTakesOccupiedTracksOnly(t *testing.T) {
	f := func(seed uint64) bool {
		r := prng.New(seed)
		D := r.Intn(6) + 1
		a := MustNewArray(Config{D: D, B: 4})
		for round := 0; round < 4; round++ {
			n, rot := r.Intn(2*D+2), r.Intn(D)
			if round == 0 {
				n = r.Intn(D) // n < D, n = 0 included
			}
			before := a.State().Next
			ar := a.ReserveRot(n, rot)
			after := a.State().Next
			held := make([]int, D)
			for i := 0; i < n; i++ {
				ad := ar.Addr(i)
				if ad.Disk != (rot+i)%D || ad.Track != before[ad.Disk]+i/D {
					t.Logf("seed %d: block %d of a %d-block area at rotation %d (D=%d) is at %v", seed, i, n, rot, D, ad)
					return false
				}
				held[ad.Disk]++
			}
			for d := range held {
				if off := (d - rot + D) % D; after[d]-before[d] != held[d] || held[d] != max(0, n-off+D-1)/D {
					t.Logf("seed %d: drive %d gave %d tracks to %d blocks of a %d-block area at rotation %d (D=%d)", seed, d, after[d]-before[d], held[d], n, rot, D)
					return false
				}
			}
			if n > 0 {
				off := r.Intn(n)
				sl := Slice(ar, off, r.Intn(n-off)+1)
				for i := 0; i < sl.Blocks(); i++ {
					if sl.Addr(i) != ar.Addr(off+i) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Three blocks on eight drives took a track on all eight.
	a := MustNewArray(Config{D: 8, B: 4})
	a.ReserveRot(3, 6)
	if got, want := a.State().Next, []int{1, 0, 0, 0, 0, 0, 1, 1}; !slices.Equal(got, want) {
		t.Errorf("tracks in use after 3 blocks at rotation 6 on 8 drives: %v, want %v", got, want)
	}
}

func TestTwoAreasDisjoint(t *testing.T) {
	a := newTest(t, 2, 2)
	ar1 := a.Reserve(5)
	ar2 := a.Reserve(5)
	used := make(map[Addr]bool)
	for i := 0; i < 5; i++ {
		used[ar1.Addr(i)] = true
	}
	for i := 0; i < 5; i++ {
		if used[ar2.Addr(i)] {
			t.Fatalf("areas overlap at %v", ar2.Addr(i))
		}
	}
}

func TestReadWriteRange(t *testing.T) {
	a := newTest(t, 3, 4)
	ar := a.Reserve(10)
	src := make([]uint64, 10*4)
	for i := range src {
		src[i] = uint64(i * 3)
	}
	if err := a.WriteRange(ar, 0, 10, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 10*4)
	if err := a.ReadRange(ar, 0, 10, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("word %d: got %d, want %d", i, dst[i], src[i])
		}
	}
	// Partial range.
	part := make([]uint64, 3*4)
	if err := a.ReadRange(ar, 4, 7, part); err != nil {
		t.Fatal(err)
	}
	for i := range part {
		if part[i] != src[4*4+i] {
			t.Fatalf("partial word %d: got %d, want %d", i, part[i], src[4*4+i])
		}
	}
}

func TestRangeOpCounts(t *testing.T) {
	a := newTest(t, 4, 2)
	ar := a.Reserve(10)
	buf := make([]uint64, 10*2)
	if err := a.WriteRange(ar, 0, 10, buf); err != nil {
		t.Fatal(err)
	}
	// 10 blocks over 4 drives => ceil(10/4) = 3 parallel write ops.
	if s := a.Stats(); s.WriteOps != 3 {
		t.Errorf("WriteOps = %d, want 3", s.WriteOps)
	}
	a.ResetStats()
	if err := a.ReadRange(ar, 0, 10, buf); err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.ReadOps != 3 {
		t.Errorf("ReadOps = %d, want 3", s.ReadOps)
	}
}

func TestRangeValidation(t *testing.T) {
	a := newTest(t, 2, 2)
	ar := a.Reserve(4)
	if err := a.ReadRange(ar, 0, 5, make([]uint64, 10)); err == nil {
		t.Error("out-of-range read accepted")
	}
	if err := a.ReadRange(ar, 0, 2, make([]uint64, 3)); err == nil {
		t.Error("wrong buffer size accepted")
	}
	if err := a.WriteRange(ar, 3, 2, nil); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestRangeRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := prng.New(seed)
		d := r.Intn(5) + 1
		b := r.Intn(6) + 1
		n := r.Intn(30) + 1
		a := MustNewArray(Config{D: d, B: b})
		ar := a.Reserve(n)
		src := make([]uint64, n*b)
		for i := range src {
			src[i] = r.Uint64()
		}
		if err := a.WriteRange(ar, 0, n, src); err != nil {
			return false
		}
		lo := r.Intn(n)
		hi := lo + r.Intn(n-lo) + 1
		if hi > n {
			hi = n
		}
		dst := make([]uint64, (hi-lo)*b)
		if err := a.ReadRange(ar, lo, hi, dst); err != nil {
			return false
		}
		for i := range dst {
			if dst[i] != src[lo*b+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSliceAddressesMatchParent(t *testing.T) {
	f := func(seed uint64) bool {
		r := prng.New(seed)
		d := r.Intn(6) + 1
		a := MustNewArray(Config{D: d, B: 4})
		n := r.Intn(50) + 1
		rot := r.Intn(d)
		ar := a.ReserveRot(n, rot)
		off := r.Intn(n)
		cnt := r.Intn(n-off) + 1
		if off+cnt > n {
			cnt = n - off
		}
		sl := Slice(ar, off, cnt)
		if sl.Blocks() != cnt {
			return false
		}
		for i := 0; i < cnt; i++ {
			if sl.Addr(i) != ar.Addr(off+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSliceRejectsBadRange(t *testing.T) {
	a := newTest(t, 2, 2)
	ar := a.Reserve(4)
	for _, c := range [][2]int{{-1, 2}, {0, 5}, {3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d,%d) did not panic", c[0], c[1])
				}
			}()
			Slice(ar, c[0], c[1])
		}()
	}
}

func TestTracksHighWaterMark(t *testing.T) {
	a := newTest(t, 2, 2)
	a.Reserve(6) // 3 tracks per drive
	_ = a.Alloc(0)
	if got := a.Tracks(0); got != 4 {
		t.Errorf("Tracks(0) = %d, want 4", got)
	}
	if got := a.Tracks(1); got != 3 {
		t.Errorf("Tracks(1) = %d, want 3", got)
	}
}

// TestArrayAreas: areas in standard consecutive format are the Array's
// alone (the Figure 2 demo and the PDM baselines lay files out on one).
// Full-width and ragged operations over an area, its reserved and
// never-written slots blank, and an area shorter than D, or empty, taking
// the tracks its blocks occupy and no others, whatever its rotation.
func TestArrayAreas(t *testing.T) {
	const D, B = 3, 8
	blank := func(a *Array, ad Addr) bool {
		buf := make([]uint64, B)
		if err := a.ReadOp([]ReadReq{{Disk: ad.Disk, Track: ad.Track, Dst: buf}}); err != nil {
			t.Fatal(err)
		}
		return !slices.ContainsFunc(buf, func(w uint64) bool { return w != 0 })
	}
	t.Run("areas-blank-recycled", func(t *testing.T) {
		a := MustNewArray(Config{D: D, B: B})
		ar := a.ReserveRot(2*D+1, 1) // ragged: one drive gets a third track
		src := make([]uint64, 2*D*B)
		for i := range src {
			src[i] = uint64(i) | 1
		}
		if err := a.WriteRange(ar, 0, 2*D, src); err != nil {
			t.Fatal(err)
		}
		if s := a.Stats(); s.WriteOps != 2 || s.BlocksWritten != 2*D {
			t.Errorf("writing %d blocks of a %d-drive area took %d operations for %d blocks, want 2 full-width ones", 2*D, D, s.WriteOps, s.BlocksWritten)
		}
		got := make([]uint64, 2*B)
		if err := a.ReadRange(ar, D-1, D+1, got); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, src[(D-1)*B:(D+1)*B]) {
			t.Errorf("ragged read of blocks %d and %d: %v", D-1, D, got)
		}
		if !blank(a, ar.Addr(2*D)) {
			t.Error("reserved, never-written slot does not read zeros")
		}
		if err := a.FreeArea(ar); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ar.Blocks(); i++ {
			if !blank(a, ar.Addr(i)) {
				t.Errorf("block %d of a freed area does not read zeros", i)
			}
		}
		if tr := a.Alloc(ar.Addr(0).Disk); !blank(a, Addr{ar.Addr(0).Disk, tr}) {
			t.Errorf("a track of the freed area, allocated again, does not read zeros")
		}
	})
	t.Run("short-areas", func(t *testing.T) {
		a := MustNewArray(Config{D: D, B: B})
		before := a.State()
		a.ReserveRot(0, 1)
		if after := a.State(); !slices.Equal(after.Next, before.Next) {
			t.Errorf("an empty area moved the allocator: %v → %v", before.Next, after.Next)
		}
		ar := a.ReserveRot(D-1, 1) // drives 1 and 2; drive 0 is at offset D−1
		if got, want := a.State().Next, []int{0, 1, 1}; !slices.Equal(got, want) {
			t.Errorf("tracks in use after a %d-block area at rotation 1: %v, want %v", D-1, got, want)
		}
		long := a.ReserveRot(D+1, 2) // drive 2 holds blocks 0 and D
		if got, want := a.State().Next, []int{1, 2, 3}; !slices.Equal(got, want) {
			t.Errorf("tracks in use after a further %d-block area at rotation 2: %v, want %v", D+1, got, want)
		}
		if got := a.Alloc(0); got != 1 {
			t.Errorf("Alloc on the drive both areas left short = %d, want 1", got)
		}
		for _, x := range []Area{ar, long} {
			if err := a.FreeArea(x); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := a.State().Free, [][]int{{0}, {0, 1}, {0, 1, 2}}; !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("free lists after freeing both areas: %v, want %v", got, want)
		}
	})
}

// Tracks returns the bump-allocator high-water mark of drive d: the
// number of tracks ever allocated on it (peak disk space in blocks).
func (a *Array) Tracks(d int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.drives[d].next
}
