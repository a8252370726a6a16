package disk

import (
	"testing"
	"testing/quick"

	"embsp/internal/prng"
)

func newTest(t *testing.T, d, b int) *Array {
	t.Helper()
	a, err := NewArray(Config{D: d, B: b})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{D: 1, B: 1}, true},
		{Config{D: 4, B: 64}, true},
		{Config{D: 0, B: 64}, false},
		{Config{D: 4, B: 0}, false},
		{Config{D: -1, B: 8}, false},
		{Config{D: 2, B: -8}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) err=%v, want ok=%v", c.cfg, err, c.ok)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	a := newTest(t, 2, 4)
	a.Reserve(8) // tracks 0..3 of both drives: unallocated tracks read blank
	src := []uint64{1, 2, 3, 4}
	if err := a.WriteOp([]WriteReq{{Disk: 1, Track: 3, Src: src}}); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 4)
	if err := a.ReadOp([]ReadReq{{Disk: 1, Track: 3, Dst: dst}}); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("dst = %v, want %v", dst, src)
		}
	}
}

func TestUnwrittenTrackReadsZero(t *testing.T) {
	a := newTest(t, 1, 3)
	dst := []uint64{7, 7, 7}
	if err := a.ReadOp([]ReadReq{{Disk: 0, Track: 100, Dst: dst}}); err != nil {
		t.Fatal(err)
	}
	for _, v := range dst {
		if v != 0 {
			t.Fatalf("blank track read %v, want zeros", dst)
		}
	}
}

func TestOneTrackPerDriveEnforced(t *testing.T) {
	a := newTest(t, 2, 2)
	buf := make([]uint64, 2)
	err := a.ReadOp([]ReadReq{
		{Disk: 0, Track: 0, Dst: buf},
		{Disk: 0, Track: 1, Dst: make([]uint64, 2)},
	})
	if err == nil {
		t.Error("two tracks on one drive in a single op: want error")
	}
	err = a.WriteOp([]WriteReq{
		{Disk: 1, Track: 0, Src: buf},
		{Disk: 1, Track: 5, Src: buf},
	})
	if err == nil {
		t.Error("two writes to one drive in a single op: want error")
	}
}

func TestBadAddressesRejected(t *testing.T) {
	a := newTest(t, 2, 2)
	buf := make([]uint64, 2)
	if err := a.ReadOp([]ReadReq{{Disk: 2, Track: 0, Dst: buf}}); err == nil {
		t.Error("drive out of range accepted")
	}
	if err := a.ReadOp([]ReadReq{{Disk: 0, Track: -1, Dst: buf}}); err == nil {
		t.Error("negative track accepted")
	}
	if err := a.ReadOp([]ReadReq{{Disk: 0, Track: 0, Dst: make([]uint64, 3)}}); err == nil {
		t.Error("wrong buffer size accepted")
	}
}

func TestOpCounting(t *testing.T) {
	a := newTest(t, 4, 2)
	buf := make([]uint64, 2)
	// One op with 4 blocks, one op with 1 block.
	var reqs []WriteReq
	for d := 0; d < 4; d++ {
		reqs = append(reqs, WriteReq{Disk: d, Track: 0, Src: buf})
	}
	if err := a.WriteOp(reqs); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteOp(reqs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := a.ReadOp([]ReadReq{{Disk: 2, Track: 0, Dst: buf}}); err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.Ops != 3 || s.WriteOps != 2 || s.ReadOps != 1 {
		t.Errorf("Ops=%d WriteOps=%d ReadOps=%d, want 3/2/1", s.Ops, s.WriteOps, s.ReadOps)
	}
	if s.BlocksWritten != 5 || s.BlocksRead != 1 {
		t.Errorf("BlocksWritten=%d BlocksRead=%d, want 5/1", s.BlocksWritten, s.BlocksRead)
	}
	if got := s.Utilization(); got != 0.5 {
		t.Errorf("Utilization = %v, want 0.5 (6 blocks / 3 ops / 4 drives)", got)
	}
}

func TestEmptyOpIsFree(t *testing.T) {
	a := newTest(t, 2, 2)
	if err := a.ReadOp(nil); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteOp(nil); err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.Ops != 0 {
		t.Errorf("empty ops counted: Ops = %d", s.Ops)
	}
}

func TestSeqVsRandomAccounting(t *testing.T) {
	a := newTest(t, 1, 1)
	buf := []uint64{0}
	for _, track := range []int{0, 1, 2, 9, 10, 3} {
		if err := a.WriteOp([]WriteReq{{Disk: 0, Track: track, Src: buf}}); err != nil {
			t.Fatal(err)
		}
	}
	// Head starts before track 0, so 0,1,2 are sequential; 9 random;
	// 10 sequential; 3 random.
	pd := a.Stats().PerDrive[0]
	if pd.SeqAccesses != 4 || pd.RandAccesses != 2 {
		t.Errorf("Seq=%d Rand=%d, want 4/2", pd.SeqAccesses, pd.RandAccesses)
	}
}

func TestAllocReleaseReuse(t *testing.T) {
	a := newTest(t, 2, 2)
	t0 := a.Alloc(0)
	t1 := a.Alloc(0)
	if t0 == t1 {
		t.Fatalf("Alloc returned %d twice", t0)
	}
	// Write then release: data must not survive into a reuse.
	if err := a.WriteOp([]WriteReq{{Disk: 0, Track: t0, Src: []uint64{9, 9}}}); err != nil {
		t.Fatal(err)
	}
	a.Release(0, t0)
	t2 := a.Alloc(0)
	if t2 != t0 {
		t.Fatalf("Alloc after Release = %d, want reused %d", t2, t0)
	}
	dst := make([]uint64, 2)
	if err := a.ReadOp([]ReadReq{{Disk: 0, Track: t2, Dst: dst}}); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0 || dst[1] != 0 {
		t.Errorf("released track retained data: %v", dst)
	}
}

func TestResetStats(t *testing.T) {
	a := newTest(t, 2, 2)
	buf := make([]uint64, 2)
	if err := a.WriteOp([]WriteReq{{Disk: 0, Track: 0, Src: buf}}); err != nil {
		t.Fatal(err)
	}
	a.ResetStats()
	s := a.Stats()
	if s.Ops != 0 || s.BlocksWritten != 0 || len(s.PerDrive) != 2 {
		t.Errorf("ResetStats left %+v", s)
	}
	// Data survives the reset.
	if err := a.ReadOp([]ReadReq{{Disk: 0, Track: 0, Dst: buf}}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAdd(t *testing.T) {
	a := newTest(t, 2, 2)
	buf := make([]uint64, 2)
	_ = a.WriteOp([]WriteReq{{Disk: 0, Track: 0, Src: buf}})
	_ = a.ReadOp([]ReadReq{{Disk: 1, Track: 0, Dst: buf}})
	var total Stats
	total.Add(a.Stats())
	total.Add(a.Stats())
	if total.Ops != 4 || total.BlocksRead != 2 || total.BlocksWritten != 2 {
		t.Errorf("Add gave %+v", total)
	}
	if total.PerDrive[0].BlocksWritten != 2 || total.PerDrive[1].BlocksRead != 2 {
		t.Errorf("per-drive Add gave %+v", total.PerDrive)
	}
}

func TestReadWriteRoundTripProperty(t *testing.T) {
	// Random write/read sequences against a map-based oracle.
	f := func(seed uint64) bool {
		r := prng.New(seed)
		d := r.Intn(4) + 1
		b := r.Intn(8) + 1
		a := MustNewArray(Config{D: d, B: b})
		a.Reserve(20 * d) // every track the script touches is allocated
		oracle := make(map[Addr][]uint64)
		for op := 0; op < 50; op++ {
			disk := r.Intn(d)
			track := r.Intn(20)
			if r.Bool() {
				src := make([]uint64, b)
				for i := range src {
					src[i] = r.Uint64()
				}
				if err := a.WriteOp([]WriteReq{{Disk: disk, Track: track, Src: src}}); err != nil {
					return false
				}
				oracle[Addr{disk, track}] = src
			} else {
				dst := make([]uint64, b)
				if err := a.ReadOp([]ReadReq{{Disk: disk, Track: track, Dst: dst}}); err != nil {
					return false
				}
				want := oracle[Addr{disk, track}]
				for i := range dst {
					w := uint64(0)
					if want != nil {
						w = want[i]
					}
					if dst[i] != w {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUtilizationEmptyIsZero(t *testing.T) {
	var s Stats
	if got := s.Utilization(); got != 0 {
		t.Errorf("zero-value Stats Utilization = %v, want 0", got)
	}
	s = Stats{Ops: 3}
	if got := s.Utilization(); got != 0 {
		t.Errorf("Stats without PerDrive Utilization = %v, want 0", got)
	}
}

func TestStatsAddMismatchPanics(t *testing.T) {
	a2 := newTest(t, 2, 2)
	a3 := newTest(t, 3, 2)
	defer func() {
		if recover() == nil {
			t.Error("Stats.Add of mismatched drive counts did not panic")
		}
	}()
	s := a2.Stats()
	s.Add(a3.Stats())
}
