package redundancy

import (
	"slices"
	"testing"

	"embsp/internal/disk"
)

// TestParityOpsAllocateNothing: the layer's directories, schedules,
// request lists, stripes and parity buffers are its own and reused, so
// once a Store has served a superstep — rows of parallel writes that
// open and fill stripes, reads of them, every track released, and the
// barrier's flush that writes the last parity and drops the stripes —
// the next such superstep allocates nothing. The free list holds no
// more parity buffers than the cache ever did.
func TestParityOpsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	const D, B, rows = 4, 64, 5
	s, raw := mkStore(t, D, B)
	bufs := make([][]uint64, rows*D)
	for i := range bufs {
		bufs[i] = make([]uint64, B)
	}
	addrs := make([]disk.Addr, rows*D)
	writes := make([]disk.WriteReq, D)
	reads := make([]disk.ReadReq, D)
	want := make([]uint64, B)
	superstep := func() {
		for r := 0; r < rows; r++ {
			for d := 0; d < D; d++ {
				i := r*D + d
				addrs[i] = disk.Addr{Disk: d, Track: s.Alloc(d)}
				pattern(bufs[i], d, addrs[i].Track)
				writes[d] = disk.WriteReq{Disk: d, Track: addrs[i].Track, Src: bufs[i]}
			}
			if err := s.WriteOp(writes); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < rows; r++ {
			for d := 0; d < D; d++ {
				i := r*D + d
				clear(bufs[i])
				reads[d] = disk.ReadReq{Disk: d, Track: addrs[i].Track, Dst: bufs[i]}
			}
			if err := s.ReadOp(reads); err != nil {
				t.Fatal(err)
			}
			for d := 0; d < D; d++ {
				i := r*D + d
				if pattern(want, d, addrs[i].Track); !slices.Equal(bufs[i], want) {
					t.Fatalf("drive %d track %d reads back wrong", d, addrs[i].Track)
				}
			}
		}
		for _, a := range addrs {
			if err := s.Release(a.Disk, a.Track); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.FlushParity(); err != nil {
			t.Fatal(err)
		}
	}
	superstep()
	before := raw.Stats().Ops
	if n := testing.AllocsPerRun(20, superstep); n != 0 {
		t.Errorf("a warm superstep of %d parallel writes and %d reads allocated %v objects, want none", rows, rows, n)
	}
	checkInvariants(t, s)
	if c := s.Counters(); c.ParityBlocks != 0 || c.StripedBlocks != 0 {
		t.Errorf("after the last barrier: %+v, want no stripe left", c)
	}
	if ops := raw.Stats().Ops - before; ops == 0 {
		t.Fatal("the supersteps charged no operation")
	}
	if len(s.free) > s.CachePeak() {
		t.Errorf("the free list holds %d parity buffers, the cache never held more than %d", len(s.free), s.CachePeak())
	}
}
