package core_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/core"
)

// TestSteadyStateAllocs is the countable allocation gate (ROADMAP 1(a)):
// once the superstep loop is warm, a superstep of a program whose VPs
// allocate nothing may allocate only what scales with the messages
// themselves — directory entries, reassembled payloads, per-VP
// environments — and none of the buffers whose size the shape fixes.
// The per-superstep figure is the difference of two runs that differ
// only in their number of supersteps, so set-up and warm-up cancel and
// the result does not depend on timing.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const (
		v, fan, ctxWords = 64, 4, 512
		short, long      = 4, 12
		// A superstep here moves 256 message blocks of 2 KiB. With a
		// buffer made per batch, block and track the loop allocated
		// 2.4 MB (P=1) and 4.4 MB (P=2) per superstep; owning them
		// leaves about 170 KB and 215 KB of directory, allocator and
		// message metadata.
		ceiling = 384 << 10
	)
	for _, P := range []int{1, 2} {
		cfg := core.MachineConfig{
			P: P, M: 8 * ctxWords, D: 4, B: 256, G: 1,
			Cost: bsp.CostParams{GUnit: 1, GPkt: 1, Pkt: 256, L: 1},
		}
		run := func(rounds int) (bytes, mallocs uint64) {
			prog := bsptest.NewStaticProgram(v, rounds, fan, ctxWords)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res, err := core.Run(prog, cfg, core.Options{Seed: 1})
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatalf("P=%d: %v", P, err)
			}
			for id, vp := range res.VPs {
				want := uint64(0)
				for f := 1; f <= fan; f++ {
					want += uint64(rounds * ((id - f + v) % v))
				}
				if got := bsptest.StaticAcc(vp); got != want {
					t.Fatalf("P=%d rounds=%d VP %d: acc = %d, want %d", P, rounds, id, got, want)
				}
			}
			return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
		}
		b0, n0 := run(short)
		b1, n1 := run(long)
		perStep, objs := (b1-b0)/(long-short), (n1-n0)/(long-short)
		t.Logf("P=%d: %d bytes and %d objects per superstep", P, perStep, objs)
		if perStep > ceiling {
			t.Errorf("P=%d: %d bytes allocated per steady-state superstep, want at most %d", P, perStep, ceiling)
		}
	}
}
