package core

import (
	"testing"

	"embsp/internal/disk"
	"embsp/internal/mem"
	"embsp/internal/prng"
)

// handDirectory builds a directory from its counts alone: per batch and
// drive, how many blocks lie there.
func handDirectory(counts [][]int) *outDirectory {
	dir := newOutDirectory(len(counts), len(counts[0]))
	for g, perDrive := range counts {
		for d, n := range perDrive {
			dir.q[g][d] = make([]blockRef, n)
			dir.total += n
		}
	}
	return dir
}

// TestRouteRule holds the rule to its definition on directories built by
// hand: scattered is the sum over batches of the fullest drive's share,
// floor is 2·max(⌈R/D⌉, fullest drive's load) + 2⌈R/D⌉ + Σ⌈R_g/D⌉, and a
// superstep is routed only when the first exceeds the second — which no
// directory on five drives or fewer can make it do, since a block read
// where it lies costs at most one operation and routing it costs 4/D
// before it is read at all.
func TestRouteRule(t *testing.T) {
	// Every batch's blocks on one drive: the same for all of them when
	// step is 0, the next drive for the next batch when it is 1.
	oneDrive := func(D, batches, n, step int) [][]int {
		counts := make([][]int, batches)
		for g := range counts {
			counts[g] = make([]int, D)
			counts[g][g*step%D] = n
		}
		return counts
	}
	for _, tc := range []struct {
		name             string
		counts           [][]int
		scattered, floor int
		routes           bool
	}{
		{"nothing sent", [][]int{{0, 0, 0, 0}, {0, 0, 0, 0}}, 0, 0, false},
		{"one batch", [][]int{{3, 3, 2, 2}}, 3, 4*3 + 3, false},
		{"balanced", [][]int{{2, 2, 2, 2}, {1, 1, 1, 0}, {5, 4, 4, 4}}, 2 + 1 + 5, 2*8 + 2*7 + 2 + 1 + 5, false},
		// Each batch on a drive of its own: reading a batch is one block an
		// operation, gathering the buckets takes a block from every drive
		// at once. Routing pays from six drives up.
		{"a drive a batch, D=8", oneDrive(8, 8, 16, 1), 128, 4*16 + 8*2, true},
		{"a drive a batch, D=6", oneDrive(6, 6, 18, 1), 108, 4*18 + 6*3, true},
		{"a drive a batch, D=5", oneDrive(5, 5, 15, 1), 75, 4*15 + 5*3, false},
		{"a drive a batch, D=4", oneDrive(4, 4, 16, 1), 64, 4*16 + 4*4, false},
		// All of them on the same drive: Step 1 could read but one block an
		// operation too, so routing cannot win whatever D is.
		{"all on one drive, D=8", oneDrive(8, 3, 16, 0), 48, 2*48 + 2*6 + 3*2, false},
		{"all on one drive, D=4", oneDrive(4, 3, 16, 0), 48, 2*48 + 2*12 + 3*4, false},
		// A dead drive's column stays empty; the floor still divides by D,
		// which only lowers it (routing over fewer drives costs more).
		{"dead drive", [][]int{{4, 4, 0, 4}, {2, 1, 0, 2}}, 4 + 2, 2*6 + 2*5 + 3 + 2, false},
		{"dead drive and skew, D=8", [][]int{{20, 0, 0, 1, 0, 0, 0, 0}, {0, 18, 1, 0, 0, 0, 0, 0}}, 38, 2*20 + 2*5 + 3 + 3, false},
	} {
		scattered, floor, _ := handDirectory(tc.counts).routeCosts()
		if scattered != tc.scattered || floor != tc.floor {
			t.Errorf("%s: scattered %d against a floor of %d, want %d against %d", tc.name, scattered, floor, tc.scattered, tc.floor)
		}
		if routes := scattered > floor; routes != tc.routes || routes && len(tc.counts[0]) <= 5 {
			t.Errorf("%s: the rule routes = %v on %d drives, want %v", tc.name, routes, len(tc.counts[0]), tc.routes)
		}
	}
	// Whatever the directory, five drives or fewer never route.
	r := prng.New(21)
	for i := 0; i < 2000; i++ {
		counts := make([][]int, 1+r.Intn(6))
		D := 1 + r.Intn(5)
		for g := range counts {
			counts[g] = make([]int, D)
			for d := range counts[g] {
				if r.Intn(3) == 0 {
					counts[g][d] = r.Intn(40)
				}
			}
		}
		if scattered, floor, _ := handDirectory(counts).routeCosts(); scattered > floor {
			t.Fatalf("counts %v: scattered %d exceeds the floor %d on %d drives", counts, scattered, floor, D)
		}
	}
}

// skewedCase writes nBlocks blocks of every one of `batches` destination
// batches to one drive of a D-drive array, batch g's to drive g mod D, by
// hand — the directory the engine's own writer can no longer produce —
// ready for routeLocal.
func skewedCase(t *testing.T, D, batches, nBlocks int) (*routeCase, *simShape, *procState) {
	t.Helper()
	c := &routeCase{seed: 5, v: batches * 2, k: 2, nBlocks: batches * nBlocks, fullestSrc: (batches + D - 1) / D * nBlocks,
		dsk: disk.MustNewArray(disk.Config{D: D, B: 8})}
	c.dir = newOutDirectory(batches, D)
	img := make([]uint64, 8)
	for i := 0; i < c.nBlocks; i++ {
		m := blockMeta{dst: i % c.v, src: i % 3, seq: i}
		img[0], img[1], img[2], img[3], img[4] = uint64(m.dst), uint64(m.src), uint64(m.seq), 0, 1
		img[5] = prng.Derive(c.seed, uint64(m.dst), uint64(m.seq))
		g := groupOf(m.dst, c.k)
		d := g % D
		tr := c.dsk.Alloc(d)
		if err := c.dsk.WriteOp([]disk.WriteReq{{Disk: d, Track: tr, Src: img}}); err != nil {
			t.Fatal(err)
		}
		c.dir.q[g][d] = append(c.dir.q[g][d], blockRef{disk: d, track: tr, meta: m})
		c.dir.total++
	}
	sh := &simShape{cfg: MachineConfig{P: 1, D: D, B: 8}, batches: batches, muBlocks: 1}
	ps := &procState{storeStack: storeStack{chain: c.dsk}, acct: mem.NewAccountant(0), dir: c.dir}
	return c, sh, ps
}

// TestRouteRuleDecides: the same skewed directory — eight batches, each
// wholly on a drive of its own, two sharing a drive where there are four
// — is routed on eight drives, into standard consecutive format and for
// fewer operations in all than the scattered fetch would have taken, and
// left alone on four, where the next fetch finds every block under the
// directory and freeInput releases them after it.
func TestRouteRuleDecides(t *testing.T) {
	const batches, perBatch = 8, 16
	c, sh, ps := skewedCase(t, 8, batches, perBatch)
	scattered, floor, _ := c.dir.routeCosts()
	if err := sh.routeLocal(ps, 0); err != nil {
		t.Fatal(err)
	}
	if ps.inDir != nil || ps.routeOps == 0 || ps.inBlocks != c.nBlocks {
		t.Fatalf("D=8: scattered %d against a floor of %d, but %d routing ops and inDir %v", scattered, floor, ps.routeOps, ps.inDir)
	}
	c.check(t, &routeResult{regions: ps.inRegions, areas: ps.inAreas, total: ps.inBlocks, stats: routeStats{ops: ps.routeOps}})
	fetch := 0
	for _, regions := range ps.inRegions {
		n := 0
		for _, reg := range regions {
			n += reg.hi - reg.lo
		}
		fetch += (n + 7) / 8
	}
	if routed := int(ps.routeOps) + fetch; routed < floor || routed >= scattered {
		t.Errorf("D=8: routing and the fetch after it take %d + %d operations, want at least the floor %d and fewer than the scattered fetch's %d", ps.routeOps, fetch, floor, scattered)
	}

	c, sh, ps = skewedCase(t, 4, batches, perBatch)
	before := c.dsk.Stats().Ops
	if err := sh.routeLocal(ps, 0); err != nil {
		t.Fatal(err)
	}
	if ps.inDir != c.dir || ps.routeOps != 0 || len(ps.inRegions) != 0 || c.dsk.Stats().Ops != before {
		t.Fatalf("D=4: routed (%d ops) where the rule leaves the blocks", ps.routeOps)
	}
	for g := range ps.inDir.q {
		ops := c.dsk.Stats().Ops
		in, err := readScattered(c.dsk, ps.acct, &ps.stepBufs, ps.inDir.q[g])
		if err != nil {
			t.Fatal(err)
		}
		if len(in.metas) != perBatch || c.dsk.Stats().Ops-ops != perBatch {
			t.Errorf("D=4 batch %d: %d blocks in %d operations, want %d in %d", g, len(in.metas), c.dsk.Stats().Ops-ops, perBatch, perBatch)
		}
		for _, m := range in.metas {
			if groupOf(m.dst, c.k) != g {
				t.Errorf("D=4 batch %d holds a block for VP %d", g, m.dst)
			}
		}
		ps.acct.Release(in.grab)
	}
	// The consumed input is freed through freeInput, at the barrier.
	if err := sh.freeInput(ps); err != nil {
		t.Fatal(err)
	}
	freed := 0
	for _, free := range c.dsk.State().Free {
		freed += len(free)
	}
	if freed != c.nBlocks {
		t.Errorf("freeInput released %d of the directory's %d tracks", freed, c.nBlocks)
	}
}
