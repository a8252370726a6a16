package core

import (
	"bytes"
	"os"
	"slices"
	"testing"
	"testing/quick"

	"embsp/internal/disk"
	"embsp/internal/mem"
	"embsp/internal/obs"
	"embsp/internal/prng"
)

// routeCase is one directory for simulateRouting: nBlocks blocks for
// random VPs of dsts, grouped k to a batch, written to dsk by the block
// writer as the writing phase does.
type routeCase struct {
	seed       uint64
	v, k       int
	dsts       []int
	nBlocks    int
	dsk        *disk.Array
	dir        *outDirectory
	bufs       stepBufs
	fullestSrc int // most blocks of the directory on one drive
}

func (c *routeCase) write(t testing.TB, r *prng.Rand) {
	t.Helper()
	D, B := c.dsk.Config().D, c.dsk.Config().B
	c.dir = newOutDirectory((c.v+c.k-1)/c.k, D)
	var writer blockWriter
	writer.init(c.dsk, c.dir, nil, func(dst int) int { return groupOf(dst, c.k) }, r, false, nil, &c.bufs)
	img := make([]uint64, B)
	for i := 0; i < c.nBlocks; i++ {
		// A payload word derived from the block's identity, so a read can
		// be told from any other block's.
		m := blockMeta{dst: c.dsts[r.Intn(len(c.dsts))], src: r.Intn(c.v), seq: i}
		img[0], img[1], img[2], img[3], img[4] = uint64(m.dst), uint64(m.src), uint64(m.seq), 0, 1
		img[5] = prng.Derive(c.seed, uint64(m.dst), uint64(m.seq))
		if err := writer.add(m, img); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.flush(); err != nil {
		t.Fatal(err)
	}
	perDrive := make([]int, D)
	for _, q := range c.dir.q {
		for s, refs := range q {
			perDrive[s] += len(refs)
		}
	}
	c.fullestSrc = slices.Max(perDrive)
}

// check holds the routed layout to Algorithm 2's postcondition and its
// cost to the bounds of DESIGN.md §20.2, and returns how many operations
// Step 1 took above its lower bound 2Δ.
func (c *routeCase) check(t testing.TB, route *routeResult) (excess int) {
	t.Helper()
	D, B, R := c.dsk.Config().D, c.dsk.Config().B, c.nBlocks
	if route.total != R || len(route.areas) != D {
		t.Fatalf("routed %d blocks into %d areas, want %d into %d", route.total, len(route.areas), R, D)
	}
	// Buckets are cut by load: equal to within one block.
	sizes := make([]int, D)
	for b, ar := range route.areas {
		sizes[b] = ar.Blocks()
	}
	if slices.Max(sizes)-slices.Min(sizes) > 1 || slices.Max(sizes) != (R+D-1)/D {
		t.Errorf("bucket sizes %v for %d blocks on %d drives", sizes, R, D)
	}
	// Every group's blocks: contiguous over consecutive buckets, each
	// region in standard consecutive format (Definition 2), in canonical
	// order, intact.
	total, buf := 0, make([]uint64, B)
	for g, regions := range route.regions {
		var prev *blockMeta
		for i, reg := range regions {
			if i > 0 && (reg.lo != 0 || regions[i-1].hi != regions[i-1].area.Blocks()) {
				t.Errorf("group %d: region %d starts at block %d after one ending at %d of %d", g, i, reg.lo, regions[i-1].hi, regions[i-1].area.Blocks())
			}
			lastTrack := make(map[int]int)
			for j := reg.lo; j < reg.hi; j++ {
				ad := reg.area.Addr(j)
				if want := reg.area.Addr(reg.lo).Disk + (j - reg.lo); ad.Disk != want%D {
					t.Errorf("group %d: block %d of a region is on drive %d, want %d", g, j-reg.lo, ad.Disk, want%D)
				}
				if p, ok := lastTrack[ad.Disk]; ok && ad.Track != p+1 {
					t.Errorf("group %d: drive %d holds tracks %d then %d of one region", g, ad.Disk, p, ad.Track)
				}
				lastTrack[ad.Disk] = ad.Track
				if err := c.dsk.ReadOp([]disk.ReadReq{{Disk: ad.Disk, Track: ad.Track, Dst: buf}}); err != nil {
					t.Fatal(err)
				}
				meta, _, _ := parseBlock(buf)
				if groupOf(meta.dst, c.k) != g || buf[5] != prng.Derive(c.seed, uint64(meta.dst), uint64(meta.seq)) {
					t.Errorf("group %d holds block %+v with payload %#x", g, meta, buf[5])
				}
				if prev != nil && metaCmp(*prev, meta) >= 0 {
					t.Errorf("group %d: block %+v follows %+v", g, meta, *prev)
				}
				prev = &meta
				total++
			}
		}
	}
	if total != R {
		t.Errorf("regions hold %d blocks, want %d", total, R)
	}
	// Step 2 is ⌈R/D⌉ read-write pairs; Step 1 at least Δ and, every
	// operation being a maximal matching, at most 2Δ − 1.
	delta := max((R+D-1)/D, c.fullestSrc)
	step1 := int(route.stats.ops) - 2*((R+D-1)/D)
	if R > 0 && (step1 < 2*delta || step1 > 2*(2*delta-1)) {
		t.Errorf("Step 1 took %d operations for %d blocks on %d drives (Δ = %d), want within [%d, %d]", step1, R, D, delta, 2*delta, 2*(2*delta-1))
	}
	if R == 0 && route.stats.ops != 0 {
		t.Errorf("%d operations to route nothing", route.stats.ops)
	}
	return step1 - 2*delta
}

// TestRoutingInvariants checks the postcondition and the operation
// bounds of simulateRouting on random directories, among them the shapes
// fixed buckets served badly: nothing to route, fewer blocks than drives,
// one destination, one group, one drive.
func TestRoutingInvariants(t *testing.T) {
	worst := 0
	f := func(seed uint64) bool {
		r := prng.New(seed)
		c := &routeCase{seed: seed, v: r.Intn(20) + 1}
		c.k = r.Intn(c.v) + 1
		d := r.Intn(6) + 1
		c.nBlocks = r.Intn(100)
		for dst := 0; dst < c.v; dst++ {
			c.dsts = append(c.dsts, dst)
		}
		switch seed % 5 {
		case 0:
			c.nBlocks = 0
		case 1:
			c.nBlocks = r.Intn(d)
		case 2:
			c.dsts = c.dsts[:1]
		case 3:
			c.k = c.v
		case 4:
			d = 1
		}
		c.dsk = disk.MustNewArray(disk.Config{D: d, B: 8 + r.Intn(8)})
		c.write(t, r)
		route, err := simulateRouting(c.dsk, mem.NewAccountant(0), c.dir)
		if err != nil {
			t.Log(err)
			return false
		}
		worst = max(worst, c.check(t, route))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	t.Logf("Step 1 took at most %d operations above its lower bound 2Δ", worst)
}

// TestRoutingLoneDestination pins DESIGN.md §20.2's case: sort's
// sample gather sends 22 blocks to one VP. Under the fixed Step 1(d)
// rule they were one bucket of four and Algorithm 2 moved them one block
// per operation, 88 operations; cut by load they are four buckets of 6,
// 6, 5 and 5.
func TestRoutingLoneDestination(t *testing.T) {
	c := &routeCase{seed: 7, v: 64, k: 9, dsts: []int{0}, nBlocks: 22, dsk: disk.MustNewArray(disk.Config{D: 4, B: 16})}
	c.write(t, prng.New(7))
	route, err := simulateRouting(c.dsk, mem.NewAccountant(0), c.dir)
	if err != nil {
		t.Fatal(err)
	}
	c.check(t, route)
	// The writer left 6 of them on one drive, so Step 1 cannot take fewer
	// than 6 read-write pairs, nor Step 2 fewer than ⌈22/4⌉: 24 is optimal.
	if route.stats.ops != 24 || c.fullestSrc != 6 {
		t.Errorf("routing 22 blocks for one VP took %d operations with %d blocks on the fullest drive, want 24 with 6", route.stats.ops, c.fullestSrc)
	}
}

// TestRoutingParallelism checks that for balanced traffic the
// reorganization stays close to full drive parallelism.
func TestRoutingParallelism(t *testing.T) {
	const d, b, v, k, perVP = 4, 16, 32, 8, 8
	arr := disk.MustNewArray(disk.Config{D: d, B: b})
	acct := mem.NewAccountant(0)
	dir := newOutDirectory(v/k, d)
	r := prng.New(7)
	var bufs stepBufs
	var writer blockWriter
	writer.init(arr, dir, nil, func(dst int) int { return groupOf(dst, k) }, r, false, nil, &bufs)
	img := make([]uint64, b)
	for c := 0; c < perVP; c++ {
		for dst := 0; dst < v; dst++ {
			img[0], img[1], img[2], img[3], img[4] = uint64(dst), uint64(c), uint64(c), 0, 0
			if err := writer.add(blockMeta{dst: dst, src: c, seq: c}, img); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := writer.flush(); err != nil {
		t.Fatal(err)
	}
	arr.ResetStats()
	route, err := simulateRouting(arr, acct, dir)
	if err != nil {
		t.Fatal(err)
	}
	st := arr.Stats()
	util := float64(st.Blocks()) / float64(st.Ops*int64(d))
	if util < 0.7 {
		t.Errorf("routing utilization %.2f, want >= 0.7 for balanced traffic", util)
	}
	if route.stats.maxSkew > 3 {
		t.Errorf("bucket skew %.2f unexpectedly high", route.stats.maxSkew)
	}
}

// TestDemoRoutingRuns pins the demo's whole text — the linked lists the
// writer left, the consecutive addresses Algorithm 2 moved them to, its
// operation count, skew and ragged slots — so the paper's Figure 2 layout
// cannot move silently now that no engine test crosses simulateRouting.
func TestDemoRoutingRuns(t *testing.T) {
	var out bytes.Buffer
	tr := obs.New()
	if err := DemoRouting(&out, tr, 8, 4, 8, 2, 2, 1); err != nil {
		t.Fatal(err)
	}
	if ph := tr.Phases(); len(ph) != 2 {
		t.Errorf("demo recorded %d phases, want write-msg and route: %+v", len(ph), ph)
	}
	want, err := os.ReadFile("testdata/demo_routing.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("the demo printed\n%s\nwant\n%s", out.String(), want)
	}
}

// TestBlockWriterPlacementBound holds the block writer to DESIGN.md §7's
// placement bound on random block streams — few drives and many, one
// batch to a dozen, skewed batch sizes, blocks in runs as a stream packer
// hands them over, message blocks and context blocks mixed, both
// tie-break modes, all drives live or one dead: when the last block is
// written, no batch g holds more than ⌈R_g/L⌉ + 1 of its blocks, of
// either kind, on one drive, and the context generation lists each
// batch's context blocks in the order they came. A writer that places
// each block greedily in arrival order breaks the bound: earlier blocks
// of an operation can take every drive on which a later block's batch is
// light.
func TestBlockWriterPlacementBound(t *testing.T) {
	r := prng.New(51)
	const streams = 4000
	bad := 0
	for c := 0; c < streams; c++ {
		D := []int{2, 3, 4, 8}[r.Intn(4)]
		G := 1 + r.Intn(12)
		dsk := disk.MustNewArray(disk.Config{D: D, B: headerWords + 1})
		dir, ctx := newOutDirectory(G, D), make([][]disk.Addr, G)
		var down func(int) bool
		L := D
		if D > 2 && r.Intn(4) == 0 {
			dead := r.Intn(D)
			down, L = func(d int) bool { return d == dead }, D-1
		}
		var bufs stepBufs
		var w blockWriter
		w.init(dsk, dir, ctx, func(dst int) int { return dst }, prng.New(uint64(c)), r.Intn(2) == 0, down, &bufs)
		weights := make([]int, G)
		for g := range weights {
			weights[g] = 1 + r.Intn(1<<r.Intn(6))
		}
		sum := 0
		for _, x := range weights {
			sum += x
		}
		img := make([]uint64, headerWords+1)
		g, contexts := 0, false
		added := make([]uint64, G) // context blocks per batch
		for i, n := 0, 1+r.Intn(400); i < n; i++ {
			if i == 0 || r.Intn(3) == 0 { // a new run: a batch by weight, a third of them contexts
				x := r.Intn(sum)
				for g = 0; x >= weights[g]; g++ {
					x -= weights[g]
				}
				contexts = r.Intn(3) == 0
			}
			var err error
			if contexts {
				img[0] = added[g]
				added[g]++
				err = w.addContext(g, img)
			} else {
				err = w.add(blockMeta{dst: g, seq: i}, img)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := w.flush(); err != nil {
			t.Fatal(err)
		}
		for g, perDrive := range dir.q {
			load := make([]int, D)
			for d, refs := range perDrive {
				load[d] += len(refs)
			}
			for k, a := range ctx[g] {
				load[a.Disk]++
				got := make([]uint64, headerWords+1)
				if err := dsk.ReadOp([]disk.ReadReq{{Disk: a.Disk, Track: a.Track, Dst: got}}); err != nil {
					t.Fatal(err)
				}
				if got[0] != uint64(k) {
					t.Fatalf("stream %d: batch %d lists context block %d at entry %d", c, g, got[0], k)
				}
			}
			if len(ctx[g]) != int(added[g]) {
				t.Fatalf("stream %d: batch %d lists %d context blocks of %d", c, g, len(ctx[g]), added[g])
			}
			fullest, R := 0, 0
			for _, n := range load {
				fullest, R = max(fullest, n), R+n
			}
			if fullest > (R+L-1)/L+1 {
				bad++
				if bad <= 3 {
					t.Errorf("stream %d (D=%d, L=%d): batch %d holds %d of its %d blocks on one drive, above ⌈R/L⌉ + 1 = %d", c, D, L, g, fullest, R, (R+L-1)/L+1)
				}
				break
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d streams broke the placement bound", bad, streams)
	}
}
