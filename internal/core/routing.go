package core

import (
	"cmp"
	"slices"

	"embsp/internal/disk"
	"embsp/internal/mem"
	"embsp/internal/prng"
)

// blockRef locates one staged message block together with its
// directory entry.
type blockRef struct {
	disk  int
	track int
	meta  blockMeta
}

// outDirectory holds the standard-linked-format state of Step 1(d):
// for every (group, drive) pair, the ordered list of tracks on that
// drive holding blocks for that group — a destination batch. The next
// fetch reads a batch's lists as they are (readScattered).
type outDirectory struct {
	q     [][][]blockRef // [group][drive]
	total int
}

func newOutDirectory(groups, D int) *outDirectory {
	d := &outDirectory{q: make([][][]blockRef, groups)}
	for g := range d.q {
		d.q[g] = make([][]blockRef, D)
	}
	return d
}

// each calls f for every block of the directory with its batch, and
// stops at f's first error.
func (d *outDirectory) each(f func(g int, ref blockRef) error) error {
	for g, perDrive := range d.q {
		for _, refs := range perDrive {
			for _, ref := range refs {
				if err := f(g, ref); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// skewOf is the Lemma 2 observation for one bucket: the ratio of its
// fullest drive's share to the even share R/D.
func skewOf(perDrive []int) float64 {
	R := 0
	for _, n := range perDrive {
		R += n
	}
	if R == 0 {
		return 0
	}
	return float64(slices.Max(perDrive)) * float64(len(perDrive)) / float64(R)
}

// skew is the Lemma 2 observation over the directory's batches, which
// are what a fetch reads drive by drive.
func (d *outDirectory) skew() (skew float64) {
	counts := make([]int, len(d.q[0]))
	for _, perDrive := range d.q {
		for s, refs := range perDrive {
			counts[s] = len(refs)
		}
		skew = max(skew, skewOf(counts))
	}
	return skew
}

// blockWriter implements Step 1(d) of Algorithm 1 (and the disk-write
// part of Step 1(c) of Algorithm 3): it accepts block images, buffers
// up to D of them, and flushes each full buffer in one parallel write
// operation. A block goes to the free drive on which its destination
// group holds fewest blocks so far, so a group's scattered read takes
// ⌈R_g/D⌉ operations or one more whatever the traffic; a fresh random
// permutation (a round-robin rotation in deterministic mode) orders the
// drives and so breaks the ties. Every written block is appended to its
// destination group's standard-linked-format list.
//
// When the fault layer reports a dead drive (down != nil), the writer
// scatters only over the surviving drives, splitting a full buffer
// into as many parallel operations as needed — the engine's graceful
// degradation after a permanent drive loss.
type blockWriter struct {
	dsk     disk.Store
	dir     *outDirectory
	groupOf func(dst int) int // the directory's key: a block's destination batch
	rng     *prng.Rand
	det     bool
	down    func(d int) bool // nil when no fault layer is present
	rr      int

	buf     []uint64 // D·B words
	reqs    []disk.WriteReq
	metas   []blockMeta
	perm    []int
	pending int
}

// newBlockWriter returns a writer over the processor's operation
// buffer, request list and pending-block tables, which it owns until
// the superstep's last flush.
func newBlockWriter(dsk disk.Store, dir *outDirectory, groupOf func(dst int) int, rng *prng.Rand, det bool, down func(int) bool, bufs *stepBufs) *blockWriter {
	D, B := dsk.Config().D, dsk.Config().B
	return &blockWriter{
		dsk: dsk, dir: dir, groupOf: groupOf, rng: rng, det: det, down: down,
		buf: fit(&bufs.op, D*B), reqs: grow(&bufs.writes, D),
		metas: grow(&bufs.pending, D), perm: grow(&bufs.perm, D),
	}
}

func (w *blockWriter) add(meta blockMeta, img []uint64) error {
	B := w.dsk.Config().B
	copy(w.buf[w.pending*B:(w.pending+1)*B], img)
	w.metas[w.pending] = meta
	w.pending++
	if w.pending == w.dsk.Config().D {
		return w.flush()
	}
	return nil
}

// liveInto fills dst with the drives still serving I/O and returns the
// filled prefix. With no fault layer that is simply [0, D).
func (w *blockWriter) liveInto(dst []int) []int {
	D := w.dsk.Config().D
	dst = dst[:0]
	for d := 0; d < D; d++ {
		if w.down == nil || !w.down(d) {
			dst = append(dst, d)
		}
	}
	return dst
}

func (w *blockWriter) flush() error {
	if w.pending == 0 {
		return nil
	}
	B := w.dsk.Config().B
	var liveBuf [64]int
	live := w.liveInto(liveBuf[:0])
	L := len(live)
	if L == 0 {
		return &engineError{msg: "no live drives"}
	}
	for base := 0; base < w.pending; {
		n := w.pending - base
		if n > L {
			n = L
		}
		if w.det {
			for i := 0; i < L; i++ {
				w.perm[i] = (w.rr + i) % L
			}
			w.rr = (w.rr + n) % L
		} else {
			w.rng.PermInto(w.perm[:L])
		}
		reqs := w.reqs[:0]
		for i := 0; i < n; i++ {
			q := w.dir.q[w.groupOf(w.metas[base+i].dst)]
			best := -1 // the pick's position in perm, whose taken entries are -1
			for at, s := range w.perm[:L] {
				if s >= 0 && (best < 0 || len(q[live[s]]) < len(q[live[w.perm[best]]])) {
					best = at
				}
			}
			d := live[w.perm[best]]
			w.perm[best] = -1
			t := w.dsk.Alloc(d)
			reqs = append(reqs, disk.WriteReq{Disk: d, Track: t, Src: w.buf[(base+i)*B : (base+i+1)*B]})
			q[d] = append(q[d], blockRef{disk: d, track: t, meta: w.metas[base+i]})
			w.dir.total++
		}
		if err := w.dsk.WriteOp(reqs); err != nil {
			return err
		}
		base += n
	}
	w.pending = 0
	return nil
}

// engineError is a plain internal failure (not a fault, not a model
// violation).
type engineError struct{ msg string }

func (e *engineError) Error() string { return "core: " + e.msg }

// readScattered reads the blocks listed per drive into the processor's
// region buffer with greedy batching: every parallel read operation
// takes the next pending block of each drive, so the op count equals
// the maximum per-drive share — exactly the quantity Lemma 2 bounds —
// and at most one track per drive is in flight. It grabs the blocks'
// words and parses their directory entries from the images; the caller
// releases the returned grab, and the batchIn stays valid until the
// next read into the region buffer. The tracks stay allocated: they are
// the superstep's replay source until its barrier commits (freeInput).
func readScattered(dsk disk.Store, acct *mem.Accountant, bufs *stepBufs, perDrive [][]blockRef) (batchIn, error) {
	B := dsk.Config().B
	total := 0
	for _, refs := range perDrive {
		total += len(refs)
	}
	if total == 0 {
		return batchIn{}, nil
	}
	grabbed := int64(total * B)
	if err := acct.Grab(grabbed); err != nil {
		return batchIn{}, err
	}
	buf := fit(&bufs.region, total*B)
	grow(&bufs.reads, len(perDrive))
	for idx, round := 0, 0; idx < total; round++ {
		reqs := bufs.reads[:0]
		for d, refs := range perDrive {
			if round < len(refs) {
				reqs = append(reqs, disk.ReadReq{Disk: d, Track: refs[round].track, Dst: buf[idx*B : (idx+1)*B]})
				idx++
			}
		}
		if err := dsk.ReadOp(reqs); err != nil {
			acct.Release(grabbed)
			return batchIn{}, err
		}
	}
	metas := grow(&bufs.metas, total)
	for i := range metas {
		metas[i], _, _ = parseBlock(buf[i*B : (i+1)*B])
	}
	return batchIn{buf: buf, metas: metas, grab: grabbed}, nil
}

// What follows is Algorithm 2 as the paper states it. No run takes it —
// the writer's placement leaves every batch within an operation of a
// fully parallel read where it lies (DESIGN.md §7) — so it is kept for
// the Figure 2 demo (DemoRouting), with the postcondition and the bounds
// its tests hold.

// groupRegion is a slice [lo, hi) of an area holding one group's
// routed message blocks.
type groupRegion struct {
	area disk.Area
	lo   int
	hi   int
}

// routeStats reports the behaviour of one SimulateRouting invocation.
type routeStats struct {
	ops     int64   // parallel I/O operations performed
	ragged  int64   // scheduled slots with no block (paper: dummy blocks)
	maxSkew float64 // max over buckets of (max per-drive share)·D/R — Lemma 2's l
}

// routeResult is the reorganized layout: for every group, the list of
// consecutive-format regions holding its blocks, plus the areas backing
// them.
type routeResult struct {
	regions [][]groupRegion
	areas   []disk.Area
	total   int
	stats   routeStats
}

// simulateRouting implements Algorithm 2 on one disk array: reorganize
// the R blocks of dir from standard linked format into standard
// consecutive format per group.
//
// The directory is in memory (DESIGN.md §5), so the blocks' final order
// — by group, then destination cell, sender, stream, chunk — is known
// before one is moved, and the buckets are cut from it by load: bucket b
// is the b-th of D runs of that order, equal to within one block
// whatever the traffic (§20.2).
//
// Step 1 gathers bucket b onto drive b, each parallel operation moving
// at most one block per bucket and per drive: the buckets, in order of
// most blocks left, each take the not-yet-used drive holding most of
// their remaining blocks. Every operation is a maximal matching of
// buckets to drives, so there are at most 2Δ − 1 of them, Δ the larger
// of a bucket's size and the fullest drive's load. Step 2 stripes each
// gathered bucket across the drives into a rotated consecutive area:
// operation j writes bucket b's j-th block to drive (b+j) mod D, the
// paper's track formula d·⌈vγ/D²B⌉ + ⌊j/D⌋. The areas are the in-memory
// Array's: the demo runs on one.
func simulateRouting(dsk *disk.Array, acct *mem.Accountant, dir *outDirectory) (*routeResult, error) {
	D, B, R := dsk.Config().D, dsk.Config().B, dir.total
	res := &routeResult{total: R, regions: make([][]groupRegion, len(dir.q)), areas: make([]disk.Area, D)}
	start := func(b int) int { return b*(R/D) + min(b, R%D) } // bucket b is flat[start(b):start(b+1)]
	for b := range res.areas {
		res.areas[b] = dsk.ReserveRot(start(b+1)-start(b), b)
	}

	bufWords := D * B
	if err := acct.Grab(int64(bufWords)); err != nil {
		return nil, err
	}
	defer acct.Release(int64(bufWords))
	buf := make([]uint64, bufWords)
	reads, writes := make([]disk.ReadReq, 0, D), make([]disk.WriteReq, 0, D)
	// add schedules one block's transfer in the current parallel
	// operation; move performs it — a read, a write — and frees what it read.
	add := func(from, to disk.Addr) {
		seg := buf[len(reads)*B : (len(reads)+1)*B]
		reads = append(reads, disk.ReadReq{Disk: from.Disk, Track: from.Track, Dst: seg})
		writes = append(writes, disk.WriteReq{Disk: to.Disk, Track: to.Track, Src: seg})
	}
	move := func() error {
		res.stats.ragged += int64(D - len(reads))
		res.stats.ops += 2
		if err := dsk.ReadOp(reads); err != nil {
			return err
		}
		if err := dsk.WriteOp(writes); err != nil {
			return err
		}
		for _, r := range reads {
			if err := dsk.Release(r.Disk, r.Track); err != nil {
				return err
			}
		}
		reads, writes = reads[:0], writes[:0]
		return nil
	}

	// The final order, and every group's regions in it.
	flat := make([]blockRef, 0, R)
	b := 0
	for g, perDrive := range dir.q {
		lo := len(flat)
		for _, refs := range perDrive {
			flat = append(flat, refs...)
		}
		slices.SortFunc(flat[lo:], func(x, y blockRef) int { return metaCmp(x.meta, y.meta) })
		for lo < len(flat) {
			if lo >= start(b+1) {
				b++
				continue
			}
			hi := min(len(flat), start(b+1))
			res.regions[g] = append(res.regions[g], groupRegion{area: res.areas[b], lo: lo - start(b), hi: hi - start(b)})
			lo = hi
		}
	}

	// The blocks of each (bucket, drive) cell, chained through link from
	// head (both 1-based, 0 ends a chain), and Lemma 2's skew per bucket.
	cells, link := make([]int, (2*D+3)*D), make([]int, R)
	cnt, head, perBucket := cells[:D*D], cells[D*D:2*D*D], cells[2*D*D:]
	left, order, busy := perBucket[:D], perBucket[D:2*D], perBucket[2*D:] // busy is per drive
	for i, b := R-1, D-1; i >= 0; i-- {
		for i < start(b) {
			b--
		}
		c := b*D + flat[i].disk
		link[i], head[c] = head[c], i+1
		cnt[c]++
		left[b]++
	}
	for b := range order {
		order[b] = b
		res.stats.maxSkew = max(res.stats.maxSkew, skewOf(cnt[b*D:(b+1)*D]))
	}

	// Step 1: gather bucket b onto drive b.
	for op, remaining := 1, R; remaining > 0; op++ {
		slices.SortFunc(order, func(x, y int) int { return cmp.Or(left[y]-left[x], x-y) })
		for _, b := range order {
			best := -1
			for s := 0; s < D; s++ {
				if busy[s] != op && cnt[b*D+s] > 0 && (best < 0 || cnt[b*D+s] > cnt[b*D+best]) {
					best = s
				}
			}
			if best < 0 {
				continue
			}
			c := b*D + best
			ref := &flat[head[c]-1]
			head[c], busy[best] = link[head[c]-1], op
			cnt[c]--
			left[b]--
			remaining--
			to := disk.Addr{Disk: b, Track: dsk.Alloc(b)}
			add(disk.Addr{Disk: ref.disk, Track: ref.track}, to)
			ref.disk, ref.track = to.Disk, to.Track
		}
		if err := move(); err != nil {
			return nil, err
		}
	}

	// Step 2: stripe each bucket into its rotated consecutive area.
	for j := 0; j < (R+D-1)/D; j++ {
		for b := 0; b < D && start(b)+j < start(b+1); b++ {
			add(disk.Addr{Disk: b, Track: flat[start(b)+j].track}, res.areas[b].Addr(j))
		}
		if err := move(); err != nil {
			return nil, err
		}
	}
	return res, nil
}
