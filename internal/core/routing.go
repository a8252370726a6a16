package core

import (
	"embsp/internal/disk"
	"embsp/internal/mem"
	"embsp/internal/prng"
)

// blockRef locates one staged message block together with its
// directory entry.
type blockRef struct {
	track int
	meta  blockMeta
}

// outDirectory holds the standard-linked-format state of Step 1(d):
// for every (bucket, drive) pair, the ordered list of tracks on that
// drive holding blocks of that bucket. Algorithm 2 uses D buckets; the
// NoRouting ablation buckets directly by destination batch.
type outDirectory struct {
	q     [][][]blockRef // [bucket][drive]
	total int
}

func newOutDirectory(buckets, D int) *outDirectory {
	d := &outDirectory{q: make([][][]blockRef, buckets)}
	for b := range d.q {
		d.q[b] = make([][]blockRef, D)
	}
	return d
}

// maxSkew is the Lemma 2 observation: the largest ratio, over buckets,
// of the maximum per-drive share to the even share R/D.
func (d *outDirectory) maxSkew() float64 {
	var worst float64
	for _, perDrive := range d.q {
		R, maxPer := 0, 0
		for _, refs := range perDrive {
			R += len(refs)
			maxPer = max(maxPer, len(refs))
		}
		if R > 0 {
			worst = max(worst, float64(maxPer)*float64(len(perDrive))/float64(R))
		}
	}
	return worst
}

// groupRegion is a slice [lo, hi) of an area holding one group's
// incoming message blocks.
type groupRegion struct {
	area disk.Area
	lo   int
	hi   int
}

// blockWriter implements Step 1(d) of Algorithm 1 (and the disk-write
// part of Step 1(c) of Algorithm 3): it accepts block images, buffers
// up to D of them, and flushes each full buffer in one parallel write
// operation, assigning blocks to drives by a fresh random permutation
// (or round-robin rotation in deterministic mode). Every written block
// is appended to its bucket's standard-linked-format list.
//
// When the fault layer reports a dead drive (down != nil), the writer
// scatters only over the surviving drives, splitting a full buffer
// into as many parallel operations as needed — the engine's graceful
// degradation after a permanent drive loss.
type blockWriter struct {
	dsk       disk.Store
	dir       *outDirectory
	bucketKey func(blockMeta) int
	rng       *prng.Rand
	det       bool
	down      func(d int) bool // nil when no fault layer is present
	rr        int

	buf     []uint64 // D·B words
	reqs    []disk.WriteReq
	metas   []blockMeta
	perm    []int
	pending int
}

// newBlockWriter returns a writer over the processor's operation
// buffer, request list and pending-block tables, which it owns until
// the superstep's last flush.
func newBlockWriter(dsk disk.Store, dir *outDirectory, bucketKey func(blockMeta) int, rng *prng.Rand, det bool, down func(int) bool, bufs *stepBufs) *blockWriter {
	D, B := dsk.Config().D, dsk.Config().B
	return &blockWriter{
		dsk: dsk, dir: dir, bucketKey: bucketKey, rng: rng, det: det, down: down,
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
			d := live[w.perm[i]]
			t := w.dsk.Alloc(d)
			reqs = append(reqs, disk.WriteReq{Disk: d, Track: t, Src: w.buf[(base+i)*B : (base+i+1)*B]})
			b := w.bucketKey(w.metas[base+i])
			w.dir.q[b][d] = append(w.dir.q[b][d], blockRef{track: t, meta: w.metas[base+i]})
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

// routeStats reports the behaviour of one SimulateRouting invocation.
type routeStats struct {
	ops     int64   // parallel I/O operations performed
	ragged  int64   // scheduled slots with no block (paper: dummy blocks)
	maxSkew float64 // max over buckets of (max per-drive share)·D/R — Lemma 2's l
}

// routeResult is the reorganized layout: for every group (keyed by
// groupKey), the list of consecutive-format regions holding its
// blocks, plus the areas backing them.
type routeResult struct {
	regions [][]groupRegion
	areas   []disk.Area
	total   int
	stats   routeStats
}

// simulateRouting implements Algorithm 2 on one disk array:
// reorganize the blocks of dir from standard linked format into
// standard consecutive format per group, where a block's group is
// groupKey(meta) ∈ [0, numGroups).
//
// Step 1 gathers bucket b onto drive b: parallel operation j reads one
// block of bucket b from drive (b+j) mod D for all b simultaneously.
// Step 2 stripes each gathered bucket — sorted by (group, destination,
// source, sequence, chunk) — across the drives into a rotated
// consecutive area: operation j writes bucket b's j-th block to drive
// (b+j) mod D, the paper's track formula d·⌈vγ/D²B⌉ + ⌊j/D⌋.
//
// Under the fault layer a dead drive's tracks are served transparently
// from their mirror copies; the extra operations the redirection costs
// are charged by the layer and surfaced as RecoveryOps.
func simulateRouting(dsk disk.Store, acct *mem.Accountant, bufs *stepBufs, dir *outDirectory, groupKey func(blockMeta) int, numGroups int) (*routeResult, error) {
	D, B := dsk.Config().D, dsk.Config().B
	res := &routeResult{total: dir.total}

	res.stats.maxSkew = dir.maxSkew()

	bufWords := D * B
	if err := acct.Grab(int64(bufWords)); err != nil {
		return nil, err
	}
	defer acct.Release(int64(bufWords))
	buf := fit(&bufs.op, bufWords)
	grow(&bufs.reads, D)
	grow(&bufs.writes, D)
	grow(&bufs.rel, D)

	// Step 1: gather bucket b onto drive b.
	staged := make([][]blockRef, D)
	cursors := make([][]int, D)
	for b := 0; b < D; b++ {
		cursors[b] = make([]int, D)
	}
	remaining := dir.total
	for j := 0; remaining > 0; j++ {
		reads, writes, toRelease := bufs.reads[:0], bufs.writes[:0], bufs.rel[:0]
		for b := 0; b < D; b++ {
			s := (b + j) % D
			q := dir.q[b][s]
			cur := cursors[b][s]
			if cur >= len(q) {
				continue
			}
			ref := q[cur]
			cursors[b][s]++
			seg := buf[len(reads)*B : (len(reads)+1)*B]
			reads = append(reads, disk.ReadReq{Disk: s, Track: ref.track, Dst: seg})
			t := dsk.Alloc(b)
			writes = append(writes, disk.WriteReq{Disk: b, Track: t, Src: seg})
			staged[b] = append(staged[b], blockRef{track: t, meta: ref.meta})
			toRelease = append(toRelease, disk.Addr{Disk: s, Track: ref.track})
			remaining--
		}
		if len(reads) == 0 {
			continue
		}
		res.stats.ragged += int64(D - len(reads))
		if err := dsk.ReadOp(reads); err != nil {
			return nil, err
		}
		if err := dsk.WriteOp(writes); err != nil {
			return nil, err
		}
		res.stats.ops += 2
		for _, r := range toRelease {
			if err := dsk.Release(r.Disk, r.Track); err != nil {
				return nil, err
			}
		}
	}

	// Step 2: stripe each bucket into a rotated consecutive area in
	// (group, destination, source, sequence, chunk) order.
	res.areas = make([]disk.Area, D)
	maxLen := 0
	for b := 0; b < D; b++ {
		sortSlice(staged[b], func(x, y blockRef) bool {
			gx, gy := groupKey(x.meta), groupKey(y.meta)
			if gx != gy {
				return gx < gy
			}
			return metaLess(x.meta, y.meta)
		})
		res.areas[b] = dsk.ReserveRot(len(staged[b]), b)
		if len(staged[b]) > maxLen {
			maxLen = len(staged[b])
		}
	}
	for j := 0; j < maxLen; j++ {
		reads, writes, toRelease := bufs.reads[:0], bufs.writes[:0], bufs.rel[:0]
		for b := 0; b < D; b++ {
			if j >= len(staged[b]) {
				continue
			}
			ref := staged[b][j]
			seg := buf[len(reads)*B : (len(reads)+1)*B]
			reads = append(reads, disk.ReadReq{Disk: b, Track: ref.track, Dst: seg})
			addr := res.areas[b].Addr(j)
			writes = append(writes, disk.WriteReq{Disk: addr.Disk, Track: addr.Track, Src: seg})
			toRelease = append(toRelease, disk.Addr{Disk: b, Track: ref.track})
		}
		res.stats.ragged += int64(D - len(reads))
		if err := dsk.ReadOp(reads); err != nil {
			return nil, err
		}
		if err := dsk.WriteOp(writes); err != nil {
			return nil, err
		}
		res.stats.ops += 2
		for _, r := range toRelease {
			if err := dsk.Release(r.Disk, r.Track); err != nil {
				return nil, err
			}
		}
	}

	// Record every group's contiguous slices.
	res.regions = make([][]groupRegion, numGroups)
	for b := 0; b < D; b++ {
		i := 0
		for i < len(staged[b]) {
			g := groupKey(staged[b][i].meta)
			j := i + 1
			for j < len(staged[b]) && groupKey(staged[b][j].meta) == g {
				j++
			}
			res.regions[g] = append(res.regions[g], groupRegion{area: res.areas[b], lo: i, hi: j})
			i = j
		}
	}
	return res, nil
}

// readScattered reads the blocks listed per drive into the processor's
// region buffer with greedy batching: every parallel read operation
// takes the next pending block of each drive, so the op count equals
// the maximum per-drive share — exactly the quantity Lemma 2 bounds —
// and at most one track per drive is in flight. It grabs the blocks'
// words and parses their directory entries from the images; the caller
// releases the returned grab, and the batchIn stays valid until the
// next read into the region buffer. With release (the NoRouting
// ablation's fetch path) the source tracks are freed after reading.
func readScattered(dsk disk.Store, acct *mem.Accountant, bufs *stepBufs, perDrive [][]blockRef, release bool) (batchIn, error) {
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
		if !release {
			continue
		}
		for _, r := range reqs {
			if err := dsk.Release(r.Disk, r.Track); err != nil {
				acct.Release(grabbed)
				return batchIn{}, err
			}
		}
	}
	metas := grow(&bufs.metas, total)
	for i := range metas {
		metas[i], _ = parseBlock(buf[i*B : (i+1)*B])
	}
	return batchIn{buf: buf, metas: metas, grab: grabbed}, nil
}

// readRegions reads all blocks of a batch's regions as one such
// schedule: a batch whose cells span two buckets has two regions, and
// read one by one each would end in a partial operation of its own.
func readRegions(dsk disk.Store, acct *mem.Accountant, bufs *stepBufs, regions []groupRegion) (batchIn, error) {
	perDrive := grow(&bufs.queue, dsk.Config().D)
	for d := range perDrive {
		perDrive[d] = perDrive[d][:0]
	}
	for _, r := range regions {
		for i := r.lo; i < r.hi; i++ {
			addr := r.area.Addr(i)
			perDrive[addr.Disk] = append(perDrive[addr.Disk], blockRef{track: addr.Track})
		}
	}
	return readScattered(dsk, acct, bufs, perDrive, false)
}
