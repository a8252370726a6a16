package core

import (
	"cmp"
	"math"
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
// fetch reads a batch's lists as they are (readBatch).
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

// reset empties the directory, keeping its lists' memory.
func (d *outDirectory) reset() {
	for _, perDrive := range d.q {
		for i := range perDrive {
			perDrive[i] = perDrive[i][:0]
		}
	}
	d.total = 0
}

// holds reports whether the directory lists blocks for group g; a nil
// directory, the input before the first superstep, lists none.
func (d *outDirectory) holds(g int) bool {
	if d == nil {
		return false
	}
	for _, refs := range d.q[g] {
		if len(refs) > 0 {
			return true
		}
	}
	return false
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

// blockWriter implements Step 1(d) of Algorithm 1 (and the disk-write
// part of Step 1(c) of Algorithm 3) together with Step 1(e): it accepts
// the images of every block a processor writes in a superstep — its
// message blocks and its batches' context blocks — buffers up to L of
// them, L the live drives, and flushes each full buffer in one parallel
// write operation. Each operation's blocks are matched to distinct
// drives (place) so that every batch stays within DESIGN.md §7's bound,
// max_d q[g][d] ≤ ⌈R_g/L⌉ + 1 with q[g][d] the blocks of either kind
// that batch g's next read takes from drive d — so that read takes
// ⌈R_g/L⌉ operations or one more whatever the traffic — and, among the
// drives that keep it there, a block goes to the one on which its batch
// holds fewest blocks so far. A fresh random permutation (a round-robin
// rotation in deterministic mode) orders the drives and so breaks the
// ties. The track is allocated at the flush: a message block is
// appended to its destination batch's standard-linked-format list, a
// context block to its batch's entry in the context generation, in
// block order.
//
// When the fault layer reports a dead drive (down != nil), the writer
// scatters only over the surviving drives, an operation's worth of
// blocks at a time — a drive that dies between two flushes splits the
// buffer into as many operations as needed — the engine's graceful
// degradation after a permanent drive loss.
type blockWriter struct {
	dsk     disk.Store
	dir     *outDirectory
	ctx     [][]disk.Addr     // the context generation being written
	groupOf func(dst int) int // the directory's key: a block's destination batch
	rng     *prng.Rand
	det     bool
	down    func(d int) bool // nil when no fault layer is present
	rr      int

	load    []int    // [batch·D + drive]: the blocks the batch's next read takes from the drive
	buf     []uint64 // D·B words
	reqs    []disk.WriteReq
	pend    []pendingBlock
	pending int
	lanes   int // the live drives at the last flush: the pending blocks that make a full operation

	// One operation's matching, over live drive indices s (drive
	// live[s]) and the operation's blocks i: order is the drives in
	// tie-break order, owner[s] the block on s (-1: free), seen marks an
	// augmenting search's drives; to[i] is block i's drive, group[i] its
	// batch and limit[i] the most blocks of it a drive may already hold
	// to take it.
	live, order, owner, seen, to, group, limit []int
}

// pendingBlock is a block in the writer's buffer: its batch, and its
// directory entry or, for a context block, none.
type pendingBlock struct {
	meta  blockMeta
	batch int
	ctx   bool
}

// init makes w an empty writer over the processor's operation buffer,
// request list, pending-block and load tables, which it owns until the
// superstep's last flush. It lists message blocks in dir and context
// blocks in ctx, which hold an entry a batch; a writer of context blocks
// alone (the set-up's) has no dir.
func (w *blockWriter) init(dsk disk.Store, dir *outDirectory, ctx [][]disk.Addr, groupOf func(dst int) int, rng *prng.Rand, det bool, down func(int) bool, bufs *stepBufs) {
	D, B := dsk.Config().D, dsk.Config().B
	batches := len(ctx)
	if dir != nil {
		batches = len(dir.q)
	}
	*w = blockWriter{
		dsk: dsk, dir: dir, ctx: ctx, groupOf: groupOf, rng: rng, det: det, down: down,
		load: grow(&bufs.load, batches*D),
		buf:  fit(&bufs.op, D*B), reqs: grow(&bufs.writes, D),
		pend: grow(&bufs.pending, D),
	}
	clear(w.load)
	place := grow(&bufs.place, 7*D)
	for _, s := range []*[]int{&w.live, &w.order, &w.owner, &w.seen, &w.to, &w.group, &w.limit} {
		*s, place = place[:D:D], place[D:]
	}
	w.lanes = len(w.liveInto(w.live))
}

// add takes a message block.
func (w *blockWriter) add(meta blockMeta, img []uint64) error {
	return w.take(pendingBlock{meta: meta, batch: w.groupOf(meta.dst)}, img)
}

// addContext takes the next context block of batch j.
func (w *blockWriter) addContext(j int, img []uint64) error {
	return w.take(pendingBlock{batch: j, ctx: true}, img)
}

// carry counts tracks that batch j's next read takes and no flush of
// this writer wrote: a skipped batch's contexts, which the generation
// being written carries over.
func (w *blockWriter) carry(j int, tracks []disk.Addr) {
	D := w.dsk.Config().D
	for _, a := range tracks {
		w.load[j*D+a.Disk]++
	}
}

// addNext takes the message block built in next's image.
func (w *blockWriter) addNext(meta blockMeta) error {
	return w.push(pendingBlock{meta: meta, batch: w.groupOf(meta.dst)})
}

// next returns the operation buffer's image of the block the writer
// takes next.
func (w *blockWriter) next() []uint64 {
	B := w.dsk.Config().B
	return w.buf[w.pending*B : (w.pending+1)*B]
}

// take buffers a block.
func (w *blockWriter) take(p pendingBlock, img []uint64) error {
	copy(w.next(), img)
	return w.push(p)
}

// push buffers the block in next's image, and flushes once the buffer
// fills an operation.
func (w *blockWriter) push(p pendingBlock) error {
	w.pend[w.pending] = p
	w.pending++
	if w.pending >= w.lanes {
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
	D, B := w.dsk.Config().D, w.dsk.Config().B
	live := w.liveInto(w.live)
	L := len(live)
	if L == 0 {
		return &engineError{msg: "no live drives"}
	}
	w.lanes = L
	for base := 0; base < w.pending; {
		n := min(w.pending-base, L)
		if w.det {
			for i := 0; i < L; i++ {
				w.order[i] = (w.rr + i) % L
			}
			w.rr = (w.rr + n) % L
		} else {
			w.rng.PermInto(w.order[:L])
		}
		w.place(base, n, L)
		// The blocks are listed in block order, a batch's contexts so in
		// the generation, and requested in drive order, the order in
		// which a redundancy layer fills its stripes: the parity blocks
		// of stripes filled together then fall on distinct drives more
		// often, and go to disk in fewer operations.
		reqs := w.reqs[:L]
		for i := 0; i < n; i++ {
			p, d := &w.pend[base+i], live[w.to[i]]
			t := w.dsk.Alloc(d)
			reqs[w.to[i]] = disk.WriteReq{Disk: d, Track: t, Src: w.buf[(base+i)*B : (base+i+1)*B]}
			w.load[p.batch*D+d]++
			if p.ctx {
				w.ctx[p.batch] = append(w.ctx[p.batch], disk.Addr{Disk: d, Track: t})
				continue
			}
			q := w.dir.q[p.batch]
			q[d] = append(q[d], blockRef{disk: d, track: t, meta: p.meta})
			w.dir.total++
		}
		k := 0
		for s := 0; s < L; s++ {
			if w.owner[s] >= 0 {
				reqs[k], k = reqs[s], k+1
			}
		}
		if err := w.dsk.WriteOp(reqs[:k]); err != nil {
			return err
		}
		base += n
	}
	w.pending = 0
	return nil
}

// skew is the Lemma 2 observation over the batches the writer wrote
// for: per batch, its fullest drive's share of the blocks — contexts and
// messages — its next fetch reads drive by drive.
func (w *blockWriter) skew() (skew float64) {
	D := w.dsk.Config().D
	for g := 0; g < len(w.load)/D; g++ {
		skew = max(skew, skewOf(w.load[g*D:(g+1)*D]))
	}
	return skew
}

// loadOf returns the blocks of batch g on drive d.
func (w *blockWriter) loadOf(g, d int) int { return w.load[g*w.dsk.Config().D+d] }

// place matches the n ≤ L pending blocks from base to distinct live
// drives, filling to. A drive holding at most limit[i] of block i's
// batch keeps the batch within its bound after the operation, whatever
// the other blocks do, since two blocks of a batch never share a drive.
// The blocks take such drives by augmenting paths (a maximum matching
// over at most L blocks): first the drives that leave a batch at
// ⌈R_g/L⌉, spending none of the bound's slack, then the rest within it,
// each block trying the free drive its batch holds fewest blocks on
// first. A block no matching can keep within its bound takes that drive.
func (w *blockWriter) place(base, n, L int) {
	D := w.dsk.Config().D
	for i := 0; i < n; i++ {
		w.group[i] = w.pend[base+i].batch
	}
	for i := 0; i < n; i++ {
		R := 0
		for _, c := range w.load[w.group[i]*D : (w.group[i]+1)*D] {
			R += c
		}
		for j := 0; j < n; j++ {
			if w.group[j] == w.group[i] {
				R++
			}
		}
		w.limit[i] = (R + L - 1) / L
	}
	for s := 0; s < L; s++ {
		w.owner[s] = -1
	}
	for i := 0; i < n; i++ {
		w.to[i] = -1
	}
	for slack := 0; slack <= 1; slack++ {
		for i := 0; i < n; i++ {
			if w.to[i] < 0 {
				clear(w.seen[:L])
				w.augment(i, L, slack)
			}
		}
	}
	for i := 0; i < n; i++ {
		if w.to[i] < 0 {
			s := w.fewest(i, L, math.MaxInt)
			w.owner[s], w.to[i] = i, s
		}
	}
}

// fewest returns the free drive, by live index, on which block i's
// batch holds fewest blocks, and at most limit; the first in order among
// equals, and -1 if there is none.
func (w *blockWriter) fewest(i, L, limit int) int {
	best, least := -1, 0
	for _, s := range w.order[:L] {
		if n := w.loadOf(w.group[i], w.live[s]); w.owner[s] < 0 && n <= limit && (best < 0 || n < least) {
			best, least = s, n
		}
	}
	return best
}

// augment gives block i a drive holding at most limit[i]-1+slack of its
// batch, moving placed blocks along an augmenting path if it must, and
// reports whether it could.
func (w *blockWriter) augment(i, L, slack int) bool {
	limit := w.limit[i] - 1 + slack
	if s := w.fewest(i, L, limit); s >= 0 {
		w.owner[s], w.to[i] = i, s
		return true
	}
	for _, s := range w.order[:L] {
		if w.seen[s] == 0 && w.loadOf(w.group[i], w.live[s]) <= limit {
			w.seen[s] = 1 // every such drive is taken: fewest found none free
			if w.augment(w.owner[s], L, slack) {
				w.owner[s], w.to[i] = i, s
				return true
			}
		}
	}
	return false
}

// engineError is a plain internal failure (not a fault, not a model
// violation).
type engineError struct{ msg string }

func (e *engineError) Error() string { return "core: " + e.msg }

// readBatch is the fetch of one batch: it reads the batch's context
// blocks, block i from tracks[i] into ctx's i-th block, and its message
// blocks, listed per drive, into the processor's region buffer, with
// greedy batching: every parallel read operation takes the next pending
// block of each drive — its context blocks in block order, then its
// message blocks — so the op count equals the fullest drive's share,
// which the block writer keeps within one of ⌈R/L⌉ (DESIGN.md §7), and
// at most one track per drive is in flight. It grabs the message blocks'
// words — the caller holds the context buffer's — and parses their
// directory entries from the images; the caller releases the returned
// grab, and the batchIn stays valid until the next read into the region
// buffer. The tracks stay allocated: they are the superstep's replay
// source until its barrier commits (freeInput, releaseContexts).
func readBatch(dsk disk.Store, acct *mem.Accountant, bufs *stepBufs, tracks []disk.Addr, ctx []uint64, perDrive [][]blockRef) (batchIn, error) {
	D, B := dsk.Config().D, dsk.Config().B
	msgs := 0
	for _, refs := range perDrive {
		msgs += len(refs)
	}
	left := len(tracks) + msgs
	if left == 0 {
		return batchIn{}, nil
	}
	grabbed := int64(msgs * B)
	if err := acct.Grab(grabbed); err != nil {
		return batchIn{}, err
	}
	buf := fit(&bufs.region, msgs*B)
	// Per drive, the next context block to look at and the message
	// blocks read.
	at := grow(&bufs.at, 2*D)
	clear(at)
	next, taken := at[:D], at[D:]
	grow(&bufs.reads, D)
	for idx := 0; left > 0; {
		reqs := bufs.reads[:0]
		for d := 0; d < D; d++ {
			for next[d] < len(tracks) && tracks[next[d]].Disk != d {
				next[d]++
			}
			if i := next[d]; i < len(tracks) {
				reqs = append(reqs, disk.ReadReq{Disk: d, Track: tracks[i].Track, Dst: ctx[i*B : (i+1)*B]})
				next[d]++
			} else if d < len(perDrive) && taken[d] < len(perDrive[d]) {
				reqs = append(reqs, disk.ReadReq{Disk: d, Track: perDrive[d][taken[d]].track, Dst: buf[idx*B : (idx+1)*B]})
				taken[d]++
				idx++
			}
		}
		left -= len(reqs)
		if err := dsk.ReadOp(reqs); err != nil {
			acct.Release(grabbed)
			return batchIn{}, err
		}
	}
	metas := grow(&bufs.metas, msgs)
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
