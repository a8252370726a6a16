package core

import (
	"cmp"
	"fmt"
	"slices"

	"embsp/internal/bsp"
	"embsp/internal/mem"
)

// Message blocks: packed streams. Step 1(d) of Algorithm
// SeqCompoundSuperstep cuts the generated messages into blocks of size
// B, and Theorem 1 counts those blocks full. So messages are not cut one
// by one: each is a record
//
//	destination VP, source VP, per-source sequence number, payload length, payload…
//
// appended to the stream its sending processor keeps, for the
// superstep, for the message's destination cell — a batch of one
// owner's VPs, named by its first VP. Each round appends its batch's
// records, sorted stably by cell, so a stream carries all of the
// processor's batches' messages for the cell, in round order; it is cut
// every C = B - 5 words. A block image is
//
//	word 0: first VP of the destination cell
//	word 1: first VP of the sending processor
//	word 2: stream number: 0, or more after an eviction (streamPacker)
//	word 3: chunk index within the stream
//	word 4: fill<<1 | last: the stream words the block holds, and whether it ends the stream
//	words 5..B-1: those words (zero padded)
//
// so a block is self-describing and every block of a stream but its
// last is full. Records straddle block edges freely; a message longer
// than a block is just a long record. DESIGN.md §21 argues the cell rule
// and the delivery order.

// blockMeta is the engine's directory entry for one message block.
type blockMeta struct {
	dst   int
	src   int
	seq   int
	chunk int
}

// recordWords is the per-message header of a stream record.
const recordWords = 4

// chunkCap returns C, the stream words one message block carries.
func chunkCap(B int) int { return B - headerWords }

// outMsg is a message collected during the computation phase, before
// the writing phase packs it into its cell's stream.
type outMsg struct {
	dst     int
	src     int
	seq     int
	cell    int // first VP of dst's cell, set by sortByCell
	payload []uint64
}

// cellOf returns the first VP of the cell of VP dst: its batch among
// its owner's VPs. Every block of a stream therefore has one owner and
// one batch, which is all the writer, the exchange and the fetch ask
// of a block.
func (sh *simShape) cellOf(dst int) int {
	l := dst % sh.vpp
	return dst - l + l/sh.k*sh.k
}

// cellIndex numbers the cell whose first VP is c among the machine's
// P·batches cells.
func (sh *simShape) cellIndex(c int) int { return sh.owner(c)*sh.batches + sh.batchOf(c) }

// sortByCell puts a batch's messages in packing order — stably by
// destination cell, so a cell's messages keep the (source, sequence)
// order they were generated in — and returns the words their records
// take and the number of cells they go to.
func (sh *simShape) sortByCell(outs []outMsg) (words, cells int) {
	for i := range outs {
		outs[i].cell = sh.cellOf(outs[i].dst)
		words += recordWords + len(outs[i].payload)
	}
	slices.SortStableFunc(outs, func(a, b outMsg) int { return a.cell - b.cell })
	for i := range outs {
		if i == 0 || outs[i].cell != outs[i-1].cell {
			cells++
		}
	}
	return words, cells
}

// tail is the open last block of one stream: its image is a slot of the
// packer's, its header written when it leaves.
type tail struct {
	slot  int // -1: no block open
	fill  int // stream words in the block
	seq   int // the stream's number
	chunk int // the block's index in its stream
}

// streamPacker is one processor's streams for a superstep. A stream's
// last block — its tail — stays in internal memory across the
// processor's rounds while they append to it; a tail that is full leaves
// when the next word comes, and the tails still open leave, each its
// stream's last block, in the processor's last round (close). At most
// ⌈(µ+1)/B⌉ tails — one context's blocks — are open at once, fewer on a
// machine with fewer cells, each B words the accountant holds: a
// record for a cell with none open when all are taken first evicts the
// fullest, which leaves as its stream's last block, and that cell's next
// record starts its next stream. Nothing is open at a barrier.
type streamPacker struct {
	sh    *simShape
	src   int      // first VP of the sending processor
	tails []tail   // per cell (cellIndex)
	slots []int    // the cell each slot's tail belongs to; -1: free
	imgs  []uint64 // the slots' images, B words each
	open  int      // slots taken
	acct  *mem.Accountant
}

// reset empties the packer for a superstep of the processor whose first
// VP is src, over the processor's memory.
func (pk *streamPacker) reset(sh *simShape, src int, acct *mem.Accountant, bufs *stepBufs) {
	cells := sh.cfg.P * sh.batches
	*pk = streamPacker{sh: sh, src: src, acct: acct,
		tails: grow(&bufs.tails, cells),
		slots: grow(&bufs.tailSlots, min(sh.muBlocks, cells)),
	}
	pk.imgs = fit(&bufs.tailImgs, len(pk.slots)*sh.cfg.B)
	for i := range pk.tails {
		pk.tails[i] = tail{slot: -1}
	}
	for i := range pk.slots {
		pk.slots[i] = -1
	}
}

// maxBlocks bounds the blocks an add of words record words to cells
// cells, with a close after it when last, can emit: the full blocks those
// words and the open tails fill, an eviction per cell where there are
// fewer slots than cells, and the tails the close finds.
func (pk *streamPacker) maxBlocks(words, cells int, last bool) int {
	for _, c := range pk.slots {
		if c >= 0 {
			words += pk.tails[c].fill
		}
	}
	n := words / chunkCap(pk.sh.cfg.B)
	if len(pk.slots) < len(pk.tails) {
		n += cells
	}
	if last {
		n += len(pk.slots)
	}
	return n
}

// add appends the records of outs, sorted by sortByCell, to their cells'
// streams, handing every block that leaves to emit (which must copy it).
func (pk *streamPacker) add(outs []outMsg, emit func(meta blockMeta, img []uint64) error) error {
	var rec [recordWords]uint64
	for _, m := range outs {
		cell := pk.sh.cellIndex(m.cell)
		if pk.tails[cell].slot < 0 {
			if err := pk.openTail(cell, emit); err != nil {
				return err
			}
		}
		rec[0], rec[1], rec[2], rec[3] = uint64(m.dst), uint64(m.src), uint64(m.seq), uint64(len(m.payload))
		if err := pk.write(cell, rec[:], emit); err != nil {
			return err
		}
		if err := pk.write(cell, m.payload, emit); err != nil {
			return err
		}
	}
	return nil
}

// close lets every open tail leave as its stream's last block, in cell
// order.
func (pk *streamPacker) close(emit func(meta blockMeta, img []uint64) error) error {
	for cell := range pk.tails {
		if pk.tails[cell].slot >= 0 {
			if err := pk.leave(cell, true, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// openTail gives cell a slot, evicting the fullest tail when none is
// free.
func (pk *streamPacker) openTail(cell int, emit func(meta blockMeta, img []uint64) error) error {
	if pk.open == len(pk.slots) {
		fullest := pk.slots[0]
		for _, c := range pk.slots[1:] {
			if pk.tails[c].fill > pk.tails[fullest].fill {
				fullest = c
			}
		}
		if err := pk.leave(fullest, true, emit); err != nil {
			return err
		}
	}
	if err := pk.acct.Grab(int64(pk.sh.cfg.B)); err != nil {
		return err
	}
	s := slices.Index(pk.slots, -1)
	pk.slots[s], pk.tails[cell].slot = cell, s
	pk.open++
	return nil
}

// write appends ws to cell's open tail; a full tail leaves, not last,
// only once a word needs its room.
func (pk *streamPacker) write(cell int, ws []uint64, emit func(meta blockMeta, img []uint64) error) error {
	B, t := pk.sh.cfg.B, &pk.tails[cell]
	for len(ws) > 0 {
		if t.fill == chunkCap(B) {
			if err := pk.leave(cell, false, emit); err != nil {
				return err
			}
		}
		img := pk.imgs[t.slot*B : (t.slot+1)*B]
		n := copy(img[headerWords+t.fill:], ws)
		t.fill, ws = t.fill+n, ws[n:]
	}
	return nil
}

// leave emits cell's tail. A last block ends the stream and frees the
// slot, so the cell's next record opens its next stream; any other block
// is followed by the stream's next chunk in the same slot.
func (pk *streamPacker) leave(cell int, last bool, emit func(meta blockMeta, img []uint64) error) error {
	sh, t := pk.sh, &pk.tails[cell]
	img := pk.imgs[t.slot*sh.cfg.B : (t.slot+1)*sh.cfg.B]
	meta := blockMeta{dst: cell/sh.batches*sh.vpp + cell%sh.batches*sh.k, src: pk.src, seq: t.seq, chunk: t.chunk}
	clear(img[headerWords+t.fill:])
	img[0], img[1], img[2], img[3], img[4] = uint64(meta.dst), uint64(meta.src), uint64(meta.seq), uint64(meta.chunk), uint64(t.fill)<<1
	if last {
		img[4] |= 1
	}
	err := emit(meta, img)
	t.fill, t.chunk = 0, t.chunk+1
	if last {
		pk.slots[t.slot], t.slot, t.seq, t.chunk = -1, -1, t.seq+1, 0
		pk.open--
		pk.acct.Release(int64(sh.cfg.B))
	}
	return err
}

// parseBlock reads a block image's header.
func parseBlock(img []uint64) (meta blockMeta, fill int, last bool) {
	return blockMeta{
		dst:   int(img[0]),
		src:   int(img[1]),
		seq:   int(img[2]),
		chunk: int(img[3]),
	}, int(min(img[4]>>1, 1<<32)), img[4]&1 == 1
}

// metaCmp is the canonical block order: by destination cell, then
// sending processor, stream and chunk. Blocks sorted this way
// concatenate into their streams.
func metaCmp(a, b blockMeta) int {
	return cmp.Or(cmp.Compare(a.dst, b.dst), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq), cmp.Compare(a.chunk, b.chunk))
}

// streamError reports a damaged stream: blocks that do not run on, or
// records that do not fit the stream or the group.
type streamError struct {
	cell, sender, stream int // the stream's header: destination cell, sending processor's first VP, stream number
	reason               string
}

func (e *streamError) Error() string {
	return fmt.Sprintf("core: stream %d (cell %d, from processor at VP %d) %s", e.stream, e.cell, e.sender, e.reason)
}

// segment is the records [lo, hi) of reassembled stream words that one
// sending batch, whose first record comes from VP src, sent a cell.
type segment struct{ src, lo, hi int }

// reassemble turns the block images of one group's incoming traffic
// into per-VP message lists. blocks[i] is the i-th block image (length
// B each, concatenated in buf); metas[i] its directory entry. Every
// stream's chunks must run on from 0, each full but the one last, and
// its records must come from the sending processor's VPs and go to the
// group's. The result maps local VP offsets (dst - loVP) to messages in
// canonical (Src, Seq) delivery order, nil for a VP that received none.
// (A block's padding must be zero, so a fill that loses a record's words
// shows unless the record is all zeros.)
// All of it is the processor's memory (bufs): the streams laid end to
// end in msgMem, which the payloads alias, and the lists
// capacity-limited runs of msgList — valid until the next reassemble on
// the same bufs.
func (sh *simShape) reassemble(buf []uint64, metas []blockMeta, loVP, hiVP int, bufs *stepBufs) ([][]bsp.Message, error) {
	B := sh.cfg.B
	order := grow(&bufs.order, len(metas))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return metaCmp(metas[i], metas[j]) })

	// A stream word is one of some block's C payload words, so the
	// streams fit the input's words. Their concatenation is a run of
	// whole records, which the second pass below places.
	mem, used, nmsgs := fit(&bufs.msgMem, len(buf)), 0, 0
	counts := grow(&bufs.counts, hiVP-loVP)
	clear(counts)
	segs := bufs.segs[:0]
	c := chunkCap(B)
	for i := 0; i < len(order); {
		m := metas[order[i]]
		bad := func(format string, a ...any) error {
			return &streamError{cell: m.dst, sender: m.src, stream: m.seq, reason: fmt.Sprintf(format, a...)}
		}
		switch {
		case m.dst < loVP || m.dst >= hiVP:
			return nil, bad("routed to group [%d,%d)", loVP, hiVP)
		case m.src < 0 || m.src >= sh.v || m.src%sh.vpp != 0:
			return nil, bad("names no processor's first VP")
		}
		start, j, last := used, 0, -1
		for ; i+j < len(order) && metas[order[i+j]].dst == m.dst && metas[order[i+j]].src == m.src && metas[order[i+j]].seq == m.seq; j++ {
			entry, img := metas[order[i+j]], buf[order[i+j]*B:(order[i+j]+1)*B]
			hdr, fill, isLast := parseBlock(img)
			switch {
			case hdr != entry:
				return nil, bad("has a block whose header %v is not its directory entry %v", hdr, entry)
			case hdr.chunk < j:
				return nil, bad("repeats chunk %d", hdr.chunk)
			case hdr.chunk > j:
				return nil, bad("is missing chunk %d", j)
			case last >= 0 && isLast:
				return nil, bad("has two last chunks, %d and %d", last, j)
			case last >= 0:
				return nil, bad("has chunk %d past its last chunk %d", j, last)
			case fill < 1 || fill > c:
				return nil, bad("has chunk %d holding %d words, not 1 to %d", j, fill, c)
			case !isLast && fill < c:
				return nil, bad("has chunk %d short of full (%d of %d words) and not last", j, fill, c)
			case slices.ContainsFunc(img[headerWords+fill:], func(w uint64) bool { return w != 0 }):
				return nil, bad("has chunk %d holding words past its fill of %d", j, fill)
			}
			if isLast {
				last = j
			}
			used += copy(mem[used:], img[headerWords:headerWords+fill])
		}
		if last < 0 {
			return nil, bad("has no last chunk (it ends at chunk %d)", j-1)
		}
		i += j
		stream, total := mem[start:used], used-start
		for p := 0; p < total; {
			if p+recordWords > total || stream[p+3] > uint64(total-p-recordWords) {
				return nil, bad("has a record at word %d running past its end", p)
			}
			dst, src, n := int(stream[p]), stream[p+1], int(stream[p+3])
			if dst < loVP || dst >= hiVP {
				return nil, bad("carries a message for VP %d into group [%d,%d)", dst, loVP, hiVP)
			}
			if src < uint64(m.src) || src >= uint64(min(m.src+sh.vpp, sh.v)) {
				return nil, bad("carries a message from VP %d, which its sender does not own", src)
			}
			if b := sh.batchOf(int(src)); p == 0 || b != sh.batchOf(segs[len(segs)-1].src) {
				segs = append(segs, segment{src: int(src), lo: start + p})
			}
			segs[len(segs)-1].hi = start + p + recordWords + n
			counts[dst-loVP]++
			nmsgs++
			p += recordWords + n
		}
	}

	// A cell is a whole batch, so the messages of its VPs interleave in
	// a stream: count, then place each VP's in a run of the list. A
	// stream holds its sender's batches in round order, which is
	// descending in even supersteps (batchAt), and a batch's records in
	// (source, sequence) order; placing the batches' segments in the order
	// of their sources hands every VP its messages in canonical order.
	slices.SortFunc(segs, func(a, b segment) int { return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.lo, b.lo)) })
	bufs.segs = segs
	msgs, out := grow(&bufs.msgList, nmsgs), grow(&bufs.inMsgs, hiVP-loVP)
	for i, off := 0, 0; i < len(out); i++ {
		out[i] = nil
		if n := counts[i]; n > 0 {
			out[i], off = msgs[off:off:off+n], off+n
		}
	}
	for _, sg := range segs {
		for p := sg.lo; p < sg.hi; {
			dst, src, seq, n := int(mem[p]), int(mem[p+1]), int(mem[p+2]), int(mem[p+3])
			p += recordWords + n
			out[dst-loVP] = append(out[dst-loVP], bsp.Message{Src: src, Dst: dst, Seq: seq, Payload: mem[p-n : p : p]})
		}
	}
	return out, nil
}

// groupOf maps a destination VP to its simulation group of k
// consecutive VPs.
func groupOf(dst, k int) int { return dst / k }
