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
//	dst<<32 | src, seq<<32 | len, payload…
//
// (destination VP, source VP, per-source sequence number, payload
// length: v and γ fit 32 bits, checkProgram) appended to the stream its
// sending processor keeps, for the superstep, for the message's
// destination cell — a batch of one owner's VPs, named by its first VP.
// Each round appends its batch's records, sorted stably by cell, so a
// stream carries all of the processor's batches' messages for the cell,
// in round order; it is cut every C = B - 5 words. A block image is
//
//	word 0: first VP of the destination cell
//	word 1: first VP of the sending processor
//	word 2: stream number: 0, or more after an eviction (streamPacker)
//	word 3: chunk index within the stream
//	word 4: fill<<1 | last: the stream words the block holds, and whether it ends the stream
//	words 5..B-1: those words, then zeros or a shared block's later segments
//
// so a block is self-describing and every block of a stream but its
// last is full. Records straddle block edges freely; a message longer
// than a block is just a long record. A last block short of full may
// share its block with other streams' last blocks for the same cell
// (shareTails): each later segment is
//
//	sender's first VP, stream number, chunk index, fill<<1 | 1, its words
//
// and the words after the block's last segment are zero. DESIGN.md §21
// argues the cell rule, the delivery order and the sharing.

// blockMeta is the engine's directory entry for one message block.
type blockMeta struct {
	dst   int
	src   int
	seq   int
	chunk int
}

// recordWords is the per-message header of a stream record, and
// segWords that of a shared block's later segment.
const (
	recordWords = 2
	segWords    = 4
)

// chunkCap returns C, the stream words one message block carries.
func chunkCap(B int) int { return B - headerWords }

// half is the largest value a record field holds: a record packs two
// fields a word.
const half = 1<<32 - 1

// RecordFieldError reports a program whose VP count or γ does not fit
// the 32-bit fields of a message record: a VP, a sequence number and a
// payload length take half a word each, and a VP sends at most γ
// messages of at most γ - 1 payload words.
type RecordFieldError struct {
	Field string // "v" or "γ"
	Value int
}

func (e *RecordFieldError) Error() string {
	return fmt.Sprintf("core: %s = %d does not fit a message record's 32-bit field", e.Field, e.Value)
}

// checkProgram validates p's declarations for the engine: bsp's checks,
// and v and γ within a record field.
func checkProgram(p bsp.Program) error {
	if err := bsp.CheckProgram(p); err != nil {
		return err
	}
	if v := p.NumVPs(); v > half {
		return &RecordFieldError{Field: "v", Value: v}
	}
	if g := p.MaxCommWords(); g > half {
		return &RecordFieldError{Field: "γ", Value: g}
	}
	return nil
}

// parseRecord reads the record header at stream[p:p+recordWords].
func parseRecord(stream []uint64, p int) (dst, src, seq, n int) {
	return int(stream[p] >> 32), int(stream[p] & half), int(stream[p+1] >> 32), int(stream[p+1] & half)
}

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
		rec[0], rec[1] = uint64(m.dst)<<32|uint64(m.src), uint64(m.seq)<<32|uint64(len(m.payload))
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

// shares reports whether the block image img is its stream's last block
// and short of full: a tail that may share a block (shareTails).
func shares(img []uint64) bool {
	_, fill, last := parseBlock(img)
	return last && fill < chunkCap(len(img))
}

// metaCmp is the canonical block order: by destination cell, then
// sending processor, stream and chunk. Blocks sorted this way
// concatenate into their streams.
func metaCmp(a, b blockMeta) int {
	return cmp.Or(cmp.Compare(a.dst, b.dst), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq), cmp.Compare(a.chunk, b.chunk))
}

// shareTails packs one processor's tails — the blocks that shares
// admits, of a superstep's last round, in which every sender closes its
// streams — into shared blocks: per destination cell, in (sender, stream)
// order, a tail goes into the first of the cell's blocks with room for it
// (first fit). A block's first segment keeps its tail's header, a later
// one takes segWords of its own, and the block is listed in the
// directory under its first. The blocks are a function of the set of
// tails, whatever order they came in. Each is built in the image next
// returns and handed to emit with its directory entry; tails is sorted in
// place.
func shareTails(tails []wireBlock, bufs *stepBufs, next func() []uint64, emit func(meta blockMeta) error) error {
	slices.SortFunc(tails, func(a, b wireBlock) int { return metaCmp(a.meta, b.meta) })
	// first[t] is the tail whose block tail t joins, itself when it opens
	// one, and room[t], for a tail that opens one, the words left in it.
	first, room := grow(&bufs.first, len(tails)), grow(&bufs.room, len(tails))
	for lo, hi := 0, 0; lo < len(tails); lo = hi {
		for hi = lo; hi < len(tails) && tails[hi].meta.dst == tails[lo].meta.dst; hi++ {
			_, fill, _ := parseBlock(tails[hi].img)
			first[hi], room[hi] = hi, len(tails[hi].img)-headerWords-fill
			for b := lo; b < hi; b++ {
				if first[b] == b && room[b] >= segWords+fill {
					first[hi], room[b] = b, room[b]-segWords-fill
					break
				}
			}
		}
		for b := lo; b < hi; b++ {
			if first[b] != b {
				continue
			}
			img := next()
			_, fill, _ := parseBlock(tails[b].img)
			p := copy(img, tails[b].img[:headerWords+fill])
			for t := b + 1; t < hi; t++ {
				if first[t] == b {
					m, tail := tails[t].meta, tails[t].img
					_, fill, _ := parseBlock(tail)
					img[p], img[p+1], img[p+2], img[p+3] = uint64(m.src), uint64(m.seq), uint64(m.chunk), uint64(fill)<<1|1
					p += segWords + copy(img[p+segWords:], tail[headerWords:headerWords+fill])
				}
			}
			clear(img[p:])
			if err := emit(tails[b].meta); err != nil {
				return err
			}
		}
	}
	return nil
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

// segment is one chunk of a stream as an input block holds it: the
// block's first, or a later one of a shared block. Its words are
// buf[off:off+fill]; from word end on its block must be zero (end is B
// but on the block's last segment).
type segment struct {
	meta           blockMeta
	block          int
	off, fill, end int
	last           bool
}

// splitBlocks appends to segs the segments of the B-word blocks in buf:
// each block's first, whose header is its directory entry, and, where
// that ends its stream short of full, the later ones the block shares —
// each a last chunk that fits the block, of a stream after the one
// before it in (sender, stream) order, as shareTails writes them — until
// the word where the next one's fill word would be is zero. So a nonzero
// word in a block's padding is an error: a segment it seems to start is
// stream 0 of VP 0, which no segment follows.
func splitBlocks(buf []uint64, B int, segs []segment) ([]segment, error) {
	for i := 0; i < len(buf)/B; i++ {
		img := buf[i*B : (i+1)*B]
		hdr, fill, last := parseBlock(img)
		segs = append(segs, segment{meta: hdr, block: i, off: i*B + headerWords, fill: fill, end: B, last: last})
		if fill < 1 || fill > chunkCap(B) {
			continue // its stream's checks name it
		}
		p, prev := headerWords+fill, img[1:3] // the sender and stream of the segment before
		for last && p+segWords <= B && img[p+segWords-1] != 0 {
			m := blockMeta{dst: hdr.dst, src: int(img[p]), seq: int(img[p+1]), chunk: int(img[p+2])}
			n, left := int(min(img[p+3]>>1, 1<<32)), B-p-segWords
			bad := func(format string, a ...any) error {
				return &streamError{cell: m.dst, sender: m.src, stream: m.seq, reason: fmt.Sprintf(format, a...)}
			}
			switch {
			case slices.Compare(img[p:p+2], prev) <= 0:
				return segs, bad("has chunk %d sharing a block after stream %d from VP %d, out of (sender, stream) order", m.chunk, prev[1], prev[0])
			case img[p+3]&1 == 0:
				return segs, bad("has chunk %d sharing a block and not last", m.chunk)
			case n < 1 || n > left:
				return segs, bad("has chunk %d holding %d words, not 1 to the %d its shared block has left", m.chunk, n, left)
			}
			prev = img[p : p+2]
			p += segWords
			segs = append(segs, segment{meta: m, block: i, off: i*B + p, fill: n, end: B, last: true})
			p += n
		}
		segs[len(segs)-1].end = p
	}
	return segs, nil
}

// run is the records [lo, hi) of reassembled stream words that one
// sending batch, whose first record comes from VP src, sent a cell.
type run struct{ src, lo, hi int }

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
	B, c := sh.cfg.B, chunkCap(sh.cfg.B)
	segs, err := splitBlocks(buf, B, bufs.segs[:0])
	bufs.segs = segs
	if err != nil {
		return nil, err
	}
	slices.SortFunc(segs, func(a, b segment) int { return cmp.Or(metaCmp(a.meta, b.meta), cmp.Compare(a.off, b.off)) })

	// A stream word is one of some block's payload words, so the streams
	// fit the input's words. Their concatenation is a run of whole
	// records, which the second pass below places.
	mem, used, nmsgs := fit(&bufs.msgMem, len(buf)), 0, 0
	counts := grow(&bufs.counts, hiVP-loVP)
	clear(counts)
	runs := bufs.runs[:0]
	for i := 0; i < len(segs); {
		m := segs[i].meta
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
		for ; i+j < len(segs) && segs[i+j].meta.dst == m.dst && segs[i+j].meta.src == m.src && segs[i+j].meta.seq == m.seq; j++ {
			s := segs[i+j]
			switch {
			case s.off == s.block*B+headerWords && s.meta != metas[s.block]: // a block's first segment
				return nil, bad("has a block whose header %v is not its directory entry %v", s.meta, metas[s.block])
			case s.meta.chunk < j:
				return nil, bad("repeats chunk %d", s.meta.chunk)
			case s.meta.chunk > j:
				return nil, bad("is missing chunk %d", j)
			case last >= 0 && s.last:
				return nil, bad("has two last chunks, %d and %d", last, j)
			case last >= 0:
				return nil, bad("has chunk %d past its last chunk %d", j, last)
			case s.fill < 1 || s.fill > c:
				return nil, bad("has chunk %d holding %d words, not 1 to %d", j, s.fill, c)
			case !s.last && s.fill < c:
				return nil, bad("has chunk %d short of full (%d of %d words) and not last", j, s.fill, c)
			case slices.ContainsFunc(buf[s.block*B+s.end:(s.block+1)*B], func(w uint64) bool { return w != 0 }):
				return nil, bad("has chunk %d holding words past its fill of %d", j, s.fill)
			}
			if s.last {
				last = j
			}
			used += copy(mem[used:], buf[s.off:s.off+s.fill])
		}
		if last < 0 {
			return nil, bad("has no last chunk (it ends at chunk %d)", j-1)
		}
		i += j
		stream, total := mem[start:used], used-start
		for p := 0; p < total; {
			if p+recordWords > total || int(stream[p+1]&half) > total-p-recordWords {
				return nil, bad("has a record at word %d running past its end", p)
			}
			dst, src, _, n := parseRecord(stream, p)
			if dst < loVP || dst >= hiVP {
				return nil, bad("carries a message for VP %d into group [%d,%d)", dst, loVP, hiVP)
			}
			if src < m.src || src >= min(m.src+sh.vpp, sh.v) {
				return nil, bad("carries a message from VP %d, which its sender does not own", src)
			}
			if b := sh.batchOf(src); p == 0 || b != sh.batchOf(runs[len(runs)-1].src) {
				runs = append(runs, run{src: src, lo: start + p})
			}
			runs[len(runs)-1].hi = start + p + recordWords + n
			counts[dst-loVP]++
			nmsgs++
			p += recordWords + n
		}
	}

	// A cell is a whole batch, so the messages of its VPs interleave in
	// a stream: count, then place each VP's in a run of the list. A
	// stream holds its sender's batches in round order, which is
	// descending in even supersteps (batchAt), and a batch's records in
	// (source, sequence) order; placing the batches' runs in the order of
	// their sources hands every VP its messages in canonical order.
	slices.SortFunc(runs, func(a, b run) int { return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.lo, b.lo)) })
	bufs.runs = runs
	msgs, out := grow(&bufs.msgList, nmsgs), grow(&bufs.inMsgs, hiVP-loVP)
	for i, off := 0, 0; i < len(out); i++ {
		out[i] = nil
		if n := counts[i]; n > 0 {
			out[i], off = msgs[off:off:off+n], off+n
		}
	}
	for _, r := range runs {
		for p := r.lo; p < r.hi; {
			dst, src, seq, n := parseRecord(mem, p)
			p += recordWords + n
			out[dst-loVP] = append(out[dst-loVP], bsp.Message{Src: src, Dst: dst, Seq: seq, Payload: mem[p-n : p : p]})
		}
	}
	return out, nil
}

// groupOf maps a destination VP to its simulation group of k
// consecutive VPs.
func groupOf(dst, k int) int { return dst / k }
