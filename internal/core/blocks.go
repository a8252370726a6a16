package core

import (
	"cmp"
	"fmt"
	"slices"

	"embsp/internal/bsp"
)

// Message blocks: packed streams. Step 1(d) of Algorithm
// SeqCompoundSuperstep cuts the generated messages into blocks of size
// B, and Theorem 1 counts those blocks full. So the messages a batch
// generates are not cut one by one: they are sorted stably by
// destination cell — a batch of one owner's VPs, named by its first VP —
// and each cell's messages are laid end to end as records
//
//	destination VP, source VP, per-source sequence number, payload length, payload…
//
// to form one stream, which is cut every C = B - 5 words. A block image is
//
//	word 0: first VP of the destination cell
//	word 1: first VP of the sending batch
//	word 2: 0
//	word 3: chunk index within the stream
//	word 4: total length of the stream, in words
//	words 5..B-1: stream words [chunk·C, min((chunk+1)·C, total)) (zero padded)
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

// sortByCell puts a batch's messages in packing order — stably by
// destination cell, so a cell's messages keep the (source, sequence)
// order they were generated in — and returns the number of blocks their
// streams cut into.
func (sh *simShape) sortByCell(outs []outMsg) (blocks int) {
	for i := range outs {
		outs[i].cell = sh.cellOf(outs[i].dst)
	}
	slices.SortStableFunc(outs, func(a, b outMsg) int { return a.cell - b.cell })
	c, total := chunkCap(sh.cfg.B), 0
	for i := range outs {
		total += recordWords + len(outs[i].payload)
		if i+1 == len(outs) || outs[i+1].cell != outs[i].cell {
			blocks += (total + c - 1) / c
			total = 0
		}
	}
	return blocks
}

// packStreams cuts the streams of outs, sorted by sortByCell and sent
// by the batch whose first VP is src, into block images, handing each
// to emit. img is the B-word image being filled; emit must copy it.
func packStreams(outs []outMsg, src int, img []uint64, emit func(meta blockMeta, img []uint64) error) error {
	var meta blockMeta
	total, fill := 0, headerWords
	flush := func() error {
		clear(img[fill:])
		img[0], img[1], img[2], img[3], img[4] = uint64(meta.dst), uint64(meta.src), 0, uint64(meta.chunk), uint64(total)
		err := emit(meta, img)
		meta.chunk, fill = meta.chunk+1, headerWords
		return err
	}
	write := func(ws []uint64) error {
		for len(ws) > 0 {
			n := copy(img[fill:], ws)
			if fill, ws = fill+n, ws[n:]; fill == len(img) {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var rec [recordWords]uint64
	for i := 0; i < len(outs); {
		meta, total = blockMeta{dst: outs[i].cell, src: src}, 0
		end := i
		for ; end < len(outs) && outs[end].cell == meta.dst; end++ {
			total += recordWords + len(outs[end].payload)
		}
		for ; i < end; i++ {
			m := outs[i]
			rec[0], rec[1], rec[2], rec[3] = uint64(m.dst), uint64(m.src), uint64(m.seq), uint64(len(m.payload))
			if err := write(rec[:]); err != nil {
				return err
			}
			if err := write(m.payload); err != nil {
				return err
			}
		}
		if fill > headerWords {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseBlock reads a block image's header.
func parseBlock(img []uint64) (meta blockMeta, totalLen int) {
	return blockMeta{
		dst:   int(img[0]),
		src:   int(img[1]),
		seq:   int(img[2]),
		chunk: int(img[3]),
	}, int(img[4])
}

// metaCmp is the canonical block order: by destination cell, then
// sending batch, (sequence,) chunk. Blocks sorted this way concatenate
// into their streams, and the streams of a cell — whose sending batches
// hold ascending, disjoint ranges of source VPs — into the canonical
// (Src, Seq) message delivery order.
func metaCmp(a, b blockMeta) int {
	return cmp.Or(cmp.Compare(a.dst, b.dst), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq), cmp.Compare(a.chunk, b.chunk))
}

// reassemble turns the block images of one group's incoming traffic
// into per-VP message lists. blocks[i] is the i-th block image (length
// B each, concatenated in buf); metas[i] its directory entry. Every
// stream is checked against the total in each of its headers. The
// result maps local VP offsets (dst - loVP) to messages in canonical
// delivery order, nil for a VP that received none. All of it is the
// processor's memory (bufs): the streams laid end to end in msgMem,
// which the payloads alias, and the lists capacity-limited runs of
// msgList — valid until the next reassemble on the same bufs.
func reassemble(buf []uint64, metas []blockMeta, B, loVP, hiVP int, bufs *stepBufs) ([][]bsp.Message, error) {
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
	c := chunkCap(B)
	for i := 0; i < len(order); {
		m := metas[order[i]]
		_, total := parseBlock(buf[order[i]*B:])
		bad := func(format string, a ...any) error {
			return fmt.Errorf("core: stream (cell %d, from batch %d, %d words) %s", m.dst, m.src, total, fmt.Sprintf(format, a...))
		}
		if m.dst < loVP || m.dst >= hiVP {
			return nil, bad("routed to group [%d,%d)", loVP, hiVP)
		}
		chunks := (total + c - 1) / c
		if total < recordWords {
			return nil, bad("is shorter than a record")
		}
		start := used
		j := 0
		for ; i+j < len(order) && metas[order[i+j]].dst == m.dst && metas[order[i+j]].src == m.src; j++ {
			entry, img := metas[order[i+j]], buf[order[i+j]*B:(order[i+j]+1)*B]
			switch hdr, n := parseBlock(img); {
			case hdr != entry:
				return nil, bad("has a block whose header %v is not its directory entry %v", hdr, entry)
			case hdr.chunk != j:
				return nil, bad("is missing chunk %d", j)
			case n != total:
				return nil, bad("has a block that gives its length as %d", n)
			case j >= chunks:
				return nil, bad("has a block past its end, chunk %d of %d", j, chunks)
			}
			used += copy(mem[used:], img[headerWords:headerWords+min(c, total-j*c)])
		}
		if j < chunks {
			return nil, bad("truncated at chunk %d of %d", j, chunks)
		}
		i += j
		stream := mem[start:used]
		for p := 0; p < total; {
			if p+recordWords > total || stream[p+3] > uint64(total-p-recordWords) {
				return nil, bad("has a record at word %d running past its end", p)
			}
			dst, n := int(stream[p]), int(stream[p+3])
			if dst < loVP || dst >= hiVP {
				return nil, bad("carries a message for VP %d into group [%d,%d)", dst, loVP, hiVP)
			}
			counts[dst-loVP]++
			nmsgs++
			p += recordWords + n
		}
	}

	// A cell is a whole batch, so the messages of its VPs interleave in
	// a stream: count, then place each VP's in a run of the list.
	msgs, out := grow(&bufs.msgList, nmsgs), grow(&bufs.inMsgs, hiVP-loVP)
	for i, off := 0, 0; i < len(out); i++ {
		out[i] = nil
		if n := counts[i]; n > 0 {
			out[i], off = msgs[off:off:off+n], off+n
		}
	}
	for p := 0; p < used; {
		dst, src, seq, n := int(mem[p]), int(mem[p+1]), int(mem[p+2]), int(mem[p+3])
		p += recordWords + n
		out[dst-loVP] = append(out[dst-loVP], bsp.Message{Src: src, Dst: dst, Seq: seq, Payload: mem[p-n : p : p]})
	}
	return out, nil
}

// groupOf maps a destination VP to its simulation group of k
// consecutive VPs.
func groupOf(dst, k int) int { return dst / k }
