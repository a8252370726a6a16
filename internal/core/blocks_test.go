package core

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"embsp/internal/bsp"
	"embsp/internal/prng"
)

// streamShape is the part of a run's shape the message format reads.
func streamShape(p, vpp, k, D, B int) *simShape {
	return &simShape{cfg: MachineConfig{P: p, D: D, B: B}, v: p * vpp, vpp: vpp, k: k}
}

// batchRanges lists the VP range [lo, hi) of every batch of every
// processor, in VP order.
func batchRanges(sh *simShape) (ranges [][2]int) {
	for lo := 0; lo < sh.v; {
		hi := min(lo+sh.k, (lo/sh.vpp+1)*sh.vpp)
		ranges = append(ranges, [2]int{lo, hi})
		lo = hi
	}
	return ranges
}

// packBatch packs what the batch whose first VP is src sent, as the
// sinks do, and appends the block images and directory entries.
func packBatch(t testing.TB, sh *simShape, src int, outs []outMsg, buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
	t.Helper()
	want, before := sh.sortByCell(outs), len(metas)
	err := packStreams(outs, src, make([]uint64, sh.cfg.B), func(meta blockMeta, img []uint64) error {
		buf, metas = append(buf, img...), append(metas, meta)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(metas) - before; got != want {
		t.Fatalf("sortByCell promised %d blocks, packStreams emitted %d", want, got)
	}
	return buf, metas
}

// TestPackedStreamsRoundTrip: any set of messages — empty payloads,
// payloads longer than a block, records straddling block edges, one
// hot destination, the smallest legal block — survives pack → shuffle
// the blocks → reassemble per destination batch, and arrives in the
// canonical (source, sequence) order, in no more blocks than the
// streams' words need.
func TestPackedStreamsRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := prng.New(seed)
		B := headerWords + 1 + r.Intn(3)*r.Intn(12)
		sh := streamShape(1+r.Intn(3), 1+r.Intn(9), 1, 1+r.Intn(4), B)
		sh.k = 1 + r.Intn(sh.vpp)
		hot := r.Intn(sh.v)

		// A cell is named by its first VP and is one batch of one owner,
		// so a stream's blocks travel together and a batch's arrive whole.
		for id := 0; id < sh.v; id++ {
			c := sh.cellOf(id)
			if c != sh.owner(id)*sh.vpp+sh.batchOf(id)*sh.k || sh.cellOf(c) != c || sh.owner(c) != sh.owner(id) {
				t.Logf("seed %d: VP %d is in cell %d (vpp %d, k %d, D %d)", seed, id, c, sh.vpp, sh.k, sh.cfg.D)
				return false
			}
		}

		// Every batch of every processor sends, its VPs in order: the
		// order the computing phase generates messages in.
		want := make([][]bsp.Message, sh.v)
		var buf []uint64
		var metas []blockMeta
		encoded, streams := 0, 0
		for _, batch := range batchRanges(sh) {
			lo, hi := batch[0], batch[1]
			var outs []outMsg
			cells := map[int]bool{}
			for src := lo; src < hi; src++ {
				for seq, n := 0, r.Intn(6); seq < n; seq++ {
					dst := r.Intn(sh.v)
					if r.Intn(3) == 0 {
						dst = hot
					}
					payload := make([]uint64, []int{0, 1, r.Intn(B), B, 2*B + r.Intn(B)}[r.Intn(5)])
					for i := range payload {
						payload[i] = r.Uint64()
					}
					outs = append(outs, outMsg{dst: dst, src: src, seq: seq, payload: payload})
					want[dst] = append(want[dst], bsp.Message{Src: src, Dst: dst, Seq: seq, Payload: payload})
					encoded += recordWords + len(payload)
					cells[sh.cellOf(dst)] = true
				}
			}
			buf, metas = packBatch(t, sh, lo, outs, buf, metas)
			streams += len(cells)
		}
		if c := chunkCap(B); len(metas) > (encoded+c-1)/c+streams {
			t.Logf("seed %d: %d blocks for %d encoded words in %d streams at B=%d", seed, len(metas), encoded, streams, B)
			return false
		}

		// Shuffle, then deliver each block to its destination's batch,
		// as routing and the exchange do by directory entry alone.
		order := make([]int, len(metas))
		r.PermInto(order)
		var bufs stepBufs // one processor's memory, reused by every batch
		for _, batch := range batchRanges(sh) {
			lo, hi := batch[0], batch[1]
			var inBuf []uint64
			var inMetas []blockMeta
			for _, i := range order {
				if m := metas[i]; sh.owner(m.dst) == sh.owner(lo) && sh.batchOf(m.dst) == sh.batchOf(lo) {
					inBuf, inMetas = append(inBuf, buf[i*B:(i+1)*B]...), append(inMetas, m)
				}
			}
			got, err := reassemble(inBuf, inMetas, B, lo, hi, &bufs)
			if err != nil {
				t.Logf("seed %d: batch [%d,%d): %v", seed, lo, hi, err)
				return false
			}
			for id := lo; id < hi; id++ {
				if !slices.EqualFunc(got[id-lo], want[id], func(a, b bsp.Message) bool {
					return a.Src == b.Src && a.Dst == b.Dst && a.Seq == b.Seq && slices.Equal(a.Payload, b.Payload)
				}) {
					t.Logf("seed %d: VP %d received %v, want %v", seed, id, got[id-lo], want[id])
					return false
				}
				// The lists and payloads share the processor's memory: an
				// append to one must reallocate, not overwrite the next.
				if cap(got[id-lo]) != len(got[id-lo]) || slices.ContainsFunc(got[id-lo], func(m bsp.Message) bool { return cap(m.Payload) != len(m.Payload) }) {
					t.Logf("seed %d: VP %d's messages have room past their end", seed, id)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestReassembleRejectsDamage: every way a group's blocks can disagree
// with their streams' headers is an error that names the stream.
func TestReassembleRejectsDamage(t *testing.T) {
	const B, lo, hi = 8, 4, 8 // C = 3 words per block
	// Cells are batches: {4,5} and {6,7}, both routed to the group.
	sh := streamShape(1, 8, 2, 4, B)
	pack := func() ([]uint64, []blockMeta) {
		outs := []outMsg{
			{dst: 5, src: 0, seq: 0, payload: []uint64{1, 2, 3, 4, 5, 6}}, // cell 4: 10 + 4 words, 5 blocks
			{dst: 4, src: 1, seq: 0},
			{dst: 7, src: 1, seq: 1, payload: []uint64{7}}, // cell 6: 5 words, 2 blocks
		}
		return packBatch(t, sh, 0, outs, nil, nil)
	}
	if buf, metas := pack(); len(metas) != 7 {
		t.Fatalf("fixture packs into %d blocks, want 7", len(metas))
	} else if _, err := reassemble(buf, metas, B, lo, hi, new(stepBufs)); err != nil {
		t.Fatalf("undamaged fixture: %v", err)
	}
	for _, tc := range []struct {
		name   string
		damage func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta)
		want   string
	}{
		{"a dropped middle block", func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			return slices.Delete(buf, 2*B, 3*B), slices.Delete(metas, 2, 3)
		}, "stream (cell 4, from batch 0, 14 words) is missing chunk 2"},
		{"a dropped last block", func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			return buf[:6*B], metas[:6]
		}, "stream (cell 6, from batch 0, 5 words) truncated at chunk 1 of 2"},
		{"a swapped chunk index", func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			metas[1].chunk, metas[3].chunk = 3, 1
			return buf, metas
		}, "stream (cell 4, from batch 0, 14 words) has a block whose header"},
		{"a repeated chunk index", func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			metas[3].chunk, buf[3*B+3] = 1, 1
			return buf, metas
		}, "stream (cell 4, from batch 0, 14 words) is missing chunk 2"},
		{"headers that disagree on the total", func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			buf[4*B+4] = 15
			return buf, metas
		}, "stream (cell 4, from batch 0, 14 words) has a block that gives its length as 15"},
		{"a block past the end", func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			extra := slices.Clone(buf[6*B : 7*B])
			extra[3] = 2
			return append(buf, extra...), append(metas, blockMeta{dst: 6, chunk: 2})
		}, "stream (cell 6, from batch 0, 5 words) has a block past its end, chunk 2 of 2"},
		{"a record running past its stream", func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			buf[6*B+headerWords]++ // the length word of cell 6's only record
			return buf, metas
		}, "stream (cell 6, from batch 0, 5 words) has a record at word 0 running past its end"},
		{"a destination outside the group", func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			buf[5*B+headerWords] = 3
			return buf, metas
		}, "stream (cell 6, from batch 0, 5 words) carries a message for VP 3 into group [4,8)"},
		{"a stream of another group", func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			for i := 5; i < 7; i++ {
				metas[i].dst, buf[i*B] = 8, 8
			}
			return buf, metas
		}, "stream (cell 8, from batch 0, 5 words) routed to group [4,8)"},
	} {
		buf, metas := tc.damage(pack())
		if _, err := reassemble(buf, metas, B, lo, hi, new(stepBufs)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
