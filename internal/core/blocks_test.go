package core

import (
	"cmp"
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"embsp/internal/bsp"
	"embsp/internal/mem"
	"embsp/internal/prng"
)

// streamShape is the part of a run's shape the message format reads: v
// VPs on p processors, batches of k, and a tail for every cell (no
// eviction) unless the caller lowers muBlocks.
func streamShape(p, v, k, D, B int) *simShape {
	sh := &simShape{cfg: MachineConfig{P: p, D: D, B: B}, v: v, vpp: (v + p - 1) / p, k: k}
	sh.batches = (sh.vpp + k - 1) / k
	sh.muBlocks = p * sh.batches
	return sh
}

// batchVPs returns the VP range [lo, hi) of processor o's batch j,
// empty past the processor's last VP.
func batchVPs(sh *simShape, o, j int) (lo, hi int) {
	end := min((o+1)*sh.vpp, sh.v)
	return min(o*sh.vpp+j*sh.k, end), min(o*sh.vpp+(j+1)*sh.k, end)
}

// sentBlocks is one superstep's message blocks, as the sinks leave them.
type sentBlocks struct {
	buf   []uint64
	metas []blockMeta
	round []int // the round each block left in
}

// sendStep packs superstep step's traffic as the processors' sinks do:
// each processor appends its batches' messages (sent[o][j], generated in
// VP order) in the order of the superstep's rounds and closes its
// streams in its last round, empty batch or not. It checks the packer's
// promises on the way: no more blocks a round than maxBlocks, no more
// tails open than muBlocks, and every word given back at the close.
func sendStep(t testing.TB, sh *simShape, step int, sent [][][]outMsg) (out sentBlocks) {
	t.Helper()
	B := sh.cfg.B
	var bufs stepBufs
	for o := 0; o < sh.cfg.P; o++ {
		acct := mem.NewAccountant(int64(sh.muBlocks * B))
		var pk streamPacker
		pk.reset(sh, o*sh.vpp, acct, &bufs)
		for r := 0; r < sh.batches; r++ {
			outs := slices.Clone(sent[o][sh.batchAt(step, r)])
			last, before := r == sh.batches-1, len(out.metas)
			words, cells := sh.sortByCell(outs)
			bound := pk.maxBlocks(words, cells, last)
			emit := func(meta blockMeta, img []uint64) error {
				if pk.open > sh.muBlocks {
					t.Fatalf("processor %d round %d: %d tails open, at most %d", o, r, pk.open, sh.muBlocks)
				}
				out.buf, out.metas, out.round = append(out.buf, img...), append(out.metas, meta), append(out.round, r)
				return nil
			}
			if err := pk.add(outs, emit); err != nil {
				t.Fatal(err)
			}
			if last {
				if err := pk.close(emit); err != nil {
					t.Fatal(err)
				}
			}
			if n := len(out.metas) - before; n > bound {
				t.Fatalf("processor %d round %d: %d blocks left, maxBlocks promised at most %d", o, r, n, bound)
			}
		}
		if pk.open != 0 || acct.Used() != 0 {
			t.Fatalf("processor %d: %d tails and %d words held after its last round", o, pk.open, acct.Used())
		}
	}
	return out
}

// shareStep packs s's last-round tails into shared blocks, as a writing
// phase packs those delivered to it (shareTails), and keeps the other
// blocks as they are. It checks that no segment went to a new block where an
// earlier block of its cell had room for it.
func shareStep(t testing.TB, sh *simShape, s sentBlocks) (out sentBlocks) {
	t.Helper()
	B := sh.cfg.B
	var tails []wireBlock
	for i, m := range s.metas {
		img := s.buf[i*B : (i+1)*B]
		if s.round[i] == sh.batches-1 && shares(img) {
			tails = append(tails, wireBlock{meta: m, img: img})
			continue
		}
		out.buf, out.metas, out.round = append(out.buf, img...), append(out.metas, m), append(out.round, s.round[i])
	}
	var bufs stepBufs
	var img []uint64
	free := map[int][]int{} // per cell, the words its shared blocks have left
	err := shareTails(tails, &bufs, func() []uint64 { img = make([]uint64, B); return img }, func(meta blockMeta) error {
		segs, end := blockSegs(img)
		for _, left := range free[meta.dst] {
			for _, sg := range segs {
				if segWords+sg.fill <= left {
					t.Fatalf("cell %d: a segment of %d words went to a new block, where an earlier one has %d left", meta.dst, sg.fill, left)
				}
			}
		}
		free[meta.dst] = append(free[meta.dst], B-end)
		out.buf, out.metas, out.round = append(out.buf, img...), append(out.metas, meta), append(out.round, sh.batches-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// segAt is one segment of a well-formed block image: its stream's chunk,
// where its words begin, how many there are, and where its fill word is.
type segAt struct {
	meta               blockMeta
	at, fill, fillWord int
}

// blockSegs lists the segments of a well-formed block image and returns
// where its zero padding begins.
func blockSegs(img []uint64) (segs []segAt, end int) {
	hdr, fill, last := parseBlock(img)
	segs = []segAt{{hdr, headerWords, fill, 4}}
	p := headerWords + fill
	for ; last && p+segWords <= len(img) && img[p+3] != 0; p += segWords + int(img[p+3]>>1) {
		m := blockMeta{dst: hdr.dst, src: int(img[p]), seq: int(img[p+1]), chunk: int(img[p+2])}
		segs = append(segs, segAt{m, p + segWords, int(img[p+3] >> 1), p + 3})
	}
	return segs, p
}

// deliver hands each block to its destination's batch, as the
// exchange and the fetch do by directory entry alone, in the order
// given, and reassembles every batch.
func deliver(sh *simShape, s sentBlocks, order []int, bufs *stepBufs, each func(lo, hi int, got [][]bsp.Message, err error) bool) {
	B := sh.cfg.B
	for o := 0; o < sh.cfg.P; o++ {
		for j := 0; j < sh.batches; j++ {
			lo, hi := batchVPs(sh, o, j)
			var inBuf []uint64
			var inMetas []blockMeta
			for _, i := range order {
				if m := s.metas[i]; sh.owner(m.dst) == o && sh.batchOf(m.dst) == j {
					inBuf, inMetas = append(inBuf, s.buf[i*B:(i+1)*B]...), append(inMetas, m)
				}
			}
			if lo == hi {
				continue
			}
			got, err := sh.reassemble(inBuf, inMetas, lo, hi, bufs)
			if !each(lo, hi, got, err) {
				return
			}
		}
	}
}

// randomTraffic draws every VP's messages for one superstep — empty
// payloads, payloads longer than a block, one hot destination — and
// returns them per processor and batch in generation order, with what
// each VP must receive in canonical order and the words they encode to.
func randomTraffic(r *prng.Rand, sh *simShape) (sent [][][]outMsg, want [][]bsp.Message, encoded int) {
	B, hot := sh.cfg.B, r.Intn(sh.v)
	want = make([][]bsp.Message, sh.v)
	sent = make([][][]outMsg, sh.cfg.P)
	for o := range sent {
		sent[o] = make([][]outMsg, sh.batches)
		for j := range sent[o] {
			lo, hi := batchVPs(sh, o, j)
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
					sent[o][j] = append(sent[o][j], outMsg{dst: dst, src: src, seq: seq, payload: payload})
					want[dst] = append(want[dst], bsp.Message{Src: src, Dst: dst, Seq: seq, Payload: payload})
					encoded += recordWords + len(payload)
				}
			}
		}
	}
	for _, list := range want {
		slices.SortFunc(list, func(a, b bsp.Message) int { return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Seq, b.Seq)) })
	}
	return sent, want, encoded
}

func sameMessages(a, b []bsp.Message) bool {
	return slices.EqualFunc(a, b, func(x, y bsp.Message) bool {
		return x.Src == y.Src && x.Dst == y.Dst && x.Seq == y.Seq && slices.Equal(x.Payload, y.Payload)
	})
}

// TestPackedStreamsRoundTrip: any superstep's messages — from several
// sending batches a processor, in ascending or descending round order,
// on one to three processors (the last possibly short, so that its
// last round's batch is empty), records straddling block edges, one hot
// destination, the smallest legal block, few tails or many — survive
// pack → share the last round's tails → shuffle the blocks → reassemble
// per destination batch, and arrive in the canonical (source, sequence)
// order, in no more blocks than the streams' words need plus one partial
// block a stream, and with every stream's last block leaving in its
// processor's last round. Sharing writes no more blocks than it was
// given, and at B = 32 and up, where short tails fit twice, some seeds
// must share.
func TestPackedStreamsRoundTrip(t *testing.T) {
	shared := 0
	f := func(seed uint64) bool {
		r := prng.New(seed)
		B := headerWords + 1 + r.Intn(3)*r.Intn(12)
		if r.Intn(4) == 0 {
			B = 32 + r.Intn(32)
		}
		p := 1 + r.Intn(3)
		vpp := 1 + r.Intn(9)
		sh := streamShape(p, p*vpp-r.Intn(vpp), 1+r.Intn(vpp), 1+r.Intn(4), B)
		if r.Intn(2) == 0 {
			sh.muBlocks = 1 + r.Intn(sh.muBlocks)
		}

		// A cell is named by its first VP and is one batch of one owner,
		// so a stream's blocks travel together and a batch's arrive whole.
		for id := 0; id < sh.v; id++ {
			c := sh.cellOf(id)
			if c != sh.owner(id)*sh.vpp+sh.batchOf(id)*sh.k || sh.cellOf(c) != c || sh.owner(c) != sh.owner(id) {
				t.Logf("seed %d: VP %d is in cell %d (vpp %d, k %d)", seed, id, c, sh.vpp, sh.k)
				return false
			}
		}

		for step := 0; step < 2; step++ {
			sent, want, encoded := randomTraffic(r, sh)
			packed := sendStep(t, sh, step, sent)
			streams := 0
			for i, m := range packed.metas {
				if m.chunk == 0 {
					streams++
				}
				if packed.buf[i*B+4]&1 == 1 && sh.muBlocks == sh.cfg.P*sh.batches && packed.round[i] != sh.batches-1 {
					t.Logf("seed %d step %d: stream %+v ends in round %d of %d with a tail for every cell", seed, step, m, packed.round[i], sh.batches)
					return false
				}
			}
			if c := chunkCap(B); len(packed.metas) > (encoded+c-1)/c+streams {
				t.Logf("seed %d: %d blocks for %d encoded words in %d streams at B=%d", seed, len(packed.metas), encoded, streams, B)
				return false
			}
			s := shareStep(t, sh, packed)
			if len(s.metas) > len(packed.metas) {
				t.Logf("seed %d step %d: sharing made %d blocks of %d", seed, step, len(s.metas), len(packed.metas))
				return false
			}
			shared += len(packed.metas) - len(s.metas)
			order := make([]int, len(s.metas))
			r.PermInto(order)
			var bufs stepBufs // one processor's memory, reused by every batch
			ok := true
			deliver(sh, s, order, &bufs, func(lo, hi int, got [][]bsp.Message, err error) bool {
				if err != nil {
					t.Logf("seed %d step %d: batch [%d,%d): %v", seed, step, lo, hi, err)
					ok = false
					return false
				}
				for id := lo; id < hi; id++ {
					if !sameMessages(got[id-lo], want[id]) {
						t.Logf("seed %d step %d: VP %d received %v, want %v", seed, step, id, got[id-lo], want[id])
						ok = false
						return false
					}
					// The lists and payloads share the processor's memory: an
					// append to one must reallocate, not overwrite the next.
					if cap(got[id-lo]) != len(got[id-lo]) || slices.ContainsFunc(got[id-lo], func(m bsp.Message) bool { return cap(m.Payload) != len(m.Payload) }) {
						t.Logf("seed %d: VP %d's messages have room past their end", seed, id)
						ok = false
						return false
					}
				}
				return true
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if shared == 0 {
		t.Error("no seed shared a block")
	}
}

// TestTailsLeaveInTheLastRound: a processor whose last round's batch is
// empty still sends its open tails in that round, each its stream's
// last block, one stream per (sending processor, cell).
func TestTailsLeaveInTheLastRound(t *testing.T) {
	// VPs 0–6 on two processors, one VP a batch: processor 1 owns 4–6, so
	// its batch 3 is empty, and it is the last round of odd supersteps.
	sh := streamShape(2, 7, 1, 4, 8)
	sent := [][][]outMsg{
		{{{dst: 5, src: 0, payload: []uint64{1, 2, 3, 4}}}, {{dst: 5, src: 1}}, {{dst: 0, src: 2, payload: []uint64{5}}}, nil},
		{{{dst: 0, src: 4, payload: []uint64{6, 7}}}, {{dst: 0, src: 5}}, {{dst: 5, src: 6}}, nil},
	}
	for step := 0; step < 2; step++ {
		s := sendStep(t, sh, step, sent)
		streams := map[[2]int]int{}
		for i, m := range s.metas {
			if s.buf[i*sh.cfg.B+4]&1 == 1 {
				streams[[2]int{m.dst, m.src}]++
				if s.round[i] != sh.batches-1 {
					t.Errorf("step %d: stream %+v ends in round %d, want the last, %d", step, m, s.round[i], sh.batches-1)
				}
			}
		}
		if want := map[[2]int]int{{5, 0}: 1, {0, 0}: 1, {0, 4}: 1, {5, 4}: 1}; !maps.Equal(streams, want) {
			t.Errorf("step %d: last blocks per (cell, sender) %v, want %v", step, streams, want)
		}
	}
}

// TestReassembleRejectsDamage: every way a group's blocks can disagree
// with their streams' rules is a *streamError that names the stream.
func TestReassembleRejectsDamage(t *testing.T) {
	const B, lo, hi = 8, 4, 6 // C = 3 words per block
	// VPs 0–7 on two processors, batches of two: the group is processor
	// 1's batch {4,5}, cell 4. Processor 0 sends it a stream of 20 words
	// from both its batches (7 blocks), processor 1 one of 5 (2 blocks).
	// Their last blocks, of 2 words each, do not fit one block together.
	sh := streamShape(2, 8, 2, 4, B)
	sent := [][][]outMsg{
		{
			{{dst: 5, src: 0, payload: []uint64{1, 2, 3, 4, 5, 6}}, {dst: 4, src: 1}},
			{{dst: 5, src: 3, payload: []uint64{8, 9, 10, 11, 12, 13, 14, 15}}},
		},
		{{{dst: 4, src: 4, payload: []uint64{7, 8, 9}}}, nil},
	}
	pack := func() ([]uint64, []blockMeta) {
		s := shareStep(t, sh, sendStep(t, sh, 1, sent))
		return s.buf, s.metas
	}
	at := func(metas []blockMeta, src, chunk int) int {
		return slices.IndexFunc(metas, func(m blockMeta) bool { return m.src == src && m.chunk == chunk })
	}
	if buf, metas := pack(); len(metas) != 9 {
		t.Fatalf("fixture packs into %d blocks, want 9", len(metas))
	} else if got, err := sh.reassemble(buf, metas, lo, hi, new(stepBufs)); err != nil {
		t.Fatalf("undamaged fixture: %v", err)
	} else if len(got[0]) != 2 || len(got[1]) != 2 || got[0][0].Src != 1 || got[1][1].Src != 3 {
		t.Fatalf("undamaged fixture delivers %v", got)
	}

	// The same group at B = 24 (C = 19): processor 0's stream of 5 words
	// and processor 1's of 3 share one block, the second at word 10 —
	// its header src, seq, chunk, fill<<1|1 at words 10 to 13, its
	// record at 14 to 16 — and words 17 to 23 are padding.
	const sB = 24
	ssh := streamShape(2, 8, 2, 4, sB)
	ssent := [][][]outMsg{
		{{{dst: 5, src: 0, payload: []uint64{1, 2, 3}}}, nil},
		{{{dst: 4, src: 4, payload: []uint64{7}}}, nil},
	}
	spack := func() ([]uint64, []blockMeta) {
		s := shareStep(t, ssh, sendStep(t, ssh, 1, ssent))
		return s.buf, s.metas
	}
	if buf, metas := spack(); len(metas) != 1 || buf[13] != 3<<1|1 {
		t.Fatalf("shared fixture packs into %d blocks (%v), want one shared", len(metas), buf)
	} else if got, err := ssh.reassemble(buf, metas, lo, hi, new(stepBufs)); err != nil {
		t.Fatalf("undamaged shared fixture: %v", err)
	} else if len(got[0]) != 1 || len(got[1]) != 1 || got[0][0].Src != 4 || got[1][0].Src != 0 {
		t.Fatalf("undamaged shared fixture delivers %v", got)
	}

	type damage func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta)
	for _, tc := range []struct {
		name           string
		shared         bool
		damage         damage
		sender, stream int
		want           string
	}{
		{"a dropped middle block", false, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			i := at(metas, 0, 2)
			return slices.Delete(buf, i*B, (i+1)*B), slices.Delete(metas, i, i+1)
		}, 0, 0, "is missing chunk 2"},
		{"no last chunk", false, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			i := at(metas, 0, 6)
			return slices.Delete(buf, i*B, (i+1)*B), slices.Delete(metas, i, i+1)
		}, 0, 0, "has no last chunk (it ends at chunk 5)"},
		{"two last chunks", false, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			buf[at(metas, 4, 0)*B+4] |= 1
			return buf, metas
		}, 4, 0, "has two last chunks, 0 and 1"},
		{"a non-last chunk that is not full", false, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			buf[at(metas, 0, 1)*B+4] = 2 << 1
			return buf, metas
		}, 0, 0, "has chunk 1 short of full (2 of 3 words) and not last"},
		{"a fill past C", false, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			buf[at(metas, 0, 6)*B+4] = 4<<1 | 1
			return buf, metas
		}, 0, 0, "has chunk 6 holding 4 words, not 1 to 3"},
		{"a block past the end", false, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			i := at(metas, 0, 6)
			img := slices.Clone(buf[i*B : (i+1)*B])
			img[3], img[4] = 7, img[4]&^1 // chunk 7, not flagged last
			m := metas[i]
			m.chunk = 7
			return append(buf, img...), append(metas, m)
		}, 0, 0, "has chunk 7 past its last chunk 6"},
		{"a nonzero word past the fill", false, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			buf[at(metas, 0, 6)*B+B-1] = 9 // chunk 6 holds 20-18 = 2 of its 3 words
			return buf, metas
		}, 0, 0, "has chunk 6 holding words past its fill of 2"},
		{"two senders' chunks under one src", false, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			for _, c := range []int{0, 1} {
				i := at(metas, 4, c)
				metas[i].src, buf[i*B+1] = 0, 0
			}
			return buf, metas
		}, 0, 0, "repeats chunk 0"},
		{"another sender's records in a stream of its own", false, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			for _, c := range []int{0, 1} {
				i := at(metas, 4, c)
				metas[i].src, buf[i*B+1], metas[i].seq, buf[i*B+2] = 0, 0, 1, 1
			}
			return buf, metas
		}, 0, 1, "carries a message from VP 4, which its sender does not own"},
		{"a sender that is no processor's first VP", false, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			for _, c := range []int{0, 1} {
				i := at(metas, 4, c)
				metas[i].src, buf[i*B+1] = 5, 5
			}
			return buf, metas
		}, 5, 0, "names no processor's first VP"},
		{"a swapped chunk index", false, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			metas[at(metas, 0, 1)].chunk, metas[at(metas, 0, 3)].chunk = 3, 1
			return buf, metas
		}, 0, 0, "has a block whose header"},
		{"a record running past its stream", false, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			buf[at(metas, 4, 0)*B+headerWords+1]++ // the seq<<32|len word of the only record
			return buf, metas
		}, 4, 0, "has a record at word 0 running past its end"},
		{"a destination outside the group", false, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			buf[at(metas, 4, 0)*B+headerWords] = 3<<32 | 4
			return buf, metas
		}, 4, 0, "carries a message for VP 3 into group [4,6)"},
		{"a stream of another group", false, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			for _, c := range []int{0, 1} {
				i := at(metas, 4, c)
				metas[i].dst, buf[i*B] = 6, 6
			}
			return buf, metas
		}, 4, 0, "routed to group [4,6)"},
		{"a shared segment that is not a last chunk", true, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			buf[13] &^= 1
			return buf, metas
		}, 4, 0, "has chunk 0 sharing a block and not last"},
		{"a shared segment whose sender is another cell's", true, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			buf[10] = 2 // cell 2's first VP, processor 0's second batch
			return buf, metas
		}, 2, 0, "names no processor's first VP"},
		{"a shared segment's fill past the block's end", true, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			buf[13] = 11<<1 | 1
			return buf, metas
		}, 4, 0, "has chunk 0 holding 11 words, not 1 to the 10 its shared block has left"},
		{"two segments of one stream", true, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			buf[10] = 0 // processor 0's stream 0, which the first segment holds
			return buf, metas
		}, 0, 0, "has chunk 0 sharing a block after stream 0 from VP 0, out of (sender, stream) order"},
		{"a nonzero word after the last segment", true, func(buf []uint64, metas []blockMeta) ([]uint64, []blockMeta) {
			buf[sB-1] = 9
			return buf, metas
		}, 4, 0, "has chunk 0 holding words past its fill of 3"},
	} {
		fixture, s := pack, sh
		if tc.shared {
			fixture, s = spack, ssh
		}
		buf, metas := tc.damage(fixture())
		_, err := s.reassemble(buf, metas, lo, hi, new(stepBufs))
		var se *streamError
		if !errors.As(err, &se) || se.sender != tc.sender || se.stream != tc.stream || !strings.Contains(se.reason, tc.want) {
			t.Errorf("%s: got %v, want a stream error naming stream %d from VP %d: %q", tc.name, err, tc.stream, tc.sender, tc.want)
		}
	}

	// A fill word written into the padding of cell 0's one block, which
	// holds processor 1's stream alone (words 5 to 7), seems to start a
	// segment at word 8 of stream 0 from VP 0, whose two zero words are a
	// message from VP 0 to VP 0 that cell 0 would take: a later segment
	// must follow the one before it in (sender, stream) order.
	zs := sendStep(t, ssh, 1, [][][]outMsg{{nil, nil}, {{{dst: 0, src: 4, payload: []uint64{7}}}, nil}})
	if len(zs.metas) != 1 || zs.buf[4] != 3<<1|1 {
		t.Fatalf("padding fixture packs into %d blocks (%v), want one of 3 words", len(zs.metas), zs.buf)
	}
	zs.buf[11] = 2<<1 | 1
	_, err := ssh.reassemble(zs.buf, zs.metas, 0, 2, new(stepBufs))
	var se *streamError
	if !errors.As(err, &se) || se.sender != 0 || se.stream != 0 ||
		!strings.Contains(se.reason, "has chunk 0 sharing a block after stream 0 from VP 4, out of (sender, stream) order") {
		t.Errorf("a fill word in a block's padding: got %v, want a stream error naming stream 0 from VP 0, out of order", err)
	}
}

// FuzzReassemble: a superstep's streams from one to three senders, the
// last round's tails shared among blocks, the blocks shuffled, and at
// most one word of them overwritten, reassemble without a panic into the
// oracle's messages or a *streamError. The format carries no checksum
// (the store checks tracks), so a word inside a stream is held to what
// it says: a payload word's change arrives in its message, and a record
// header's is an error or a delivery of well-formed messages; a header
// or padding word's change is an error or nothing, but for a last
// chunk's fill moved over all-zero words. Half the inputs keep processor
// 0's messages out of cell 0, and half overwrite the padding word where a
// forged segment would keep its fill: together, the shape in which only
// the order rule of splitBlocks keeps a phantom message from VP 0 out.
func FuzzReassemble(f *testing.F) {
	f.Add(uint64(1), false, uint32(0), uint64(0))
	f.Add(uint64(2), true, uint32(4), uint64(1))
	f.Add(uint64(3), true, uint32(77), uint64(1<<40))
	f.Add(uint64(73), true, uint32(4), uint64(17)) // a last block's fill moved over zero padding
	f.Add(uint64(5), true, uint32(40), uint64(3))
	f.Fuzz(func(t *testing.T, seed uint64, mutate bool, pos uint32, val uint64) {
		r := prng.New(seed)
		B := headerWords + 1 + r.Intn(12)
		if r.Intn(2) == 0 {
			B = 24 + r.Intn(24)
		}
		p := 1 + r.Intn(3)
		vpp := 1 + r.Intn(6)
		sh := streamShape(p, p*vpp-r.Intn(vpp), 1+r.Intn(vpp), 4, B)
		sh.muBlocks = 1 + r.Intn(sh.muBlocks)
		sent, want, _ := randomTraffic(r, sh)
		if p > 1 && r.Intn(2) == 0 {
			// Processor 0 sends cell 0 nothing, so the cell's blocks hold
			// other senders' streams alone: a segment forged in their
			// padding reads as stream 0 from VP 0, whose zero words are a
			// message from VP 0 to VP 0 that the cell would take.
			lo, hi := batchVPs(sh, 0, 0)
			for j := range sent[0] {
				sent[0][j] = slices.DeleteFunc(sent[0][j], func(m outMsg) bool { return m.dst < hi })
			}
			for d := lo; d < hi; d++ {
				want[d] = slices.DeleteFunc(want[d], func(m bsp.Message) bool { return sh.owner(m.Src) == 0 })
			}
		}
		s := shareStep(t, sh, sendStep(t, sh, int(seed>>8)%2, sent))
		if len(s.buf) == 0 {
			return
		}
		order := make([]int, len(s.metas))
		r.PermInto(order)
		aim := r.Intn(2) == 0

		// Where the overwritten word lies, read off the unmutated streams:
		// a payload word of message (src, seq) to dst, or a header.
		var hit struct{ dst, src, seq, word int }
		payload, record := false, false
		if mutate {
			at := int(pos) % len(s.buf)
			if i := at / B; aim {
				// Aim at the padding word where a segment after the
				// block's last would keep its fill, with a fill flagged
				// last: the word a forged segment starts from.
				if _, end := blockSegs(s.buf[i*B : (i+1)*B]); end+segWords <= B {
					at, val = i*B+end+segWords-1, val%uint64(B)<<1|1
				}
			}
			i, w := at/B, at%B
			img := s.buf[i*B : (i+1)*B]
			segs, _ := blockSegs(img)
			for _, sg := range segs {
				if w < sg.at || w >= sg.at+sg.fill {
					continue
				}
				off, stream := sg.meta.chunk*chunkCap(B)+w-sg.at, streamWords(s, sg.meta)
				for p := 0; p < len(stream); p += recordWords + int(stream[p+1]&half) {
					if n := int(stream[p+1] & half); off >= p+recordWords && off < p+recordWords+n {
						payload = true
						hit.dst, hit.src, hit.seq, hit.word = int(stream[p]>>32), int(stream[p]&half), int(stream[p+1]>>32), off-p-recordWords
					} else if off >= p && off < p+recordWords {
						record = true // a record header: no oracle
					}
				}
			}
			// A last chunk's fill moved over words that are all zero — a
			// record from VP 0 to VP 0, sequence 0, no payload, or the
			// padding — loses or adds such records unseen: the one header
			// word held to the weaker rule.
			_, _, last := parseBlock(img)
			for k, sg := range segs {
				nf := int(min(val>>1, uint64(B)))
				if w != sg.fillWord || val&1 == 0 || sg.at+nf > B || k == 0 && (!last || nf > chunkCap(B)) {
					continue
				}
				lo, hi := sg.at+min(sg.fill, nf), sg.at+max(sg.fill, nf)
				record = !slices.ContainsFunc(img[lo:hi], func(w uint64) bool { return w != 0 })
			}
			s.buf[at] = val
		}
		if payload {
			k := slices.IndexFunc(want[hit.dst], func(m bsp.Message) bool { return m.Src == hit.src && m.Seq == hit.seq })
			want[hit.dst][k].Payload = slices.Clone(want[hit.dst][k].Payload)
			want[hit.dst][k].Payload[hit.word] = val
		}
		var bufs stepBufs
		deliver(sh, s, order, &bufs, func(lo, hi int, got [][]bsp.Message, err error) bool {
			var se *streamError
			switch {
			case err != nil && !errors.As(err, &se):
				t.Fatalf("batch [%d,%d): an untyped error %v", lo, hi, err)
			case err != nil:
				if !mutate || payload {
					t.Fatalf("batch [%d,%d): %v", lo, hi, err)
				}
			case record:
				// The record header said something else, and it was heard.
				for id := lo; id < hi; id++ {
					for _, m := range got[id-lo] {
						if m.Dst != id || m.Src < 0 || m.Src >= sh.v {
							t.Fatalf("VP %d received a malformed message %+v", id, m)
						}
					}
				}
			default:
				for id := lo; id < hi; id++ {
					if !sameMessages(got[id-lo], want[id]) {
						t.Fatalf("VP %d received %v, want %v", id, got[id-lo], want[id])
					}
				}
			}
			return true
		})
	})
}

// streamWords concatenates the unmutated stream the block meta belongs
// to, its chunks wherever a block holds them.
func streamWords(s sentBlocks, meta blockMeta) (stream []uint64) {
	B := len(s.buf) / len(s.metas)
	for meta.chunk = 0; ; meta.chunk++ {
		found := false
		for i := range s.metas {
			img := s.buf[i*B : (i+1)*B]
			segs, _ := blockSegs(img)
			for _, sg := range segs {
				if sg.meta == meta {
					stream, found = append(stream, img[sg.at:sg.at+sg.fill]...), true
				}
			}
		}
		if !found {
			return stream
		}
	}
}
