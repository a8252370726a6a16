package cluster

import (
	"runtime"
	"testing"
	"time"

	"embsp/internal/core"
	"embsp/internal/words"
)

// testBatch builds a batch of the given blocks of B words from its wire
// form, the only way a BlockBatch is made outside the engine.
func testBatch(blocks, B int) core.BlockBatch {
	enc := words.NewEncoder(nil)
	enc.PutInt(int64(blocks))
	for i := 0; i < blocks; i++ {
		enc.PutInts([]int64{1, 0, int64(i), int64(i)})
		enc.PutUint(uint64(B))
		enc.PutWords(payloadOf(B))
	}
	return core.DecodeBlockBatch(words.NewDecoder(enc.Words()))
}

// TestEncodeExactFit: the messages that carry blocks are sized before
// they are encoded, so a fresh encoder's one buffer is exactly their
// length (Size and the codec agree), and a kept one grows no further.
func TestEncodeExactFit(t *testing.T) {
	in := []core.BlockBatch{testBatch(3, 8), {}, testBatch(1, 8)}
	bo := &core.BatchOut{Scatter: in, Pkts: []int64{1, 2, 3}, Wrds: []int64{4, 5, 6}}
	report := &core.NodeReport{Lo: 2, Hi: 4, Ctx: [][]uint64{{1, 2}, {}}}
	for name, encode := range map[string]func(*words.Encoder) []uint64{
		"WRITE":       func(enc *words.Encoder) []uint64 { return encodeWriteReq(enc, 1, 2, in) },
		"COMPUTE_OUT": func(enc *words.Encoder) []uint64 { return encodeComputeOut(enc, bo) },
		"FINAL_OUT":   func(enc *words.Encoder) []uint64 { return encodeFinalOut(enc, report) },
	} {
		var enc words.Encoder
		msg := encode(&enc)
		if len(msg) != cap(msg) {
			t.Errorf("%s: %d words in a buffer of %d: its size was not reserved exactly", name, len(msg), cap(msg))
		}
		if again := encode(&enc); &again[0] != &msg[0] {
			t.Errorf("%s: a second encode of the same message reallocated", name)
		}
	}
}

// TestLinkSteadyStateAllocs: once a link pair has carried one message,
// a round trip of a W-word batch message — sent, relayed back as the
// coordinator relays a column, received — allocates one payload a hop,
// the receiver's, and a small constant beside it: the senders encode
// into memory they keep, frames stream through fixed chunks, and the
// decoded batches alias the payload they came in.
func TestLinkSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const blocks, B, rounds = 16, 256, 20
	batch := []core.BlockBatch{testBatch(blocks, B)}
	a, b := linkPair(t)
	relayed := make(chan error, 1)
	go func() {
		var enc words.Encoder
		for i := 0; i <= rounds; i++ {
			msg, err := b.Recv(time.Minute)
			if err == nil {
				var dec *words.Decoder
				if dec, err = expect(msg, msgWrite); err == nil {
					dec.Ints()
					err = b.Send(encodeWriteReq(&enc, 0, 0, decodeBatches(dec)))
				}
			}
			if err != nil {
				relayed <- err
				return
			}
		}
		relayed <- nil
	}()
	var enc words.Encoder
	var W int
	roundTrip := func() {
		msg := encodeWriteReq(&enc, 0, 0, batch)
		W = len(msg)
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
		back, err := a.Recv(time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != W {
			t.Fatalf("relayed message is %d words, sent %d", len(back), W)
		}
	}
	roundTrip() // the warm-up: encoders grow to the message
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	if err := <-relayed; err != nil {
		t.Fatal(err)
	}
	perHop := float64(after.TotalAlloc-before.TotalAlloc) / (2 * rounds)
	objects := float64(after.Mallocs-before.Mallocs) / (2 * rounds)
	// What one W-word payload costs the heap, its size class included.
	runtime.ReadMemStats(&before)
	heldPayload = make([]uint64, W)
	runtime.ReadMemStats(&after)
	payload := after.TotalAlloc - before.TotalAlloc
	const slack = 2048 // bytes a hop beside the payload: timers, the decoder, the batch list
	t.Logf("%d-word message: %.0f bytes (%.1f objects) a hop; the payload takes %d", W, perHop, objects, payload)
	if perHop > float64(payload+slack) {
		t.Errorf("a hop allocates %.0f bytes, want at most the %d-byte payload and %d beside it", perHop, payload, slack)
	}
}

// heldPayload keeps the measured payload on the heap.
var heldPayload []uint64
