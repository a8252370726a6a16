package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"embsp/internal/bsp"
	"embsp/internal/core"
	"embsp/internal/disk"
	"embsp/internal/words"
)

// replyDecoders are the coordinator's decoders of the replies collect
// and Setup read, by reply kind; a setup reply's snapshot tail is read as
// stage reads it.
var replyDecoders = map[uint64]func(*words.Decoder) error{
	msgComputeOut: func(dec *words.Decoder) error {
		return decodeReply(3, msgComputeOut, dec, func(dec *words.Decoder) { decodeComputeOut(dec, new(core.BatchOut)) })
	},
	msgSumOut: func(dec *words.Decoder) error {
		return decodeReply(3, msgSumOut, dec, func(dec *words.Decoder) { decodeSumOut(dec) })
	},
	msgFinalOut: func(dec *words.Decoder) error {
		return decodeReply(3, msgFinalOut, dec, func(dec *words.Decoder) { core.DecodeNodeReport(dec) })
	},
	msgSetupOut: func(dec *words.Decoder) error {
		return decodeReply(3, msgSetupOut, dec, func(dec *words.Decoder) {
			core.DecodeDiskStats(dec)
			if _, err := decodeSnapshotTail(dec); err != nil {
				panic(err)
			}
		})
	},
}

// decodeFrame decodes a reply frame of the given kind as worker 3's.
func decodeFrame(t *testing.T, kind uint64, frame []uint64) error {
	t.Helper()
	var dec words.Decoder
	if err := expect(&dec, frame, kind); err != nil {
		t.Fatalf("%s: %v", msgName(kind), err)
	}
	return replyDecoders[kind](&dec)
}

// TestMalformedReplies: a worker's reply that ends early, or whose
// count of batches, blocks, traffic records or contexts claims more than
// the frame holds, is an error naming the worker, never a panic of the
// coordinator and never an allocation sized by the damaged count.
func TestMalformedReplies(t *testing.T) {
	var enc words.Encoder
	report := &core.NodeReport{Lo: 2, Hi: 4, Ctx: [][]uint64{{1, 2}, {3}}}
	good := map[uint64][]uint64{
		msgComputeOut: append([]uint64(nil), encodeComputeOut(&enc, &core.BatchOut{
			Scatter: []core.BlockBatch{testBatch(2, 8), {}},
			Pkts:    []int64{1, 2},
			Wrds:    []int64{3, 4},
			Traffic: []bsp.VPTraffic{{SendWords: 5}, {RecvWords: 6}},
		})...),
		msgSumOut:   append([]uint64(nil), encodeSumOut(&enc, core.StepTotals{Sleepers: 1, Sends: 2, Ops: 3})...),
		msgFinalOut: append([]uint64(nil), encodeFinalOut(&enc, report)...),
		msgSetupOut: append([]uint64(nil), encodeSetupOut(&enc, disk.Stats{}, nil)...),
	}
	for kind, frame := range good {
		if err := decodeFrame(t, kind, frame); err != nil {
			t.Fatalf("%s: the whole reply: %v", msgName(kind), err)
		}
		for n := 1; n < len(frame); n++ {
			err := decodeFrame(t, kind, frame[:n])
			if err == nil || !strings.Contains(err.Error(), "worker 3") || !strings.Contains(err.Error(), "malformed") {
				t.Errorf("%s cut to %d of %d words: %v, want a malformed-reply error naming worker 3", msgName(kind), n, len(frame), err)
			}
		}
	}

	const huge = 1 << 40
	noCtx := encodeFinalOut(&enc, &core.NodeReport{Lo: 2, Hi: 4})
	noCtx[len(noCtx)-5] = huge // the context count, before the two memory marks and the skew
	for _, tc := range []struct {
		name  string
		kind  uint64
		frame []uint64
	}{
		{"batch count", msgComputeOut, []uint64{msgComputeOut, huge}},
		{"block count", msgComputeOut, []uint64{msgComputeOut, 1, huge, 0, 0}},
		{"traffic count", msgComputeOut, []uint64{msgComputeOut, 0, 0, 0, huge, 0}},
		{"negative block count", msgComputeOut, []uint64{msgComputeOut, 1, 1 << 63}},
		{"context count", msgFinalOut, noCtx},
		{"two step totals", msgSumOut, []uint64{msgSumOut, 2, 1, 2}},
	} {
		err := decodeFrame(t, tc.kind, tc.frame)
		if err == nil || !strings.Contains(err.Error(), "worker 3") {
			t.Errorf("%s: %v, want an error naming worker 3", tc.name, err)
		}
	}
}

// TestCutRepliesAreErrors: the coordinator reads a WELCOME_OUT reply
// with expect and then decodes it, and any reply may be a worker's ERR.
// Either reply cut at any length — down to the empty frame, or an ERR
// whose text ends early — is an error, never a panic of the
// coordinator.
func TestCutRepliesAreErrors(t *testing.T) {
	var enc words.Encoder
	welcome := welcomeOut{Committed: 4, StepsDone: 3, Halted: true}.encode()
	errFrame := append([]uint64(nil), encodeErr(&enc, errors.New("worker 3: a failure whose text spans three words"))...)
	read := func(frame []uint64) (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%d words of %v: the coordinator panicked: %v", len(frame), frame, r)
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		_, err = readWelcomeOut(3, frame)
		return err
	}
	if err := read(welcome); err != nil {
		t.Fatalf("the whole WELCOME_OUT reply: %v", err)
	}
	var we *WorkerError
	if err := read(errFrame); !errors.As(err, &we) || !strings.Contains(we.Msg, "three words") {
		t.Fatalf("the whole ERR reply: %v, want the worker's error", err)
	}
	for _, frame := range [][]uint64{welcome, errFrame} {
		for n := 0; n < len(frame); n++ {
			if err := read(frame[:n]); err == nil {
				t.Errorf("%s cut to %d of %d words: no error", msgName(frame[0]), n, len(frame))
			}
		}
	}
}
