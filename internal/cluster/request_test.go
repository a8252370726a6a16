package cluster

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"embsp/internal/core"
	"embsp/internal/words"
)

// requestFrames returns a well-formed request of every kind a worker
// serves, by kind.
func requestFrames() map[uint64][]uint64 {
	var enc words.Encoder
	own := func(msg []uint64) []uint64 { return append([]uint64(nil), msg...) }
	snap := &core.NodeSnapshot{Version: 1, Full: true, Base: -1, Manifest: []uint64{1, 2},
		Tracks: []core.TrackImage{{Disk: 0, Track: 1, Payload: []uint64{5, 6}}, {Disk: 1, Track: 0}}}
	repl := replReq{Replicate: true, Base: 2}
	frames := map[uint64][]uint64{
		msgChallenge: own(encodeChallenge([]uint64{1, 2, 3, 4})),
		msgRestore:   own(encodeRestore(0, snap)),
		msgReset:     own(welcome{Reset: true}.encode()),
		msgWelcome:   own(welcome{CommitPending: true}.encode()),
		msgSetup:     own(encodeSetup(&enc, repl)),
		msgStepBegin: own(encodeKindStep(&enc, msgStepBegin, 3)),
		msgCompute:   own(encodeKindStep(&enc, msgCompute, 1, 3)),
		msgWrite:     own(encodeWriteReq(&enc, 1, 3, []core.BlockBatch{testBatch(2, 8), {}})),
		msgPrepare:   own(encodePrepare(&enc, 3, true, repl)),
	}
	for _, k := range []uint64{msgSum, msgCommit, msgAbort, msgFinal, msgShutdown} {
		frames[k] = own(encodeKind(&enc, k))
	}
	return frames
}

// errReply returns the message of an ERR reply, and whether resp is one.
func errReply(resp []uint64) (string, bool) {
	if len(resp) == 0 || resp[0] != msgErr {
		return "", false
	}
	return getString(words.NewDecoder(resp[1:])), true
}

// TestWorkerRefusesMalformedRequests: a request frame that ends early,
// whose count of nonce words, manifest words, fields, batches or blocks
// claims more than it holds, whose block metadata is damaged, whose
// field array has the wrong length or which runs on past its last field
// is answered with an ERR reply, whatever its kind, and the worker
// keeps serving: no engine operation runs, and nothing panics.
func TestWorkerRefusesMalformedRequests(t *testing.T) {
	w := &Worker{Prog: replProg, Cfg: replCfg, Opts: replOpts, NodeID: 0, Dir: t.TempDir()}
	if err := w.Open(); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	refused := func(name string, frame []uint64, want string) {
		t.Helper()
		resp, done := w.handle(frame)
		msg, isErr := errReply(resp)
		if !isErr || done || !strings.Contains(msg, want) {
			t.Errorf("%s: reply %q (ERR %v, done %v), want an ERR containing %q", name, msg, isErr, done, want)
		}
	}
	refused("empty frame", nil, "empty request frame")
	for kind, frame := range requestFrames() {
		name := msgName(kind)
		var r request
		if err := decodeRequest(frame, &r); err != nil || r.kind != kind {
			t.Fatalf("%s: the whole request decodes as %s: %v", name, msgName(r.kind), err)
		}
		for n := 1; n < len(frame); n++ {
			refused(fmt.Sprintf("%s cut to %d words", name, n), frame[:n], "malformed "+name)
		}
		refused(name+" with a word past its end", append(frame, 0), "past the last field")
	}

	const huge = 1 << 40
	write := requestFrames()[msgWrite]
	at := func(frame []uint64, i int, v uint64) []uint64 {
		f := append([]uint64(nil), frame...)
		f[i] = v
		return f
	}
	for _, tc := range []struct {
		name  string
		frame []uint64
		want  string
	}{
		{"CHALLENGE nonce count", at(requestFrames()[msgChallenge], 1, huge), "malformed CHALLENGE"},
		{"RESTORE manifest count", at(requestFrames()[msgRestore], 5, huge), "malformed RESTORE"},
		{"RESTORE track count", at(requestFrames()[msgRestore], 8, huge), "track images"},
		{"STEP_BEGIN field count", at(requestFrames()[msgStepBegin], 1, huge), "malformed STEP_BEGIN"},
		{"COMPUTE field count", at(requestFrames()[msgCompute], 1, huge), "malformed COMPUTE"},
		{"COMPUTE with one field", []uint64{msgCompute, 1, 1}, "1 fields, want 2"},
		{"COMPUTE with three fields", []uint64{msgCompute, 3, 1, 3, 0}, "3 fields, want 2"},
		{"COMPUTE of a batch the node lacks", []uint64{msgCompute, 2, 99, 0}, "COMPUTE of batch 99"},
		{"WRITE of a negative batch", at(write, 2, ^uint64(0)), "WRITE of batch -1"},
		{"WRITE field count", at(write, 1, huge), "malformed WRITE"},
		{"WRITE batch count", at(write, 4, huge), "malformed WRITE"},
		{"WRITE block count", at(write, 5, huge), "malformed WRITE"},
		{"WRITE negative block count", at(write, 5, 1<<63), "malformed WRITE"},
		{"WRITE block metadata", at(write, 6, 7), "corrupt block metadata"},
		{"PREPARE field count", at(requestFrames()[msgPrepare], 1, huge), "malformed PREPARE"},
	} {
		refused(tc.name, tc.frame, tc.want)
	}
	// The worker still serves: its node has run nothing.
	if resp, _ := w.handle(requestFrames()[msgSum]); len(resp) == 0 || resp[0] != msgSumOut {
		t.Fatalf("SUM after the malformed requests: reply kind %v", resp)
	}
}

// wordsOf reads data as little-endian words, dropping a partial last one.
func wordsOf(data []byte) []uint64 {
	msg := make([]uint64, len(data)/8)
	for i := range msg {
		msg[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return msg
}

// FuzzWorkerRequest: whatever frame a worker is handed, it answers
// without panicking — a malformed request with an ERR reply. The worker
// is a spare, which decodes every request but runs no node, so the
// inputs exercise the decoding alone.
func FuzzWorkerRequest(f *testing.F) {
	for _, frame := range requestFrames() {
		data := make([]byte, 8*len(frame))
		for i, w := range frame {
			binary.LittleEndian.PutUint64(data[8*i:], w)
		}
		f.Add(data)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		w := &Worker{Prog: replProg, Cfg: replCfg, Opts: replOpts, NodeID: -1, Spare: true, Dir: dir}
		defer w.Close()
		msg := wordsOf(data)
		resp, _ := w.handle(msg)
		if len(resp) == 0 {
			t.Fatalf("empty reply to %v", msg)
		}
		if err := decodeRequest(msg, new(request)); err != nil {
			if _, isErr := errReply(resp); !isErr {
				t.Fatalf("malformed request %v (%v) answered with kind %d", msg, err, resp[0])
			}
		}
	})
}
