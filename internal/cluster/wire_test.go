package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"embsp/internal/obs"
	"embsp/internal/words"
)

// frameBytes writes frames through the link's writer into a buffer.
func frameBytes(t testing.TB, frames ...frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	chunk := make([]byte, frameChunkBytes)
	for _, f := range frames {
		n, err := streamFrame(&buf, chunk, f.kind, f.seq, f.payload)
		if err != nil {
			t.Fatal(err)
		}
		if want := frameHeaderBytes + 8*len(f.payload) + frameChecksumSize; n != want {
			t.Fatalf("streamFrame(%d words) reports %d bytes, want %d", len(f.payload), n, want)
		}
	}
	return buf.Bytes()
}

func payloadOf(n int) []uint64 {
	p := make([]uint64, n)
	for i := range p {
		p[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	return p
}

// writeLog records the size of every write it is handed.
type writeLog struct {
	bytes.Buffer
	sizes []int
}

func (w *writeLog) Write(b []byte) (int, error) {
	w.sizes = append(w.sizes, len(b))
	return w.Buffer.Write(b)
}

// TestFrameRoundtrip: a frame read back is the frame written, at every
// edge of the chunk both ends stream through — c words fill a read
// chunk, and the header takes two words' room from a frame's first
// write — and every write the link makes fits the chunk.
func TestFrameRoundtrip(t *testing.T) {
	const c = frameChunkWords
	frames := []frame{
		{kind: frameData, seq: 1, payload: nil},
		{kind: frameData, seq: 2, payload: []uint64{0}},
		{kind: framePong, seq: 3, payload: nil},
		{kind: frameData, seq: 1 << 40, payload: []uint64{1, ^uint64(0), 42, 7}},
	}
	for i, n := range []int{0, 1, c - 3, c - 2, c - 1, c, c + 1, 3*c + 5} {
		frames = append(frames, frame{kind: frameData, seq: uint64(100 + i), payload: payloadOf(n)})
	}
	chunk := make([]byte, frameChunkBytes)
	for _, f := range frames {
		var w writeLog
		if _, err := streamFrame(&w, chunk, f.kind, f.seq, f.payload); err != nil {
			t.Fatal(err)
		}
		for _, n := range w.sizes {
			if n > frameChunkBytes {
				t.Fatalf("%d-word frame: a write of %d bytes, past the %d-byte chunk", len(f.payload), n, frameChunkBytes)
			}
		}
		got, err := readFrame(bytes.NewReader(w.Bytes()), chunk, nil)
		if err != nil {
			t.Fatalf("readFrame(%d words): %v", len(f.payload), err)
		}
		if got.kind != f.kind || got.seq != f.seq {
			t.Fatalf("roundtrip header: got %d/%d, want %d/%d", got.kind, got.seq, f.kind, f.seq)
		}
		if len(got.payload) != len(f.payload) || (len(f.payload) > 0 && !reflect.DeepEqual(got.payload, f.payload)) {
			t.Fatalf("roundtrip payload of %d words: got %d words back, or other words", len(f.payload), len(got.payload))
		}
	}
}

// TestFrameBytesPinned holds the wire format: one small DATA frame and
// a PING, byte for byte.
func TestFrameBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		f    frame
		want string
	}{
		{frame{kind: frameData, seq: 7, payload: []uint64{msgCompute, 0x0102030405060708, ^uint64(0)}},
			"030000000107000000000000000a000000000000000807060504030201ffffffffffffffffe98cacf6cb29b908"},
		{frame{kind: framePing, seq: 3}, "00000000030300000000000000b1d53bae8e10745a"},
	} {
		if got := hex.EncodeToString(frameBytes(t, tc.f)); got != tc.want {
			t.Errorf("frame kind %d seq %d:\n got %s\nwant %s", tc.f.kind, tc.f.seq, got, tc.want)
		}
	}
}

// A corrupted frame must be rejected by checksum, wherever the flipped
// byte sits, and consumed whole, so the reader stays a function of the
// bytes it is given. The bad frame spans four read chunks, and one byte
// is flipped in each region: the seq, the first chunk's payload, the
// last chunk's, and the checksum.
func TestFrameChecksumRejectKeepsAlignment(t *testing.T) {
	good := frame{kind: frameData, seq: 9, payload: []uint64{5, 6, 7}}
	n := 3*frameChunkWords + 5
	for _, tc := range []struct {
		region string
		at     int
	}{
		{"seq", 5},
		{"first chunk", frameHeaderBytes},
		{"last chunk", frameHeaderBytes + 8*n - 1},
		{"checksum", frameHeaderBytes + 8*n + frameChecksumSize - 1},
	} {
		stream := frameBytes(t, frame{kind: frameData, seq: 8, payload: payloadOf(n)}, good)
		stream[tc.at] ^= 0xff
		r, chunk := bytes.NewReader(stream), make([]byte, frameChunkBytes)
		if _, err := readFrame(r, chunk, nil); err != errChecksum {
			t.Fatalf("%s corrupted: got err %v, want errChecksum", tc.region, err)
		}
		got, err := readFrame(r, chunk, nil)
		if err != nil {
			t.Fatalf("%s corrupted: frame after it: %v", tc.region, err)
		}
		if got.seq != good.seq || !reflect.DeepEqual(got.payload, good.payload) {
			t.Fatalf("%s corrupted: stream desynchronized after checksum reject: got %+v", tc.region, got)
		}
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	buf := frameBytes(t, frame{kind: frameData, seq: 1, payload: []uint64{1}})
	// Forge an absurd payload length in the header.
	buf[0], buf[1], buf[2], buf[3] = 0xff, 0xff, 0xff, 0x7f
	if _, err := readFrame(bytes.NewReader(buf), make([]byte, frameChunkBytes), nil); err == nil || err == errChecksum {
		t.Fatalf("oversize frame: got %v, want hard error", err)
	}
}

// FuzzFrame: the reader never panics on arbitrary bytes, and a frame it
// accepts, written again, is the bytes it consumed. It reads through a
// chunk of a few words, so frame and chunk edges meet everywhere.
func FuzzFrame(f *testing.F) {
	pinned := frameBytes(f,
		frame{kind: frameData, seq: 7, payload: []uint64{msgCompute, 0x0102030405060708, ^uint64(0)}},
		frame{kind: framePong, seq: 7},
		frame{kind: framePing, seq: 3})
	f.Add(pinned)
	f.Add(frameBytes(f, frame{kind: frameData, seq: 1 << 40, payload: payloadOf(20)}))
	f.Add(pinned[:len(pinned)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			// A length the input cannot hold would only allocate before
			// the read fails; past the cap the reader refuses it first.
			if n := binary.LittleEndian.Uint32(data); n <= maxFramePayload && int(n) > len(data)/8 {
				return
			}
		}
		r := bytes.NewReader(data)
		got, err := readFrame(r, make([]byte, 24), nil)
		if err != nil {
			return
		}
		again := frameBytes(t, got)
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(again, consumed) {
			t.Fatalf("accepted frame rewrites as %x, read from %x", again, consumed)
		}
	})
}

// linkPair builds two Links over an in-memory connection.
func linkPair(t *testing.T) (*Link, *Link) {
	t.Helper()
	ca, cb := net.Pipe()
	a := NewLink(ca, LinkConfig{Self: 0, Peer: 1})
	b := NewLink(cb, LinkConfig{Self: 1, Peer: 0})
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestLinkLockstepClean(t *testing.T) {
	a, b := linkPair(t)
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			msg, err := b.Recv(5 * time.Second)
			if err != nil {
				errc <- err
				return
			}
			if err := b.Send([]uint64{msg[0] * 2}); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < 50; i++ {
		if err := a.Send([]uint64{uint64(i)}); err != nil {
			t.Fatal(err)
		}
		resp, err := a.Recv(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if resp[0] != uint64(2*i) {
			t.Fatalf("round %d: got %d, want %d", i, resp[0], 2*i)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// rawLink puts a Link over one end of an in-memory connection and
// writes stream into the other end, as a peer would, discarding what
// the link writes back (its pongs).
func rawLink(t *testing.T, m *obs.Registry, stream []byte) *Link {
	t.Helper()
	ca, cb := net.Pipe()
	l := NewLink(ca, LinkConfig{Self: 0, Peer: 1, Metrics: m})
	t.Cleanup(func() { l.Close(); cb.Close() })
	go io.Copy(io.Discard, cb) //nolint:errcheck // ends when the link closes its end
	go cb.Write(stream)        //nolint:errcheck // the link closes its end once the stream kills it
	return l
}

// recvErr receives from l until an error ends it, at most n times.
func recvErr(t *testing.T, l *Link, n int) error {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Recv(time.Second); err != nil {
			return err
		}
	}
	t.Fatalf("%d messages received and the link is still up", n)
	return nil
}

// TestLinkChecksumFailureKillsLink: a frame that fails its checksum
// ends the link — there is no retransmission to wait for — and is
// counted.
func TestLinkChecksumFailureKillsLink(t *testing.T) {
	stream := frameBytes(t, frame{kind: frameData, seq: 1, payload: []uint64{1, 2, 3}})
	stream[frameHeaderBytes+8] ^= 0x01 // a payload byte
	m := obs.NewRegistry()
	err := recvErr(t, rawLink(t, m, stream), 1)
	if !errors.Is(err, errChecksum) {
		t.Fatalf("Recv after a corrupt frame = %v, want the checksum error", err)
	}
	if got := m.Counter("cluster_checksum_rejects").Value(); got != 1 {
		t.Fatalf("cluster_checksum_rejects = %d, want 1", got)
	}
}

// TestLinkRejectsOutOfSequence: TCP neither repeats nor skips, so a DATA
// frame whose seq is not one past the last ends the link with a
// protocol error. Keep-alives have a sequence space of their own.
func TestLinkRejectsOutOfSequence(t *testing.T) {
	data := func(seq uint64) frame { return frame{kind: frameData, seq: seq, payload: []uint64{seq}} }
	for _, tc := range []struct {
		name   string
		frames []frame
	}{
		{"duplicate", []frame{data(1), {kind: framePing, seq: 9}, data(2), data(2)}},
		{"skip", []frame{data(1), data(2), {kind: framePong, seq: 1}, data(4)}},
		{"first not 1", []frame{data(2)}},
	} {
		err := recvErr(t, rawLink(t, nil, frameBytes(t, tc.frames...)), len(tc.frames))
		if !errors.Is(err, errSequence) {
			t.Errorf("%s: Recv = %v, want a sequence error", tc.name, err)
		}
	}
}

// TestServeByeRaceIsCleanShutdown: the coordinator closes a worker's
// link as soon as it has read the BYE. Sending the BYE waits for
// nothing from the peer, so Serve has returned nil by then.
func TestServeByeRaceIsCleanShutdown(t *testing.T) {
	coord, wlink := linkPair(t)
	served := make(chan error, 1)
	go func() { served <- (&Worker{Spare: true}).Serve(wlink) }()
	if _, err := coord.Recv(5 * time.Second); err != nil { // the parking HELLO
		t.Fatal(err)
	}
	if err := coord.Send(encodeKind(new(words.Encoder), msgShutdown)); err != nil {
		t.Fatal(err)
	}
	bye, err := coord.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := expect(new(words.Decoder), bye, msgBye); err != nil {
		t.Fatal(err)
	}
	coord.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after its BYE = %v, want nil (clean shutdown)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the peer closed")
	}
}

// TestServeMidRunCloseIsAnError: losing the coordinator mid-run fails
// Serve.
func TestServeMidRunCloseIsAnError(t *testing.T) {
	coord, wlink := linkPair(t)
	served := make(chan error, 1)
	go func() { served <- (&Worker{Spare: true}).Serve(wlink) }()
	if _, err := coord.Recv(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	coord.Close()
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("Serve = nil after losing the coordinator mid-run, want the link error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the peer closed")
	}
}
