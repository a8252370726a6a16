package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"embsp/internal/fault"
	"embsp/internal/obs"
)

func TestFrameRoundtrip(t *testing.T) {
	frames := []frame{
		{kind: frameData, seq: 1, payload: nil},
		{kind: frameData, seq: 2, payload: []uint64{0}},
		{kind: frameAck, seq: 3, payload: nil},
		{kind: frameData, seq: 1 << 40, payload: []uint64{1, ^uint64(0), 42, 7}},
	}
	var buf []byte
	for _, f := range frames {
		buf = appendFrame(nil, f)
		br := bufio.NewReader(bytes.NewReader(buf))
		got, err := readFrame(br)
		if err != nil {
			t.Fatalf("readFrame(%+v): %v", f, err)
		}
		if got.kind != f.kind || got.seq != f.seq {
			t.Fatalf("roundtrip header: got %+v, want %+v", got, f)
		}
		if len(got.payload) != len(f.payload) || (len(f.payload) > 0 && !reflect.DeepEqual(got.payload, f.payload)) {
			t.Fatalf("roundtrip payload: got %v, want %v", got.payload, f.payload)
		}
	}
}

// A corrupted frame must be rejected by checksum AND fully consumed,
// so the following frame still parses: the ARQ depends on the stream
// staying frame-aligned after a rejection.
func TestFrameChecksumRejectKeepsAlignment(t *testing.T) {
	good := frame{kind: frameData, seq: 9, payload: []uint64{5, 6, 7}}
	bad := appendFrame(nil, frame{kind: frameData, seq: 8, payload: []uint64{1, 2}})
	bad[frameHeaderBytes] ^= 0xff // corrupt first payload byte
	stream := append(append([]byte{}, bad...), appendFrame(nil, good)...)

	br := bufio.NewReader(bytes.NewReader(stream))
	if _, err := readFrame(br); err != errChecksum {
		t.Fatalf("corrupt frame: got err %v, want errChecksum", err)
	}
	got, err := readFrame(br)
	if err != nil {
		t.Fatalf("frame after corruption: %v", err)
	}
	if got.seq != good.seq || !reflect.DeepEqual(got.payload, good.payload) {
		t.Fatalf("stream desynchronized after checksum reject: got %+v", got)
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	buf := appendFrame(nil, frame{kind: frameData, seq: 1, payload: []uint64{1}})
	// Forge an absurd payload length in the header.
	buf[0], buf[1], buf[2], buf[3] = 0xff, 0xff, 0xff, 0x7f
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(buf))); err == nil || err == errChecksum {
		t.Fatalf("oversize frame: got %v, want hard error", err)
	}
}

// linkPair builds two Links over an in-memory connection.
func linkPair(t *testing.T, plan fault.NetPlan, ackTimeout time.Duration, m *obs.Registry) (*Link, *Link) {
	t.Helper()
	ca, cb := net.Pipe()
	a := NewLink(ca, LinkConfig{Self: 0, Peer: 1, Plan: plan, BackoffSeed: 1, AckTimeout: ackTimeout, Metrics: m})
	b := NewLink(cb, LinkConfig{Self: 1, Peer: 0, Plan: plan, BackoffSeed: 2, AckTimeout: ackTimeout, Metrics: m})
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestLinkLockstepClean(t *testing.T) {
	a, b := linkPair(t, fault.NetPlan{}, 0, nil)
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

// Under heavy injected drop/duplicate/delay on both directions the ARQ
// must still deliver every message exactly once, in order.
func TestLinkLockstepUnderFaults(t *testing.T) {
	plan := fault.NetPlan{
		Seed: 99, DropRate: 0.3, DupRate: 0.2,
		DelayRate: 0.1, Delay: time.Millisecond,
		CleanAfter: 4,
	}
	reg := obs.NewRegistry()
	a, b := linkPair(t, plan, 25*time.Millisecond, reg)
	const rounds = 40
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			msg, err := b.Recv(10 * time.Second)
			if err != nil {
				errc <- fmt.Errorf("server round %d: %w", i, err)
				return
			}
			if msg[0] != uint64(i) {
				errc <- fmt.Errorf("server round %d: got %d", i, msg[0])
				return
			}
			if err := b.Send([]uint64{msg[0] + 100}); err != nil {
				errc <- fmt.Errorf("server round %d: %w", i, err)
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < rounds; i++ {
		if err := a.Send([]uint64{uint64(i)}); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		resp, err := a.Recv(10 * time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if resp[0] != uint64(i+100) {
			t.Fatalf("round %d: got %d, want %d", i, resp[0], i+100)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if reg.Counter("cluster_faults_injected").Value() == 0 {
		t.Fatal("fault plan injected nothing; the test exercised no recovery")
	}
	if reg.Counter("cluster_retries").Value() == 0 {
		t.Fatal("no retransmissions under a 30% drop plan; ARQ untested")
	}
}

func TestLinkRetryBound(t *testing.T) {
	// Drop every data frame forever: Send must give up after its retry
	// bound instead of hanging.
	plan := fault.NetPlan{Seed: 1, DropRate: 1.0}
	ca, cb := net.Pipe()
	a := NewLink(ca, LinkConfig{Self: 0, Peer: 1, Plan: plan, AckTimeout: 5 * time.Millisecond, Retries: 3})
	b := NewLink(cb, LinkConfig{Self: 1, Peer: 0})
	defer a.Close()
	defer b.Close()
	if err := a.Send([]uint64{1}); err == nil {
		t.Fatal("Send with all frames dropped: want error, got nil")
	}
}

// TestServeByeRaceIsCleanShutdown: the coordinator closes a worker's
// link as soon as it has read the BYE, and that close can overtake the
// BYE's ACK. The worker has nothing left to deliver, so Serve must
// report a clean shutdown, not the EOF. The peer here reads the BYE
// frame off the wire and closes without ever acknowledging it.
func TestServeByeRaceIsCleanShutdown(t *testing.T) {
	coord, wlink := linkPair(t, fault.NetPlan{}, 5*time.Second, nil)
	served := make(chan error, 1)
	go func() { served <- (&Worker{Spare: true}).Serve(wlink) }()
	if _, err := coord.Recv(5 * time.Second); err != nil { // the parking HELLO
		t.Fatal(err)
	}
	if err := coord.Send(encodeKind(msgShutdown)); err != nil {
		t.Fatal(err)
	}
	// The BYE either arrived as the SHUTDOWN's implicit ACK (stashed) or
	// is the next data frame; take it raw, so no ACK goes back.
	bye := coord.stash
	for bye == nil {
		select {
		case f := <-coord.in:
			if f.kind == frameData {
				bye = &f
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no BYE from the worker")
		}
	}
	if _, err := expect(bye.payload, msgBye); err != nil {
		t.Fatal(err)
	}
	coord.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after an unacknowledged BYE = %v, want nil (clean shutdown)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the peer closed")
	}
}

// TestServeMidRunCloseIsAnError: only the final BYE send forgives a
// closed link; losing the coordinator mid-run still fails Serve.
func TestServeMidRunCloseIsAnError(t *testing.T) {
	coord, wlink := linkPair(t, fault.NetPlan{}, 5*time.Second, nil)
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
