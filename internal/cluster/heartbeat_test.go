package cluster_test

// Transport-level heartbeat tests: the keep-alive must kill a link
// whose peer has gone silent (the failure no FIN announces) and must
// NOT kill a link that is merely idle while its peer still answers
// pings.

import (
	"errors"
	"net"
	"testing"
	"time"

	"embsp/internal/cluster"
	"embsp/internal/obs"
)

// tcpPair returns two connected TCP endpoints (real sockets, so writes
// into a silent peer land in kernel buffers instead of blocking).
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	dial, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		dial.Close()
		t.Fatal(r.err)
	}
	return dial, r.c
}

func TestLinkHeartbeatDetectsSilentPeer(t *testing.T) {
	a, b := tcpPair(t)
	defer b.Close() // b stays a dead socket: accepts bytes, never answers
	metrics := obs.NewRegistry()
	link := cluster.NewLink(a, cluster.LinkConfig{
		Self: 0, Peer: 1,
		Heartbeat: 20 * time.Millisecond,
		Metrics:   metrics,
	})
	defer link.Close()

	done := make(chan error, 1)
	go func() {
		_, err := link.Recv(0) // would block forever without keep-alives
		done <- err
	}()
	select {
	case err := <-done:
		var lost *cluster.LostError
		if !errors.As(err, &lost) {
			t.Fatalf("Recv ended with %v, want a *LostError heartbeat verdict", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("silent peer never detected; Recv still blocked after 5s")
	}
	if metrics.Counter("cluster_heartbeat_misses").Value() == 0 {
		t.Fatal("heartbeat fired but cluster_heartbeat_misses was not counted")
	}
}

func TestLinkHeartbeatKeepsIdleLinkAlive(t *testing.T) {
	a, b := tcpPair(t)
	la := cluster.NewLink(a, cluster.LinkConfig{
		Self: 0, Peer: 1, Heartbeat: 20 * time.Millisecond,
	})
	defer la.Close()
	lb := cluster.NewLink(b, cluster.LinkConfig{
		Self: 1, Peer: 0, Heartbeat: 20 * time.Millisecond,
	})
	defer lb.Close()

	// Idle for many heartbeat timeouts: pings and pongs must keep both
	// ends convinced the other is alive.
	time.Sleep(400 * time.Millisecond)
	if err := la.Err(); err != nil {
		t.Fatalf("idle link a died: %v", err)
	}
	if err := lb.Err(); err != nil {
		t.Fatalf("idle link b died: %v", err)
	}
	// And the link still carries protocol traffic afterwards.
	msg := []uint64{42, 43}
	sendErr := make(chan error, 1)
	go func() { sendErr <- la.Send(msg) }()
	got, err := lb.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 42 || got[1] != 43 {
		t.Fatalf("payload %v corrupted across an idle-then-used link", got)
	}
}
