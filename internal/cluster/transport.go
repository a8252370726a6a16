package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"embsp/internal/fault"
	"embsp/internal/obs"
)

// LostError reports a peer the transport or coordinator considers
// permanently lost — a heartbeat timeout or a liveness deadline — as
// opposed to an orderly close or a fatal protocol divergence. The
// coordinator treats it as the trigger for migration: abort the step,
// and re-seed the node from the replica if its own state never comes
// back.
type LostError struct {
	Peer   int
	Reason string
}

func (e *LostError) Error() string {
	return fmt.Sprintf("cluster: peer %d lost: %s", e.Peer, e.Reason)
}

// Link is a framed message channel over one TCP connection. TCP
// delivers the bytes of a live connection in order, once, so the link
// adds no retransmission of its own: Send writes one DATA frame, Recv
// returns the next one, and anything else — a frame that fails its
// checksum, a DATA frame out of sequence, an unknown kind, a silent
// peer, a closed connection — ends the link. A dead link is recovered
// a level up, by redial and the rejoin handshake (DESIGN.md §14.2).
//
// DATA sequence numbers count the frames written on this connection,
// from 1; the receiver requires each to be one past the last. A
// fault.NetPlan's Deaths silence this endpoint's own writes from a
// given sequence number on, which is how tests kill a link.
//
// A received payload is the link's memory: it is valid until the next
// Recv on the link returns, which hands it back for the reader to fill
// again. The link keeps two payloads, one the receiver holds and one the
// reader fills, which is all a lockstep protocol needs — at most one
// DATA frame is in flight in each direction — so a warm link receives
// without allocating (DESIGN.md §19). Recv is never called concurrently
// on one link; Send may be, with itself and with Recv.
type Link struct {
	conn    net.Conn
	wmu     sync.Mutex // serializes whole-frame writes (protocol, pings, pongs)
	wchunk  []byte     // the fixed chunk frames are written through; guarded by wmu
	sendSeq uint64     // last DATA sequence number written; guarded by wmu

	self  int
	peer  atomic.Int64 // settable post-handshake (SetPeer) while pings fly
	epoch atomic.Int64
	plan  fault.NetPlan

	hbInterval time.Duration
	hbTimeout  time.Duration
	lastRecv   atomic.Int64 // UnixNano of the last intact frame read
	pingSeq    uint64       // heartbeat goroutine only

	in   chan []uint64 // DATA payloads, from the reader to Recv
	free chan []uint64 // payloads Recv has handed back, for the reader to fill
	// Recv's own: the payload it last returned (when holding) and its
	// deadline's timer, re-armed at every call.
	held    []uint64
	holding bool
	timer   *time.Timer
	done    chan struct{}
	errOnce sync.Once
	err     error

	txFrames, txBytes *obs.Counter
	rxFrames, rxBytes *obs.Counter
	injected          *obs.Counter
	checksumRejects   *obs.Counter
	hbMisses          *obs.Counter
}

// LinkConfig configures a Link. Self and Peer are the endpoint ids
// used to key the fault plan's per-direction deaths (workers use their
// node id; the coordinator uses P).
type LinkConfig struct {
	Self, Peer int
	Plan       fault.NetPlan
	// Deprecated: BackoffSeed is ignored. It keyed the backoff of the
	// retransmissions the link no longer makes, and stays only so that
	// callers outside this module which still set it keep compiling.
	BackoffSeed uint64
	// Epoch counts connection incarnations between the same endpoints
	// (first dial 0, first redial 1, ...). It keys the fault plan's
	// LinkDeath specs, so an injected death of epoch e spares the
	// replacement connection, exactly like a replaced machine.
	Epoch int
	// Heartbeat, when positive, pings the peer whenever the link has
	// been idle that long, and declares the peer lost (a *LostError
	// ends the link) after HeartbeatTimeout of silence. Zero disables
	// keep-alives: an idle link then blocks forever.
	Heartbeat time.Duration
	// HeartbeatTimeout is the silence span that kills the link
	// (default 4× Heartbeat).
	HeartbeatTimeout time.Duration
	// Metrics receives the comm counters (nil for none).
	Metrics *obs.Registry
}

// SetPeer fixes the peer's id once the handshake reveals it (the
// coordinator cannot know which worker dialed until HELLO arrives).
func (l *Link) SetPeer(id int) { l.peer.Store(int64(id)) }

// SetEpoch fixes the connection-incarnation number once the handshake
// reveals which worker (and therefore which incarnation) this is.
func (l *Link) SetEpoch(e int) { l.epoch.Store(int64(e)) }

func (l *Link) peerID() int { return int(l.peer.Load()) }
func (l *Link) epochN() int { return int(l.epoch.Load()) }

// NewLink wraps conn. The Link owns the connection: Close closes it.
func NewLink(conn net.Conn, cfg LinkConfig) *Link {
	if tc, ok := conn.(*net.TCPConn); ok {
		// Snapshot-bearing frames (PREPARED with a replica delta) run to
		// hundreds of kilobytes; with default socket buffers one Send
		// blocks and wakes through the netpoller several times per
		// frame. Buffers sized past the largest routine frame let a
		// whole frame land in one write.
		tc.SetWriteBuffer(1 << 20) //nolint:errcheck // best-effort tuning
		tc.SetReadBuffer(1 << 20)  //nolint:errcheck
	}
	l := &Link{
		conn:       conn,
		wchunk:     make([]byte, frameChunkBytes),
		self:       cfg.Self,
		plan:       cfg.Plan,
		hbInterval: cfg.Heartbeat,
		hbTimeout:  cfg.HeartbeatTimeout,
		// The protocol is lockstep: at most one message is in flight in
		// each direction, so one slot lets the reader run a frame ahead.
		in:   make(chan []uint64, 1),
		free: make(chan []uint64, 2),
		done: make(chan struct{}),
	}
	l.free <- nil // the two payloads, grown to their frames as they come
	l.free <- nil
	l.peer.Store(int64(cfg.Peer))
	l.epoch.Store(int64(cfg.Epoch))
	if l.hbInterval > 0 && l.hbTimeout <= 0 {
		l.hbTimeout = 4 * l.hbInterval
	}
	m := cfg.Metrics
	l.txFrames = counter(m, "cluster_tx_frames")
	l.txBytes = counter(m, "cluster_tx_bytes")
	l.rxFrames = counter(m, "cluster_rx_frames")
	l.rxBytes = counter(m, "cluster_rx_bytes")
	l.injected = counter(m, "cluster_faults_injected")
	l.checksumRejects = counter(m, "cluster_checksum_rejects")
	l.hbMisses = counter(m, "cluster_heartbeat_misses")
	l.lastRecv.Store(time.Now().UnixNano())
	go l.readLoop()
	if l.hbInterval > 0 {
		go l.heartbeat()
	}
	return l
}

// heartbeat keeps an idle link honest: a ping whenever nothing has
// arrived for an interval, and a *LostError after hbTimeout of silence.
// Protocol traffic counts as liveness — a busy link never pings.
func (l *Link) heartbeat() {
	t := time.NewTicker(l.hbInterval)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-t.C:
		}
		idle := time.Duration(time.Now().UnixNano() - l.lastRecv.Load())
		if idle >= l.hbTimeout {
			add(l.hbMisses, 1)
			l.fail(&LostError{Peer: l.peerID(), Reason: fmt.Sprintf("no frame for %v (heartbeat timeout %v)", idle.Round(time.Millisecond), l.hbTimeout)})
			return
		}
		if idle >= l.hbInterval {
			l.pingSeq++
			l.writeFrame(framePing, l.pingSeq, nil) //nolint:errcheck // the timeout above is the error path
		}
	}
}

func counter(m *obs.Registry, name string) *obs.Counter {
	if m == nil {
		return nil
	}
	return m.Counter(name)
}

func add(c *obs.Counter, n int64) {
	if c != nil {
		c.Add(n)
	}
}

// errSequence marks a DATA frame whose sequence number is not one past
// the last: TCP never reorders, drops or repeats, so the stream is not
// the peer's.
var errSequence = errors.New("cluster: data frame out of sequence")

// readLoop is the connection's only reader. Keep-alives are answered
// here; a DATA frame goes to Recv; any error — a checksum mismatch
// included — ends the link. Frames are read through a fixed chunk the
// loop owns, into a payload Recv has handed back (waiting for one if
// the receiver holds both), which goes to Recv with the frame when it
// is DATA and is kept for the next frame otherwise.
func (l *Link) readLoop() {
	br := bufio.NewReaderSize(l.conn, 1<<16)
	chunk := make([]byte, frameChunkBytes)
	var recvSeq uint64
	var buf []uint64
	taken := false
	for {
		if !taken {
			select {
			case buf = <-l.free:
				taken = true
			case <-l.done:
				return
			}
		}
		f, err := readFrame(br, chunk, buf)
		if err == errChecksum {
			add(l.checksumRejects, 1)
		}
		if err != nil {
			l.fail(err)
			return
		}
		add(l.rxFrames, 1)
		add(l.rxBytes, int64(frameHeaderBytes+8*len(f.payload)+frameChecksumSize))
		l.lastRecv.Store(time.Now().UnixNano())
		switch f.kind {
		case framePing:
			l.writeFrame(framePong, f.seq, nil) //nolint:errcheck // peer's heartbeat timeout is the error path
			continue
		case framePong:
			continue // lastRecv already refreshed — that is the point
		}
		if f.seq != recvSeq+1 {
			l.fail(fmt.Errorf("%w: peer %d sent %d after %d", errSequence, l.peerID(), f.seq, recvSeq))
			return
		}
		recvSeq = f.seq
		taken = false
		select {
		case l.in <- f.payload:
		case <-l.done:
			return
		}
	}
}

// poisonRecycled, under test, makes Recv stamp every payload it takes
// back with recycledCanary before the reader may fill it again, so that
// a receiver that read a payload past its lifetime sees the canary
// instead of its message.
var poisonRecycled atomic.Bool

// recycledCanary is the word a payload taken back is stamped with.
const recycledCanary = 0xDEADC0DEDEADC0DE

// fail ends the link with err, the first time only, and closes the
// connection, so every blocked goroutine at both ends wakes.
func (l *Link) fail(err error) {
	l.errOnce.Do(func() {
		l.err = err
		close(l.done)
		l.conn.Close()
	})
}

// Err returns the error that ended the link, if any.
func (l *Link) Err() error {
	select {
	case <-l.done:
		return l.err
	default:
		return nil
	}
}

var errLinkClosed = errors.New("cluster: link closed")

// Close tears the link down and closes the connection.
func (l *Link) Close() error {
	l.fail(errLinkClosed)
	return nil
}

// writeFrame writes one frame, unless the fault plan has killed this
// direction of the link: then nothing leaves this endpoint, keep-alives
// included, since they are what detects the death. The frame streams
// through the link's chunk, so it costs no allocation however large.
func (l *Link) writeFrame(kind byte, seq uint64, payload []uint64) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	return l.write(kind, seq, payload)
}

// write is writeFrame with wmu held.
func (l *Link) write(kind byte, seq uint64, payload []uint64) error {
	peer, epoch := l.peerID(), l.epochN()
	dead := l.plan.Dead(l.self, peer, epoch, seq)
	if kind != frameData {
		dead = l.plan.DeadLink(l.self, peer, epoch)
	}
	if dead {
		add(l.injected, 1)
		return nil
	}
	n, err := streamFrame(l.conn, l.wchunk, kind, seq, payload)
	if err != nil {
		l.fail(err)
		return err
	}
	add(l.txFrames, 1)
	add(l.txBytes, int64(n))
	return nil
}

// Send writes msg to the peer as the next DATA frame. msg is read only
// until Send returns, so the caller may then encode the next message
// into the same memory.
func (l *Link) Send(msg []uint64) error {
	if err := l.Err(); err != nil {
		return err
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.sendSeq++
	return l.write(frameData, l.sendSeq, msg)
}

// Recv waits up to timeout for the next message; timeout <= 0 waits
// forever. The message is valid until the next Recv returns, which
// hands its memory back to the link (see Link).
func (l *Link) Recv(timeout time.Duration) ([]uint64, error) {
	if timeout <= 0 {
		return l.recv(nil, time.Time{}, timeout)
	}
	deadline := time.Now().Add(timeout)
	if l.timer == nil {
		l.timer = time.NewTimer(timeout)
	} else {
		l.timer.Reset(timeout)
	}
	msg, err := l.recv(l.timer.C, deadline, timeout)
	l.timer.Stop()
	return msg, err
}

// recv is Recv's wait, which expire, when not nil, ends at deadline.
func (l *Link) recv(expire <-chan time.Time, deadline time.Time, timeout time.Duration) ([]uint64, error) {
	for {
		select {
		case msg := <-l.in:
			if l.holding {
				l.recycle(l.held)
			}
			l.held, l.holding = msg, true
			return msg, nil
		case now := <-expire:
			if now.Before(deadline) {
				continue // the tick of an earlier call's timer, which fired as it was stopped
			}
			return nil, fmt.Errorf("cluster: no message from peer %d within %v", l.peerID(), timeout)
		case <-l.done:
			return nil, l.err
		}
	}
}

// recycle hands a payload the receiver is done with back to the reader.
// The link holds two, so there is always room for it.
func (l *Link) recycle(p []uint64) {
	if poisonRecycled.Load() {
		p = p[:cap(p)]
		for i := range p {
			p[i] = recycledCanary
		}
	}
	l.free <- p
}
