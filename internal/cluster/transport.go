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
	"embsp/internal/prng"
)

// LostError reports a peer the transport or coordinator considers
// permanently lost — a heartbeat timeout, an exhausted retransmission
// budget, or a liveness deadline — as opposed to an orderly close or
// a fatal protocol divergence. The coordinator treats it as the
// trigger for migration: abort the step, and re-seed the node from
// the replica if its own state never comes back.
type LostError struct {
	Peer   int
	Reason string
}

func (e *LostError) Error() string {
	return fmt.Sprintf("cluster: peer %d lost: %s", e.Peer, e.Reason)
}

// Link is a reliable, deduplicating message channel over one TCP
// connection: stop-and-wait ARQ with per-message deadlines, bounded
// retries, and deterministic exponential backoff between
// retransmissions. The cluster protocol is strict request/response
// lockstep, so one outstanding message per direction is exactly the
// pipelining it needs, and keeps the retransmission state trivial to
// reason about under injected faults.
//
// A fault.NetPlan is applied *below* the ARQ on this endpoint's own
// writes — data frames and ACKs both — so drops, delays, and
// duplicates exercise the retransmission and dedup machinery rather
// than bypassing it. Sequence numbers are per connection and start at
// 1; the receiver re-ACKs anything at or below its delivered
// watermark and rejects gaps (the lockstep protocol never has any).
type Link struct {
	conn   net.Conn
	wmu    sync.Mutex // serializes whole-frame writes (protocol, pings, pongs)
	wchunk []byte     // the fixed chunk frames are written through; guarded by wmu

	self  int
	peer  atomic.Int64 // settable post-handshake (SetPeer) while pings fly
	epoch atomic.Int64
	plan  fault.NetPlan
	seed  uint64

	ackTimeout time.Duration
	retries    int

	sendSeq uint64 // last sequence successfully ACKed by the peer
	recvSeq uint64 // last sequence delivered to the caller
	ackN    int    // times recvSeq has been ACKed (fault-stream clock)
	stash   frame  // data frame consumed by Send as an implicit ACK,
	stashed bool   // waiting for the next Recv

	hbInterval time.Duration
	hbTimeout  time.Duration
	lastRecv   atomic.Int64 // UnixNano of the last intact frame read
	pingSeq    uint64       // heartbeat goroutine only

	in      chan frame
	done    chan struct{}
	errOnce sync.Once
	err     error

	txFrames, txBytes  *obs.Counter
	rxFrames, rxBytes  *obs.Counter
	retriesC, injected *obs.Counter
	checksumRejects    *obs.Counter
	hbMisses           *obs.Counter
}

// LinkConfig configures a Link. Self and Peer are the endpoint ids
// used to key the fault plan's per-direction streams (workers use
// their node id; the coordinator uses P).
type LinkConfig struct {
	Self, Peer  int
	Plan        fault.NetPlan
	BackoffSeed uint64
	// Epoch counts connection incarnations between the same endpoints
	// (first dial 0, first redial 1, ...). It keys the fault plan —
	// both the per-epoch rate streams and LinkDeath specs — so an
	// injected permanent death of epoch e spares the replacement
	// connection, exactly like a replaced machine.
	Epoch int
	// AckTimeout is how long a sent frame waits for its ACK before it
	// is retransmitted (default 250ms).
	AckTimeout time.Duration
	// Retries bounds retransmissions per message (default 10).
	Retries int
	// Heartbeat, when positive, pings the peer whenever the link has
	// been idle that long, and declares the peer lost (a *LostError
	// ends the link) after HeartbeatTimeout of silence. Zero disables
	// keep-alives: an idle link then blocks forever, as before PR 8.
	Heartbeat time.Duration
	// HeartbeatTimeout is the silence span that kills the link
	// (default 4× Heartbeat).
	HeartbeatTimeout time.Duration
	// Metrics receives the comm counters (nil for none).
	Metrics *obs.Registry
}

// ackBit keys ACK fates into a fault stream distinct from their data
// frame's.
const ackBit = uint64(1) << 63

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
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 250 * time.Millisecond
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 10
	}
	l := &Link{
		conn:       conn,
		wchunk:     make([]byte, frameChunkBytes),
		self:       cfg.Self,
		plan:       cfg.Plan,
		seed:       cfg.BackoffSeed,
		ackTimeout: cfg.AckTimeout,
		retries:    cfg.Retries,
		hbInterval: cfg.Heartbeat,
		hbTimeout:  cfg.HeartbeatTimeout,
		in:         make(chan frame, 64),
		done:       make(chan struct{}),
	}
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
	l.retriesC = counter(m, "cluster_retries")
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
// arrived for an interval, and a *LostError (plus connection close, so
// every blocked goroutine wakes) after hbTimeout of silence. Protocol
// traffic counts as liveness — a busy link never pings.
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
			l.conn.Close()
			return
		}
		if idle >= l.hbInterval {
			l.pingSeq++
			l.writeFrame(framePing, l.pingSeq, nil, 0) //nolint:errcheck // the timeout above is the error path
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

// readLoop is the connection's only reader: frames never race a
// deadline mid-read, so the stream cannot desynchronize. Checksum
// failures are consumed and dropped (the sender retransmits); real
// errors end the link. Frames are read through a fixed chunk the loop
// owns; each one's payload is a fresh allocation that the receiver then
// owns outright (a decoded BlockBatch aliases it).
func (l *Link) readLoop() {
	br := bufio.NewReaderSize(l.conn, 1<<16)
	chunk := make([]byte, frameChunkBytes)
	for {
		f, err := readFrame(br, chunk)
		if err == errChecksum {
			add(l.checksumRejects, 1)
			continue
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
			l.writeFrame(framePong, f.seq, nil, 0) //nolint:errcheck // peer's heartbeat timeout is the error path
			continue
		case framePong:
			continue // lastRecv already refreshed — that is the point
		}
		select {
		case l.in <- f:
		case <-l.done:
			return
		}
	}
}

func (l *Link) fail(err error) {
	l.errOnce.Do(func() {
		l.err = err
		close(l.done)
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
	return l.conn.Close()
}

// writeFrame sends one frame through the fault plan: a dropped frame
// is simply not written (the ARQ recovers it), a delayed one is held,
// a duplicated one is written twice back to back. The frame streams
// through the link's chunk, so it costs no allocation however large.
func (l *Link) writeFrame(kind byte, seq uint64, payload []uint64, attempt int) error {
	peer, epoch := l.peerID(), l.epochN()
	if kind == framePing || kind == framePong {
		// Keep-alives have their own sequence counter; on a dying link
		// they stop entirely (they are what detects the death).
		if l.plan.DeadLink(l.self, peer, epoch) {
			add(l.injected, 1)
			return nil
		}
	} else if l.plan.Dead(l.self, peer, epoch, seq) {
		add(l.injected, 1)
		return nil // permanently dead: nothing ever leaves this endpoint
	}
	key := seq
	if kind == frameAck {
		key |= ackBit
	}
	link := fault.Link(l.self, peer)
	if epoch > 0 {
		// Re-key the rate-fault streams per connection incarnation so a
		// redialed link draws fresh fates (sequence numbers restart).
		link = prng.Derive(link, uint64(epoch))
	}
	d := l.plan.Decide(link, key, attempt)
	if d.Drop {
		add(l.injected, 1)
		return nil
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if d.Delay > 0 {
		add(l.injected, 1)
		time.Sleep(d.Delay)
	}
	writes := 1
	if d.Duplicate {
		add(l.injected, 1)
		writes = 2
	}
	for ; writes > 0; writes-- {
		n, err := streamFrame(l.conn, l.wchunk, kind, seq, payload)
		if err != nil {
			l.fail(err)
			return err
		}
		add(l.txFrames, 1)
		add(l.txBytes, int64(n))
	}
	return nil
}

func (l *Link) ack(seq uint64) error {
	if seq == l.recvSeq {
		l.ackN++
	}
	return l.writeFrame(frameAck, seq, nil, l.ackN-1)
}

// Send delivers msg to the peer, retransmitting on ACK timeout with
// prng.BackoffDelay between attempts, up to the retry bound. Stale
// duplicate data arriving while the ACK is awaited is re-ACKed (the
// peer is retransmitting because our ACK was lost). msg is read only
// until Send returns, so the caller may then encode the next message
// into the same memory.
func (l *Link) Send(msg []uint64) error {
	seq := l.sendSeq + 1
	for attempt := 0; attempt <= l.retries; attempt++ {
		if attempt > 0 {
			add(l.retriesC, 1)
			time.Sleep(prng.BackoffDelay(l.seed^seq, attempt))
		}
		if err := l.writeFrame(frameData, seq, msg, attempt); err != nil {
			return err
		}
		timer := time.NewTimer(l.ackTimeout)
	wait:
		for {
			select {
			case f := <-l.in:
				if f.kind == frameAck {
					if f.seq == seq {
						timer.Stop()
						l.sendSeq = seq
						return nil
					}
					continue // stale ACK of an older message
				}
				if f.seq <= l.recvSeq {
					if err := l.ack(f.seq); err != nil {
						return err
					}
					continue
				}
				if f.seq == l.recvSeq+1 {
					// The peer's *response* arrived while our ACK was
					// still pending: under lockstep it can only have
					// been sent after our message was delivered, so it
					// is an implicit ACK. Complete the send and stash
					// the frame for the next Recv.
					timer.Stop()
					l.sendSeq = seq
					l.stash, l.stashed = f, true
					return nil
				}
				timer.Stop()
				return fmt.Errorf("cluster: peer %d sent data seq %d while seq %d unacknowledged", l.peerID(), f.seq, seq)
			case <-timer.C:
				break wait
			case <-l.done:
				timer.Stop()
				return l.err
			}
		}
	}
	return &LostError{Peer: l.peerID(), Reason: fmt.Sprintf("no ACK for message %d after %d attempts", seq, l.retries+1)}
}

// Recv waits up to timeout for the next message, re-ACKing duplicates
// of already-delivered frames. timeout <= 0 waits forever.
func (l *Link) Recv(timeout time.Duration) ([]uint64, error) {
	if l.stashed {
		f := l.stash
		l.stash, l.stashed = frame{}, false
		l.recvSeq = f.seq
		l.ackN = 0
		if err := l.ack(f.seq); err != nil {
			return nil, err
		}
		return f.payload, nil
	}
	var expire <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expire = timer.C
	}
	for {
		select {
		case f := <-l.in:
			if f.kind == frameAck {
				continue // stale ACK (our last send already completed)
			}
			if f.seq <= l.recvSeq {
				if err := l.ack(f.seq); err != nil {
					return nil, err
				}
				continue
			}
			if f.seq != l.recvSeq+1 {
				return nil, fmt.Errorf("cluster: peer %d jumped from seq %d to %d", l.peerID(), l.recvSeq, f.seq)
			}
			l.recvSeq = f.seq
			l.ackN = 0
			if err := l.ack(f.seq); err != nil {
				return nil, err
			}
			return f.payload, nil
		case <-expire:
			return nil, fmt.Errorf("cluster: no message from peer %d within %v", l.peerID(), timeout)
		case <-l.done:
			return nil, l.err
		}
	}
}
