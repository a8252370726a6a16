package cluster

import (
	"crypto/hmac"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"embsp/internal/bsp"
	"embsp/internal/core"
	"embsp/internal/disk"
	"embsp/internal/fault"
	"embsp/internal/gang"
	"embsp/internal/obs"
	"embsp/internal/words"
)

// stepRetries bounds how many times one superstep may be aborted and
// replayed before the run gives up.
const stepRetries = 5

// Config configures a cluster coordinator run.
type Config struct {
	Prog bsp.Program
	Cfg  core.MachineConfig
	Opts core.Options
	// Dir is the coordinator's state directory (decision journal).
	Dir string
	// Listener accepts worker connections; the coordinator owns it.
	Listener net.Listener
	// Net is the injected link-death plan (zero value: none).
	Net fault.NetPlan
	// RecvTimeout bounds a phase response (default 2m).
	RecvTimeout time.Duration
	// JoinTimeout bounds the wait for a worker to (re)join (default 60s).
	JoinTimeout time.Duration
	// Replicate enables barrier-time state replication: every PREPARED
	// (and SETUP_OUT) reply carries the worker's barrier snapshot
	// (usually a delta), which the coordinator folds into a replica
	// store under Dir the moment its decision record lands. A worker
	// whose own state is permanently gone is re-seeded from the replica
	// instead of failing the run with a divergence error.
	Replicate bool
	// Secret, when non-empty, requires every joining worker to answer
	// an HMAC-SHA256 challenge over a fresh nonce; joins that cannot
	// are dropped (and counted as cluster_auth_rejects).
	Secret string
	// Heartbeat / HeartbeatTimeout thread keep-alives into every
	// accepted link (see LinkConfig); zero disables them.
	Heartbeat        time.Duration
	HeartbeatTimeout time.Duration
	// SpareDelay is how long a worker slot may sit empty before a
	// parked spare is adopted for it (default JoinTimeout/4). Spares
	// only ever replace a slot whose replica is restorable.
	SpareDelay time.Duration
	// Respawn, when set, is invoked when worker id's connection died
	// and a rejoin is needed — spawn mode uses it to relaunch the
	// worker process. With Respawn nil the coordinator just waits for
	// an external rejoin (join mode).
	Respawn func(id int) error
	// Probe, when set, is called at coordinator decision boundaries
	// ("prepare", "decided", "recover") for crash tests.
	Probe func(phase string, step int)
	// Metrics receives comm counters and the barrier-wait histogram.
	Metrics *obs.Registry
}

// WorkerError is a worker-reported engine failure (program panic,
// real I/O failure). It is fatal: replaying cannot fix a
// deterministic engine error.
type WorkerError struct {
	Node int
	Msg  string
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("cluster: worker %d: %s", e.Node, e.Msg)
}

func fatal(err error) bool {
	var we *WorkerError
	return errors.As(err, &we)
}

// coordinator is the cluster's core.Transport: the driver in CoordCore
// decides what runs when, and every phase is one lockstep fan-out of
// requests to the workers.
type coordinator struct {
	cc      Config
	core    *core.CoordCore
	links   []*Link // per worker slot; nil = disconnected
	epochs  []int   // connection incarnations seen per slot
	replica *ReplicaStore
	spares  []joinReq // parked spare workers, adopted on worker loss

	// The fan-out (fanout): the reply kind every leg expects, the slots,
	// the gang whose member i runs slot i's legs, the slots' decoders as
	// fanout returns them, a WRITE's batches as they are encoded, and
	// what the phases return, reused.
	resp   uint64
	slots  []slot
	gang   gang.Gang
	decs   []*words.Decoder
	in     []core.BlockBatch
	outs   []*core.BatchOut
	totals []core.StepTotals

	joins    chan joinReq
	acceptWG sync.WaitGroup
	closed   chan struct{}

	// pending tracks links whose handshake is still in flight, so
	// shutdown can cut them loose instead of leaking their goroutines
	// into the JoinTimeout.
	pmu     sync.Mutex
	pending map[*Link]struct{}

	// staged holds the snapshots the open barrier's phase-one replies
	// carried, until its decision lands; barrier is when that phase began.
	staged  []*core.NodeSnapshot
	barrier time.Time

	// replApply tracks the (at most one) background replica-apply
	// batch; see applySnapshots / replWait.
	replApply sync.WaitGroup

	barrierWait  *obs.Histogram
	replays      *obs.Counter
	migrations   *obs.Counter
	replicaBytes *obs.Counter
	authRejects  *obs.Counter
}

type joinReq struct {
	h    hello
	link *Link
}

// call is one fan-out: the request's kind and what it carries, and the
// reply's kind.
type call struct {
	req, resp uint64
	j, step   int
	halted    bool             // PREPARE
	outs      []*core.BatchOut // WRITE: the round's COMPUTE_OUT rows, by source
}

// slot is worker slot i's side of the fan-outs: req, its request,
// encoded into enc; dec, its reply, valid until the slot's next call;
// and out, its COMPUTE_OUT, decoded into memory it reuses. Its gang
// member alone uses the slot between the member's Wake and the
// fan-out's Wait.
type slot struct {
	enc words.Encoder
	req []uint64
	dec words.Decoder
	out core.BatchOut
}

// Run drives a full cluster run: accept P workers, reconcile their
// journals, drive compound supersteps under two-phase commit, survive
// worker deaths by abort-and-replay, and assemble the Result — which
// is bitwise identical to core.Run of the same configuration.
func Run(cc Config) (*core.Result, error) {
	if err := cc.Net.Validate(); err != nil {
		return nil, err
	}
	if cc.RecvTimeout <= 0 {
		cc.RecvTimeout = 2 * time.Minute
	}
	if cc.JoinTimeout <= 0 {
		cc.JoinTimeout = 60 * time.Second
	}
	resume := false
	if _, err := os.Stat(filepath.Join(cc.Dir, "journal.wal")); err == nil {
		resume = true
	}
	cco, err := core.OpenCoord(cc.Prog, cc.Cfg, cc.Opts, cc.Dir, resume)
	if err != nil {
		return nil, err
	}
	P := cc.Cfg.P
	c := &coordinator{
		cc:      cc,
		core:    cco,
		links:   make([]*Link, P),
		epochs:  make([]int, P),
		slots:   make([]slot, P),
		decs:    make([]*words.Decoder, P),
		outs:    make([]*core.BatchOut, P),
		totals:  make([]core.StepTotals, P),
		joins:   make(chan joinReq, 2*P),
		closed:  make(chan struct{}),
		pending: make(map[*Link]struct{}),
	}
	for i := range c.slots {
		c.decs[i], c.outs[i] = &c.slots[i].dec, &c.slots[i].out
	}
	c.gang.Start(P, c.leg)
	if m := cc.Metrics; m != nil {
		c.barrierWait = m.Histogram("cluster_barrier_wait_nanos")
		c.replays = m.Counter("cluster_step_replays")
		c.migrations = m.Counter("cluster_migrations")
		c.replicaBytes = m.Counter("cluster_replica_bytes")
		c.authRejects = m.Counter("cluster_auth_rejects")
	}
	if cc.Replicate {
		c.replica = OpenReplicas(filepath.Join(cc.Dir, "replica"), cc.Prog, cc.Cfg, cc.Opts)
	}
	defer c.shutdown()
	c.acceptWG.Add(1)
	go c.acceptLoop()

	if err := c.gatherAll(); err != nil {
		return nil, err
	}
	return c.core.Run(c)
}

func (c *coordinator) probe(phase string, step int) {
	if c.cc.Probe != nil {
		c.cc.Probe(phase, step)
	}
}

// acceptLoop admits connections and completes the HELLO half of the
// handshake; joins delivers them to whoever is waiting for workers.
// Every handshake goroutine is tracked by acceptWG and its link is
// registered in c.pending, so shutdown can close them out instead of
// leaking Recv waiters into the JoinTimeout.
func (c *coordinator) acceptLoop() {
	defer c.acceptWG.Done()
	for {
		conn, err := c.cc.Listener.Accept()
		if err != nil {
			return // listener closed
		}
		c.acceptWG.Add(1)
		go func() {
			defer c.acceptWG.Done()
			link := NewLink(conn, LinkConfig{
				Self:             c.cc.Cfg.P,
				Peer:             -1,
				Plan:             c.cc.Net,
				Heartbeat:        c.cc.Heartbeat,
				HeartbeatTimeout: c.cc.HeartbeatTimeout,
				Metrics:          c.cc.Metrics,
			})
			if !c.trackPending(link) {
				link.Close() // raced shutdown
				return
			}
			defer c.untrackPending(link)
			msg, err := link.Recv(c.cc.JoinTimeout)
			if err != nil {
				link.Close()
				return
			}
			var h hello
			if err := decodeUntrusted(new(words.Decoder), msg, msgHello, func(dec *words.Decoder) { h = decodeHello(dec) }); err != nil {
				link.Close()
				return
			}
			if h.Spare {
				if h.NodeID != -1 {
					link.Close()
					return
				}
			} else {
				if h.NodeID < 0 || h.NodeID >= c.cc.Cfg.P {
					link.Close()
					return
				}
				link.SetPeer(h.NodeID)
				c.pmu.Lock()
				link.SetEpoch(c.epochs[h.NodeID])
				c.epochs[h.NodeID]++
				c.pmu.Unlock()
			}
			if c.cc.Secret != "" {
				if err := c.challenge(link); err != nil {
					link.Close()
					return
				}
			}
			// Untrack before handing over: once the join is delivered
			// the link belongs to the run, and shutdown must not close
			// an installed link out from under it.
			c.untrackPending(link)
			select {
			case c.joins <- joinReq{h: h, link: link}:
			case <-c.closed:
				link.Close()
			}
		}()
	}
}

func (c *coordinator) trackPending(l *Link) bool {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	select {
	case <-c.closed:
		return false
	default:
	}
	c.pending[l] = struct{}{}
	return true
}

func (c *coordinator) untrackPending(l *Link) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	delete(c.pending, l)
}

// challenge authenticates a joining worker: a fresh 32-byte nonce goes
// out, HMAC-SHA256(secret, nonce) must come back. A wrong answer is
// counted; a transport failure just drops the attempt.
func (c *coordinator) challenge(link *Link) error {
	nonce := make([]byte, 8*nonceWords)
	if _, err := rand.Read(nonce); err != nil {
		return err
	}
	nw := bytesToWords(nonce)
	if err := link.Send(encodeChallenge(nw)); err != nil {
		return err
	}
	msg, err := link.Recv(c.cc.JoinTimeout)
	if err != nil {
		return err
	}
	var mac []uint64
	if err := decodeUntrusted(new(words.Decoder), msg, msgAuth, func(dec *words.Decoder) { mac = dec.Uints() }); err != nil {
		add(c.authRejects, 1)
		return err
	}
	if !hmac.Equal(wordsToBytes(mac), wordsToBytes(authMAC(c.cc.Secret, nw))) {
		add(c.authRejects, 1)
		return fmt.Errorf("cluster: join authentication failed")
	}
	return nil
}

// welcome reconciles one worker's journal against the decision log
// and installs its link. The 2PC recovery rule: a prepared record is
// committed exactly when the coordinator's journal covers it;
// otherwise presumed abort.
func (c *coordinator) welcome(j joinReq) error {
	id := j.h.NodeID
	if want := c.core.NodeFpr(id); j.h.Fpr != want {
		j.link.Close()
		return fmt.Errorf("%w: worker %d fingerprint %x, want %x (different program, machine, or options?)", errDiverged, id, j.h.Fpr, want)
	}
	C := c.core.Committed()
	var req []uint64
	if C == 0 {
		req = welcome{Reset: true}.encode()
	} else {
		switch {
		case j.h.Committed == C:
			// Fully caught up; any pending tail is an unprepared next
			// step that must be presumed aborted.
			req = welcome{CommitPending: false}.encode()
		case j.h.Committed == C-1 && j.h.HasPending:
			req = welcome{CommitPending: true}.encode()
		default:
			// The worker's own journal cannot reach the committed
			// barrier — 2PC recovery is out. With a replica at exactly
			// this barrier the node migrates onto the connection (wiped
			// directory, fresh respawn, whatever it holds is discarded);
			// without one the loss is permanent and loud.
			c.replWait()
			if c.replica != nil && c.replica.Restorable(id, C) {
				return c.migrate(j.link, id)
			}
			j.link.Close()
			return fmt.Errorf("%w: worker %d journal has %d committed records (pending: %v), coordinator has %d — state lost beyond 2PC recovery",
				errDiverged, id, j.h.Committed, j.h.HasPending, C)
		}
	}
	if err := j.link.Send(req); err != nil {
		j.link.Close()
		return err
	}
	msg, err := j.link.Recv(c.cc.RecvTimeout)
	if err != nil {
		j.link.Close()
		return err
	}
	out, err := readWelcomeOut(id, msg)
	if err != nil {
		j.link.Close()
		return err
	}
	if C > 0 && (out.Committed != C || out.StepsDone != c.core.StepsDone()) {
		j.link.Close()
		return fmt.Errorf("%w: worker %d reconciled to record %d / step %d, coordinator at record %d / step %d",
			errDiverged, id, out.Committed, out.StepsDone, C, c.core.StepsDone())
	}
	if old := c.links[id]; old != nil {
		old.Close()
	}
	c.links[id] = j.link
	return nil
}

// migrate re-seeds node id from its replica onto link — the RESTORE
// leg of the handshake — and installs the link on success. The replica
// must already have been checked Restorable at the coordinator's
// barrier.
func (c *coordinator) migrate(link *Link, id int) error {
	C := c.core.Committed()
	snap, err := c.replica.Load(id)
	if err != nil {
		// The replica lied about being clean; stop trusting it. With
		// the worker's own state also gone this run cannot continue.
		c.replica.Invalidate(id)
		link.Close()
		return fmt.Errorf("%w: worker %d state lost and replica unreadable: %v", errDiverged, id, err)
	}
	link.SetPeer(id)
	if err := link.Send(encodeRestore(id, snap)); err != nil {
		link.Close()
		return err
	}
	msg, err := link.Recv(c.cc.RecvTimeout)
	if err != nil {
		link.Close()
		return err
	}
	out, err := readWelcomeOut(id, msg)
	if err != nil {
		link.Close()
		return err
	}
	if out.Committed != C || out.StepsDone != c.core.StepsDone() {
		link.Close()
		return fmt.Errorf("%w: worker %d restored to record %d / step %d, coordinator at record %d / step %d",
			errDiverged, id, out.Committed, out.StepsDone, C, c.core.StepsDone())
	}
	if old := c.links[id]; old != nil {
		old.Close()
	}
	c.links[id] = link
	add(c.migrations, 1)
	return nil
}

// adoptSpare hands worker slot id to a parked spare, if one is alive
// and the slot's replica is restorable. Reports whether a spare was
// installed.
func (c *coordinator) adoptSpare(id int) bool {
	c.replWait()
	if c.replica == nil || !c.replica.Restorable(id, c.core.Committed()) {
		return false
	}
	for len(c.spares) > 0 {
		j := c.spares[0]
		c.spares = c.spares[1:]
		if j.link.Err() != nil {
			j.link.Close()
			continue
		}
		if err := c.migrate(j.link, id); err != nil {
			if fatalJoin(err) {
				// Divergence during a spare restore means the replica is
				// bad; fall back to waiting for the real worker.
				return false
			}
			continue // spare died mid-restore; try the next one
		}
		return true
	}
	return false
}

// gatherAll waits until every worker slot has a reconciled link.
// Spares park; a slot still empty after SpareDelay is handed to one.
func (c *coordinator) gatherAll() error {
	spareDelay := c.cc.SpareDelay
	if spareDelay <= 0 {
		spareDelay = c.cc.JoinTimeout / 4
	}
	start := time.Now()
	for {
		missing := -1
		for i, l := range c.links {
			if l == nil {
				missing = i
				break
			}
		}
		if missing < 0 {
			return nil
		}
		select {
		case j := <-c.joins:
			if j.h.Spare {
				c.spares = append(c.spares, j)
				continue
			}
			if err := c.welcome(j); err != nil {
				if fatalJoin(err) {
					return err
				}
				// A stale or broken connection; keep waiting.
				continue
			}
			start = time.Now() // progress: restart the clock
		case <-time.After(spareDelay):
			if c.adoptSpare(missing) {
				start = time.Now()
				continue
			}
			if time.Since(start) >= c.cc.JoinTimeout {
				return &LostError{Peer: missing, Reason: fmt.Sprintf("did not join within %v and no spare could take over", c.cc.JoinTimeout)}
			}
		}
	}
}

// fatalJoin: divergence errors end the run; transport hiccups during
// a handshake just drop that connection attempt.
func fatalJoin(err error) bool {
	return errors.Is(err, errDiverged) || fatal(err)
}

var errDiverged = errors.New("cluster: state diverged")

// fanout carries k to every worker concurrently — each slot's gang
// member its own worker's leg — and returns the slots' decoders, each
// set to read its worker's reply past the kind word; they are valid
// until the next fan-out. Every request is encoded before any leg
// starts: a WRITE is made of the workers' COMPUTE_OUT replies, which a
// link takes back as soon as the next reply on it arrives (Link). Any
// failure is joined with its worker attributed; the caller classifies
// and recovers.
func (c *coordinator) fanout(k call) ([]*words.Decoder, error) {
	for i := range c.slots {
		c.slots[i].req = c.request(i, &c.slots[i].enc, &k)
	}
	c.resp = k.resp
	for i := range c.slots {
		c.gang.Wake(i)
	}
	return c.decs, c.gang.Wait()
}

// leg sends worker i its slot's request and reads the reply into the
// slot's decoder.
func (c *coordinator) leg(i int) error {
	s := &c.slots[i]
	l := c.links[i]
	if l == nil {
		return fmt.Errorf("cluster: worker %d disconnected", i)
	}
	if err := l.Send(s.req); err != nil {
		return fmt.Errorf("cluster: worker %d: %w", i, err)
	}
	msg, err := l.Recv(c.cc.RecvTimeout)
	if err != nil {
		return fmt.Errorf("cluster: worker %d: %w", i, err)
	}
	if err := expect(&s.dec, msg, c.resp); err != nil {
		var we *WorkerError
		if errors.As(err, &we) {
			we.Node = i
			return we
		}
		return fmt.Errorf("cluster: worker %d: %w", i, err)
	}
	return nil
}

// request encodes worker i's request of call k into enc.
func (c *coordinator) request(i int, enc *words.Encoder, k *call) []uint64 {
	switch k.req {
	case msgSetup:
		return encodeSetup(enc, c.replReq(i))
	case msgStepBegin:
		return encodeKindStep(enc, msgStepBegin, int64(k.step))
	case msgCompute:
		return encodeKindStep(enc, msgCompute, int64(k.j), int64(k.step))
	case msgWrite:
		// What every worker delivered to this one in the round's
		// computing phase, by source.
		c.in = c.in[:0]
		for _, bo := range k.outs {
			c.in = append(c.in, bo.Scatter[i])
		}
		return encodeWriteReq(enc, k.j, k.step, c.in)
	case msgPrepare:
		return encodePrepare(enc, k.step, k.halted, c.replReq(i))
	}
	return encodeKind(enc, k.req)
}

// gather is fanout with every reply decoded by decode, in worker order.
func (c *coordinator) gather(k call, decode func(i int, dec *words.Decoder)) error {
	decs, err := c.fanout(k)
	if err != nil {
		return err
	}
	for i, dec := range decs {
		if err := decodeReply(i, k.resp, dec, func(dec *words.Decoder) { decode(i, dec) }); err != nil {
			return err
		}
	}
	return nil
}

// readWelcomeOut reads worker id's WELCOME_OUT reply, or its error.
func readWelcomeOut(id int, msg []uint64) (out welcomeOut, err error) {
	var dec words.Decoder
	if err = expect(&dec, msg, msgWelcomeOut); err == nil {
		err = decodeReply(id, msgWelcomeOut, &dec, func(dec *words.Decoder) { out = decodeWelcomeOut(dec) })
	}
	return out, err
}

// decodeReply runs decode over worker i's reply of the given kind. A
// reply shorter than what decode reads, or one that claims more records
// than it holds, panics the word decoder; it is returned as an error
// naming the worker, which the driver rolls back like any failed hop.
func decodeReply(i int, kind uint64, dec *words.Decoder, decode func(*words.Decoder)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: worker %d: malformed %s reply: %v", i, msgName(kind), r)
		}
	}()
	decode(dec)
	return nil
}

// Setup is phase one of the setup barrier (decision record 0).
func (c *coordinator) Setup() ([]disk.Stats, error) {
	c.replWait()
	stats := make([]disk.Stats, len(c.slots))
	if err := c.gather(call{req: msgSetup, resp: msgSetupOut}, func(i int, dec *words.Decoder) { stats[i] = core.DecodeDiskStats(dec) }); err != nil {
		return nil, err
	}
	c.stage(c.decs)
	c.probe("prepare", -1)
	return stats, nil
}

// replReq builds worker i's replication piggyback for this barrier's
// phase-one request. The caller must have replWait()ed first so
// Version reflects the previous barrier's landed apply.
func (c *coordinator) replReq(i int) replReq {
	if c.replica == nil {
		return replReq{Base: -1}
	}
	return replReq{Replicate: true, Base: c.replica.Version(i)}
}

// stage decodes the snapshot tails of the workers' phase-one
// replies. Staged, not applied: only a landed decision record promotes
// them into the replica store. Without a replica there is nothing to
// stage.
func (c *coordinator) stage(decs []*words.Decoder) {
	if c.replica == nil {
		return
	}
	c.staged = make([]*core.NodeSnapshot, len(decs))
	for i, dec := range decs {
		snap, err := decodeSnapshotTail(dec)
		if err != nil {
			c.replica.Invalidate(i)
			continue
		}
		c.staged[i] = snap
	}
}

// Rollback is abort-and-replay: any transport failure before the
// decision record lands rolls every participant back to the last
// committed barrier. Live workers reload their journals — or, while no
// barrier has committed yet, are wiped fresh — and dead workers rejoin,
// where the handshake does the same (their prepared tails are presumed
// aborted). The driver rewinds its accounting; no operations are
// charged, so a replay leaves no trace in the Result.
func (c *coordinator) Rollback(step, attempt int, cause error) (int64, error) {
	if fatal(cause) || attempt >= stepRetries {
		return 0, cause
	}
	add(c.replays, 1)
	c.probe("recover", step)
	req, resp := encodeKind(new(words.Encoder), msgAbort), msgAborted
	if step < 0 {
		req, resp = welcome{Reset: true}.encode(), msgWelcomeOut
	}
	var dec words.Decoder
	for i, l := range c.links {
		if l == nil {
			continue
		}
		err := l.Send(req)
		if err == nil {
			var msg []uint64
			if msg, err = l.Recv(c.cc.RecvTimeout); err == nil {
				err = expect(&dec, msg, resp)
			}
		}
		if fatal(err) {
			return 0, err
		}
		if err != nil {
			l.Close()
			c.links[i] = nil
		}
	}
	return 0, c.reacquire()
}

// reacquire restores every empty worker slot: trigger the respawn
// hook and absorb rejoins until the roster is complete.
func (c *coordinator) reacquire() error {
	if c.cc.Respawn != nil {
		for i, l := range c.links {
			if l == nil {
				if err := c.cc.Respawn(i); err != nil {
					return fmt.Errorf("cluster: respawn worker %d: %w", i, err)
				}
			}
		}
	}
	return c.gatherAll()
}

func (c *coordinator) Begin(step int) error {
	_, err := c.fanout(call{req: msgStepBegin, resp: msgOK, step: step})
	return err
}

// Compute returns the workers' COMPUTE_OUT rows, decoded into the slots'
// memory; they are valid until the next Compute. Their batches alias the
// replies, which stay valid through the Write that relays them: a link
// takes a reply back only when the next one arrives (Link).
func (c *coordinator) Compute(j, step int) ([]*core.BatchOut, error) {
	if err := c.gather(call{req: msgCompute, resp: msgComputeOut, j: j, step: step}, func(i int, dec *words.Decoder) { decodeComputeOut(dec, c.outs[i]) }); err != nil {
		return nil, err
	}
	return c.outs, nil
}

// Write relays to every worker what each worker delivered to it in the
// round's computing phase. The batches alias the COMPUTE_OUT replies
// they were decoded from, which nothing else holds.
func (c *coordinator) Write(j, step int, outs []*core.BatchOut) error {
	_, err := c.fanout(call{req: msgWrite, resp: msgOK, j: j, step: step, outs: outs})
	return err
}

func (c *coordinator) Totals() ([]core.StepTotals, error) {
	if err := c.gather(call{req: msgSum, resp: msgSumOut}, func(i int, dec *words.Decoder) { c.totals[i] = decodeSumOut(dec) }); err != nil {
		return nil, err
	}
	return c.totals, nil
}

// Prepare is 2PC phase one: every worker journals its prepared barrier
// record (and, with replication on, ships its snapshot).
func (c *coordinator) Prepare(step int, halted bool) ([]int64, error) {
	c.probe("prepare", step)
	c.barrier = time.Now()
	c.replWait() // the previous barrier's apply had the whole superstep to land
	decs, err := c.fanout(call{req: msgPrepare, resp: msgPrepared, step: step, halted: halted})
	if err != nil {
		return nil, err
	}
	c.stage(decs)
	return nil, nil
}

// Commit runs once the decision record landed: the staged snapshots
// become the replica's, then 2PC phase two.
func (c *coordinator) Commit(step int) error {
	c.applySnapshots(c.staged)
	c.probe("decided", step)
	if err := c.broadcastCommit(); err != nil {
		return err
	}
	if step >= 0 && c.barrierWait != nil {
		c.barrierWait.Observe(time.Since(c.barrier).Nanoseconds())
	}
	return nil
}

// broadcastCommit is 2PC phase two: tell every worker the decision
// landed. The decision is already durable — and with replication on,
// the barrier's snapshots (shipped on PREPARED) are already in the
// replica store — so worker deaths here are absorbed without abort: a
// dead worker's rejoin handshake commits its prepared record, and a
// dead worker whose state died with it migrates from the replica.
func (c *coordinator) broadcastCommit() error {
	for {
		_, err := c.fanout(call{req: msgCommit, resp: msgCommitted})
		if err == nil {
			return nil
		}
		if fatal(err) {
			return err
		}
		// Drop dead links; rejoining workers reconcile to the
		// committed record, which doubles as their COMMIT.
		if c.dropDead() == 0 {
			// Everyone is connected yet the broadcast failed — a
			// protocol error rather than a death; surface it.
			return err
		}
		if err := c.reacquire(); err != nil {
			return err
		}
	}
}

// applySnapshots folds the decided barrier's staged snapshots into
// the replica store, each node's into its node directory: the images
// imported and fsynced, then the record prepared and committed through
// the replica's journal, with its fsyncs. That disk work runs in a
// background goroutine so it overlaps the next superstep's compute
// instead of sitting on the barrier critical path; at most one apply
// batch is ever in flight (preserving each node's delta chain), and
// every coordinator-side replica read waits for it first (replWait). A
// snapshot that fails to apply just invalidates that node's replica —
// the next PREPARE requests a full snapshot (Version reports -1) — it
// never fails the run.
func (c *coordinator) applySnapshots(snaps []*core.NodeSnapshot) {
	if c.replica == nil {
		return
	}
	c.replWait()
	for _, snap := range snaps {
		if snap != nil {
			add(c.replicaBytes, int64(8*snap.WireWords()))
		}
	}
	c.replApply.Add(1)
	go func() {
		defer c.replApply.Done()
		for i, snap := range snaps {
			if snap == nil {
				continue
			}
			c.replica.Apply(i, snap) //nolint:errcheck // a failed apply leaves the replica invalid, which is the handling
		}
	}()
}

// replWait blocks until the in-flight apply batch (if any) has landed.
// It must precede every coordinator-side touch of the replica store:
// Version reads when building the next barrier's requests, Restorable
// and Load on a migration, and shutdown.
func (c *coordinator) replWait() {
	if c.replica != nil {
		c.replApply.Wait()
	}
}

// dropDead closes and forgets every link that has failed, and returns
// how many worker slots are now empty.
func (c *coordinator) dropDead() (empty int) {
	for i, l := range c.links {
		if l != nil && l.Err() != nil {
			l.Close()
			c.links[i] = nil
		}
		if c.links[i] == nil {
			empty++
		}
	}
	return empty
}

func (c *coordinator) Final() ([]*core.NodeReport, error) {
	final := func() ([]*core.NodeReport, error) {
		reports := make([]*core.NodeReport, len(c.slots))
		if err := c.gather(call{req: msgFinal, resp: msgFinalOut}, func(i int, dec *words.Decoder) { reports[i] = core.DecodeNodeReport(dec) }); err != nil {
			return nil, err
		}
		return reports, nil
	}
	reports, err := final()
	if err != nil && !fatal(err) {
		// The run is fully committed; losing a worker while reading
		// final contexts is recoverable by rejoin and retry.
		c.dropDead()
		if err = c.reacquire(); err == nil {
			reports, err = final()
		}
	}
	return reports, err
}

// shutdown releases every resource; workers (parked spares included)
// get a best-effort SHUTDOWN so join-mode processes exit cleanly.
func (c *coordinator) shutdown() {
	c.replWait() // don't leave a replica apply writing into a dying run
	close(c.closed)
	// Cut loose handshakes still waiting in Recv: their goroutines are
	// in acceptWG and would otherwise hold the shutdown hostage for a
	// full JoinTimeout.
	c.pmu.Lock()
	for l := range c.pending {
		l.Close()
	}
	c.pmu.Unlock()
	c.gang.Stop()
	var dec words.Decoder
	byebye := func(l *Link) {
		if l.Send(encodeKind(new(words.Encoder), msgShutdown)) == nil {
			if msg, err := l.Recv(5 * time.Second); err == nil {
				expect(&dec, msg, msgBye) //nolint:errcheck
			}
		}
		l.Close()
	}
	for _, l := range c.links {
		if l == nil {
			continue
		}
		byebye(l)
	}
	for _, j := range c.spares {
		if j.link.Err() == nil {
			byebye(j.link)
		} else {
			j.link.Close()
		}
	}
	c.cc.Listener.Close()
	c.acceptWG.Wait()
	// Joins that raced the close and parked in the buffered channel
	// hold live connections; close them so their workers see the end
	// of the run instead of waiting forever for a WELCOME.
	for {
		select {
		case j := <-c.joins:
			byebye(j.link)
		default:
			c.core.Close()
			return
		}
	}
}
