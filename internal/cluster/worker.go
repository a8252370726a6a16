package cluster

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"embsp/internal/bsp"
	"embsp/internal/core"
	"embsp/internal/words"
)

// Worker is one real processor of a cluster run: a core.NodeEngine
// over its own state directory, serving the coordinator's lockstep
// requests. It never initiates anything except the HELLO handshake;
// after that the coordinator speaks first and the worker answers. A
// worker that loses its connection exits Serve with the error — the
// process around it decides whether to redial (join mode) or die and
// be respawned (spawn mode). Either way its journal carries the
// barrier state, so the rejoin handshake reconciles it exactly.
type Worker struct {
	Prog   bsp.Program
	Cfg    core.MachineConfig
	Opts   core.Options
	NodeID int
	Dir    string

	// Spare marks a worker that owns no node yet: it joins with
	// NodeID -1, parks at the coordinator, and only becomes node i when
	// a RESTORE assigns it a lost worker's replica.
	Spare bool

	// Secret, when the coordinator requires join authentication, is the
	// shared secret answering its HMAC challenge.
	Secret string

	// Probe, when set, is called at phase boundaries ("computed",
	// "prepared", "committed" — after the engine op, before the
	// response is sent). Crash tests use it to die in the windows the
	// 2PC must survive.
	Probe func(phase string, step int)

	engine *core.NodeEngine
	// fresh: the engine was opened fresh in this process — no journal
	// was found — and has served nothing since, so it is already what a
	// RESET would make of it.
	fresh bool
	enc   words.Encoder // every reply but the handshake's, reused once Send returns
	req   request       // the request being served, decoded into memory it reuses
}

func (w *Worker) probe(phase string, step int) {
	if w.Probe != nil {
		w.Probe(phase, step)
	}
}

// Open opens the worker's engine, resuming from the node journal when
// one exists (the respawn path) and starting fresh otherwise.
func (w *Worker) Open() error {
	if w.engine != nil {
		return nil
	}
	resume := false
	if _, err := os.Stat(filepath.Join(w.Dir, "journal.wal")); err == nil {
		resume = true
	}
	eng, err := core.OpenNode(w.Prog, w.Cfg, w.Opts, w.NodeID, w.Dir, resume)
	if err != nil {
		return err
	}
	w.engine, w.fresh = eng, !resume
	return nil
}

// Close releases the engine.
func (w *Worker) Close() error {
	if w.engine == nil {
		return nil
	}
	err := w.engine.Close()
	w.engine, w.fresh = nil, false
	return err
}

// reset wipes the node's state directory and reopens fresh — the
// coordinator's verdict when no barrier has ever committed — unless the
// engine is fresh already: a fresh run opens every node once.
func (w *Worker) reset() error {
	if w.fresh {
		return nil
	}
	if w.engine != nil {
		w.engine.Close()
		w.engine = nil
	}
	if err := os.RemoveAll(w.Dir); err != nil {
		return err
	}
	if err := os.MkdirAll(w.Dir, 0o755); err != nil {
		return err
	}
	eng, err := core.OpenNode(w.Prog, w.Cfg, w.Opts, w.NodeID, w.Dir, false)
	if err != nil {
		return err
	}
	w.engine = eng
	return nil
}

// restore re-materializes node id from a replica snapshot — the
// migration path. Whatever state this worker held before (a wiped
// fresh open, a diverged journal, or nothing at all for a spare) is
// discarded; the directory is rebuilt from the snapshot.
func (w *Worker) restore(id int, snap *core.NodeSnapshot) error {
	if !w.Spare && id != w.NodeID {
		return fmt.Errorf("cluster: worker %d told to restore node %d", w.NodeID, id)
	}
	if w.engine != nil {
		w.engine.Close()
		w.engine = nil
	}
	eng, err := core.AdoptNode(w.Prog, w.Cfg, w.Opts, id, w.Dir, snap)
	if err != nil {
		return err
	}
	w.engine = eng
	w.NodeID = id
	w.Spare = false // from here on it is node id, redials and all
	return nil
}

func (w *Worker) welcomeOut() []uint64 {
	return welcomeOut{
		Committed: w.engine.Committed(),
		StepsDone: w.engine.StepsDone(),
		Halted:    w.engine.Halted(),
	}.encode()
}

// Serve runs the worker's side of the protocol over link until the
// coordinator says SHUTDOWN (returns nil) or the link dies (returns
// the error). The engine must be Open.
func (w *Worker) Serve(link *Link) error {
	var h hello
	if w.Spare {
		// A spare owns nothing until a RESTORE arrives; its hello is
		// just a parking request.
		h = hello{NodeID: -1, Spare: true}
	} else {
		if err := w.Open(); err != nil {
			return err
		}
		h = hello{
			NodeID:     w.NodeID,
			Committed:  w.engine.Committed(),
			HasPending: w.engine.HasPending(),
			Fpr:        w.engine.Fingerprint(),
		}
	}
	if err := link.Send(h.encode()); err != nil {
		return err
	}
	for {
		msg, err := link.Recv(0)
		if err != nil {
			return err
		}
		resp, done := w.handle(msg)
		if err := link.Send(resp); err != nil || done {
			return err
		}
	}
}

// request is a coordinator's request, decoded: the fields its kind
// carries. A request is decoded into the last one's memory: its decoder
// and its list of batches.
type request struct {
	kind    uint64
	nonce   []uint64           // CHALLENGE
	node    int                // RESTORE: the node to become
	snap    *core.NodeSnapshot // RESTORE
	commit  bool               // WELCOME: the prepared record's fate
	repl    replReq            // SETUP, PREPARE
	j, step int                // COMPUTE and WRITE; STEP_BEGIN's and PREPARE's step
	halted  bool               // PREPARE
	in      []core.BlockBatch  // WRITE: one batch per source, aliasing the frame
	dec     words.Decoder
}

// decodeRequest decodes a request frame into r under decodeUntrusted, so
// that a frame too short for its kind, a count it does not hold, an
// array of the wrong number of fields, damaged block metadata or words
// past the last field is an error, not a panic.
func decodeRequest(msg []uint64, r *request) (err error) {
	*r = request{in: r.in[:0], dec: r.dec}
	if len(msg) == 0 {
		return errors.New("cluster: empty request frame")
	}
	r.kind = msg[0]
	var snapErr error
	err = decodeUntrusted(&r.dec, msg, r.kind, func(dec *words.Decoder) {
		var f [2]int64
		switch r.kind {
		case msgChallenge:
			r.nonce = dec.Uints()
		case msgRestore:
			r.node = int(dec.Int())
			r.snap, snapErr = core.DecodeSnapshot(dec)
		case msgWelcome:
			r.commit = dec.Bool()
		case msgSetup:
			r.repl = decodeReplReq(dec)
		case msgStepBegin:
			fields(dec, f[:1])
			r.step = int(f[0])
		case msgCompute, msgWrite:
			fields(dec, f[:])
			r.j, r.step = int(f[0]), int(f[1])
			if r.kind == msgWrite {
				r.in = decodeBatches(dec, r.in)
			}
		case msgPrepare:
			fields(dec, f[:])
			r.step, r.halted = int(f[0]), f[1] != 0
			r.repl = decodeReplReq(dec)
		}
		if snapErr == nil && dec.Remaining() > 0 {
			panic(fmt.Sprintf("%d words past the last field", dec.Remaining()))
		}
	})
	if err == nil && snapErr != nil {
		err = fmt.Errorf("cluster: malformed %s frame: %w", msgName(r.kind), snapErr)
	}
	return err
}

// handle performs one request and builds the response. A request that
// does not decode, and engine errors, become ERR responses — the
// coordinator classifies them; the worker keeps serving.
func (w *Worker) handle(msg []uint64) (resp []uint64, done bool) {
	enc := &w.enc
	fail := func(err error) ([]uint64, bool) { return encodeErr(enc, err), false }
	r := &w.req
	if err := decodeRequest(msg, r); err != nil {
		return fail(err)
	}
	if r.kind != msgReset {
		w.fresh = false // whatever it does, the engine has served it
	}
	if w.engine == nil {
		// A parked spare can only authenticate, adopt a node, or leave.
		switch r.kind {
		case msgChallenge, msgRestore, msgShutdown:
		default:
			return fail(fmt.Errorf("cluster: spare worker got %s before RESTORE", msgName(r.kind)))
		}
	}
	if (r.kind == msgCompute || r.kind == msgWrite) && (r.j < 0 || r.j >= w.engine.Batches()) {
		return fail(fmt.Errorf("cluster: %s of batch %d, of %d", msgName(r.kind), r.j, w.engine.Batches()))
	}
	switch r.kind {
	case msgChallenge:
		return encodeAuth(authMAC(w.Secret, r.nonce)), false
	case msgRestore:
		if err := w.restore(r.node, r.snap); err != nil {
			return fail(err)
		}
		return w.welcomeOut(), false
	case msgReset:
		if err := w.reset(); err != nil {
			return fail(err)
		}
		return w.welcomeOut(), false
	case msgWelcome:
		// Resolve a prepared record as the coordinator decided, then
		// abort to the committed barrier: a reconnecting worker may carry
		// a half-run superstep in memory and on disk, and adopting the
		// committed record discards every trace of it.
		if err := w.engine.ResolvePending(r.commit); err != nil {
			return fail(err)
		}
		if err := w.engine.LoadCommitted(); err != nil {
			return fail(err)
		}
		return w.welcomeOut(), false
	case msgSetup:
		stats, err := w.engine.Setup()
		if err != nil {
			return fail(err)
		}
		var snap *core.NodeSnapshot
		if r.repl.Replicate {
			if snap, err = w.engine.ExportSnapshot(r.repl.Base); err != nil {
				return fail(err)
			}
		}
		return encodeSetupOut(enc, stats, snap), false
	case msgStepBegin:
		w.engine.BeginStep()
		return encodeKind(enc, msgOK), false
	case msgCompute:
		bo, err := w.engine.Compute(r.j, r.step)
		if err != nil {
			return fail(err)
		}
		w.probe("computed", r.step)
		return encodeComputeOut(enc, bo), false
	case msgWrite:
		// The batches alias msg, which Write copies out of before it
		// returns (core.BlockBatch).
		if err := w.engine.Write(r.j, r.step, r.in); err != nil {
			return fail(err)
		}
		return encodeKind(enc, msgOK), false
	case msgSum:
		return encodeSumOut(enc, w.engine.StepTotals()), false
	case msgPrepare:
		if _, err := w.engine.Prepare(r.step, r.halted); err != nil {
			return fail(err)
		}
		w.probe("prepared", r.step)
		var snap *core.NodeSnapshot
		if r.repl.Replicate {
			var err error
			if snap, err = w.engine.ExportSnapshot(r.repl.Base); err != nil {
				return fail(err)
			}
		}
		return encodePrepared(enc, snap), false
	case msgCommit:
		// Idempotent: a worker that reconciled at rejoin has already
		// committed; the broadcast's retry must still succeed.
		if w.engine.HasPending() {
			if err := w.engine.Commit(); err != nil {
				return fail(err)
			}
		}
		w.probe("committed", w.engine.StepsDone()-1)
		return encodeKind(enc, msgCommitted), false
	case msgAbort:
		if err := w.engine.LoadCommitted(); err != nil {
			return fail(err)
		}
		return encodeKind(enc, msgAborted), false
	case msgFinal:
		report, err := w.engine.Final()
		if err != nil {
			return fail(err)
		}
		return encodeFinalOut(enc, report), false
	case msgShutdown:
		return encodeKind(enc, msgBye), true
	}
	return fail(fmt.Errorf("cluster: worker %d: unexpected %s", w.NodeID, msgName(r.kind)))
}

// Run dials the coordinator and serves; with redial true it keeps
// reconnecting (with backoff) after connection loss until SHUTDOWN,
// which is the join-mode worker's whole life cycle. It closes the
// engine when it returns.
func (w *Worker) Run(addr string, redial bool, lc LinkConfig) (err error) {
	defer func() {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}()
	incarnation := lc.Epoch
	for attempt := 0; ; attempt++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			if !redial || attempt > 60 {
				return err
			}
			time.Sleep(500 * time.Millisecond)
			continue
		}
		// Each established connection is a new incarnation: an injected
		// death of epoch e spares the replacement, exactly like a
		// replaced machine.
		lc.Epoch = incarnation
		incarnation++
		link := NewLink(conn, lc)
		err = w.Serve(link)
		link.Close()
		if err == nil {
			return nil
		}
		if !redial {
			return err
		}
		attempt = 0
		time.Sleep(500 * time.Millisecond)
	}
}
