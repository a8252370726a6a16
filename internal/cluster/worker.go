package cluster

import (
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
	enc    words.Encoder // every reply but the handshake's, reused once Send returns
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
	w.engine = eng
	return nil
}

// Close releases the engine.
func (w *Worker) Close() error {
	if w.engine == nil {
		return nil
	}
	err := w.engine.Close()
	w.engine = nil
	return err
}

// reset wipes the node's state directory and reopens fresh — the
// coordinator's verdict when no barrier has ever committed.
func (w *Worker) reset() error {
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

// handle performs one request and builds the response. Engine errors
// become ERR responses — the coordinator classifies them; the worker
// keeps serving.
func (w *Worker) handle(msg []uint64) (resp []uint64, done bool) {
	dec := words.NewDecoder(msg)
	kind := dec.Uint()
	enc := &w.enc
	fail := func(err error) ([]uint64, bool) { return encodeErr(enc, err), false }
	if w.engine == nil {
		// A parked spare can only authenticate, adopt a node, or leave.
		switch kind {
		case msgChallenge, msgRestore, msgShutdown:
		default:
			return fail(fmt.Errorf("cluster: spare worker got %s before RESTORE", msgName(kind)))
		}
	}
	switch kind {
	case msgChallenge:
		return encodeAuth(authMAC(w.Secret, dec.Uints())), false
	case msgRestore:
		id := int(dec.Int())
		snap, err := core.DecodeSnapshot(dec)
		if err != nil {
			return fail(err)
		}
		if err := w.restore(id, snap); err != nil {
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
		if err := w.engine.ResolvePending(dec.Bool()); err != nil {
			return fail(err)
		}
		if err := w.engine.LoadCommitted(); err != nil {
			return fail(err)
		}
		return w.welcomeOut(), false
	case msgSetup:
		req := decodeReplReq(dec)
		stats, err := w.engine.Setup()
		if err != nil {
			return fail(err)
		}
		var snap *core.NodeSnapshot
		if req.Replicate {
			if snap, err = w.engine.ExportSnapshot(req.Base); err != nil {
				return fail(err)
			}
		}
		return encodeSetupOut(enc, stats, snap), false
	case msgStepBegin:
		w.engine.BeginStep()
		return encodeKind(enc, msgOK), false
	case msgCompute:
		f := dec.Ints()
		bo, err := w.engine.Compute(int(f[0]), int(f[1]))
		if err != nil {
			return fail(err)
		}
		w.probe("computed", int(f[1]))
		return encodeComputeOut(enc, bo), false
	case msgWrite:
		// The batches alias msg, which Write copies out of before it
		// returns (core.BlockBatch).
		f := dec.Ints()
		in := decodeBatches(dec)
		if err := w.engine.Write(int(f[0]), int(f[1]), in); err != nil {
			return fail(err)
		}
		return encodeKind(enc, msgOK), false
	case msgSum:
		return encodeSumOut(enc, w.engine.StepTotals()), false
	case msgPrepare:
		f := dec.Ints()
		req := decodeReplReq(dec)
		step := int(f[0])
		if _, err := w.engine.Prepare(step, f[1] != 0); err != nil {
			return fail(err)
		}
		w.probe("prepared", step)
		var snap *core.NodeSnapshot
		if req.Replicate {
			var err error
			if snap, err = w.engine.ExportSnapshot(req.Base); err != nil {
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
		r, err := w.engine.Final()
		if err != nil {
			return fail(err)
		}
		return encodeFinalOut(enc, r), false
	case msgShutdown:
		return encodeKind(enc, msgBye), true
	}
	return fail(fmt.Errorf("cluster: worker %d: unexpected %s", w.NodeID, msgName(kind)))
}

// Run dials the coordinator and serves; with redial true it keeps
// reconnecting (with backoff) after connection loss until SHUTDOWN,
// which is the join-mode worker's whole life cycle.
func (w *Worker) Run(addr string, redial bool, lc LinkConfig) error {
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
