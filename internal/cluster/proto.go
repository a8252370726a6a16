package cluster

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"embsp/internal/core"
	"embsp/internal/disk"
	"embsp/internal/words"
)

// The cluster protocol is strict request/response lockstep: the
// coordinator sends one request per worker per phase and waits for
// the typed response before the phase barrier. Every message is a
// word vector whose first word is the kind; payloads are encoded with
// internal/words, the same codec the manifests use.
//
// Every message from STEP_BEGIN through COMMIT, and every reply, is
// encoded into an Encoder its sender keeps (the worker one, the
// coordinator one per worker slot): the functions below Reset it and
// return its words, which stay valid until its next use. Link.Send is
// done with a message when it returns, so that is the only rule. The
// messages that carry blocks grow it exact-fit to their size first.
// Handshake messages, rare and small, still encode into fresh memory.
//
// One compound superstep, coordinator's view (per worker, phases
// fanned out concurrently, folded in node order):
//
//	STEP_BEGIN → OK
//	per batch j:  COMPUTE → COMPUTE_OUT  (blocks for other workers' VPs,
//	                                      by owner, + traffic)
//	              WRITE → OK             (the blocks for this worker's VPs)
//	SUM → SUM_OUT                        (sleepers, sends, I/O ops)
//	PREPARE → PREPARED                   (2PC phase one: journal fsynced;
//	                                      with replication on, PREPARED
//	                                      carries the barrier snapshot)
//	-- coordinator appends its decision record,
//	   then folds the staged snapshots into the replica store --
//	COMMIT → COMMITTED                   (2PC phase two: HEAD advanced)
//
// A worker that cannot perform a request answers ERR; the coordinator
// turns it into an abort (pre-decision) or a fatal run error.
const (
	msgHello uint64 = iota + 1
	msgWelcome
	msgWelcomeOut
	msgReset
	msgSetup
	msgSetupOut
	msgStepBegin
	_ // 8 and 9 were FETCH and FETCH_OUT
	_
	msgCompute
	msgComputeOut
	msgWrite
	msgSum
	msgSumOut
	_ // 15 and 16 were ROUTE and ROUTE_OUT: the kinds after them keep
	_ // their values (see the note on appending below)
	msgPrepare
	msgPrepared
	msgCommit
	msgCommitted
	msgAbort
	msgAborted
	msgFinal
	msgFinalOut
	msgShutdown
	msgBye
	msgOK
	msgErr
	// PR 8 extensions. New kinds must append here — the values above
	// are load-bearing for mixed-version debugging of captures.
	msgChallenge // coordinator → worker: HMAC nonce (join authentication)
	msgAuth      // worker → coordinator: HMAC-SHA256(secret, nonce)
	msgRestore   // coordinator → worker: adopt this node from a replica snapshot
)

func msgName(k uint64) string {
	names := map[uint64]string{
		msgHello: "HELLO", msgWelcome: "WELCOME", msgWelcomeOut: "WELCOME_OUT",
		msgReset: "RESET", msgSetup: "SETUP", msgSetupOut: "SETUP_OUT",
		msgStepBegin: "STEP_BEGIN", msgCompute: "COMPUTE", msgComputeOut: "COMPUTE_OUT",
		msgWrite: "WRITE", msgSum: "SUM", msgSumOut: "SUM_OUT",
		msgPrepare: "PREPARE", msgPrepared: "PREPARED", msgCommit: "COMMIT",
		msgCommitted: "COMMITTED", msgAbort: "ABORT", msgAborted: "ABORTED",
		msgFinal: "FINAL", msgFinalOut: "FINAL_OUT", msgShutdown: "SHUTDOWN",
		msgBye: "BYE", msgOK: "OK", msgErr: "ERR",
		msgChallenge: "CHALLENGE", msgAuth: "AUTH", msgRestore: "RESTORE",
	}
	if n, ok := names[k]; ok {
		return n
	}
	return fmt.Sprintf("msg(%d)", k)
}

func putString(enc *words.Encoder, s string) {
	b := []byte(s)
	enc.PutInt(int64(len(b)))
	for len(b) > 0 {
		var w uint64
		n := len(b)
		if n > 8 {
			n = 8
		}
		for i := 0; i < n; i++ {
			w |= uint64(b[i]) << (8 * i)
		}
		enc.PutUint(w)
		b = b[n:]
	}
}

// getString reads a string putString wrote. A length its words cannot
// hold panics, as a truncated frame does, before it sizes an allocation.
func getString(dec *words.Decoder) string {
	n := int(dec.Int())
	if n < 0 || n > 8*dec.Remaining() {
		panic(fmt.Sprintf("cluster: a %d-byte string in %d words", n, dec.Remaining()))
	}
	b := make([]byte, 0, n)
	for len(b) < n {
		w := dec.Uint()
		for i := 0; i < 8 && len(b) < n; i++ {
			b = append(b, byte(w>>(8*i)))
		}
	}
	return string(b)
}

// hello is the worker's opening message: who it is and where its
// journal stands, for the coordinator's 2PC reconciliation. A spare
// (NodeID -1, Spare true) owns no node yet; it parks until the
// coordinator assigns it a lost node via RESTORE.
type hello struct {
	NodeID     int
	Committed  int
	HasPending bool
	Fpr        uint64
	Spare      bool
}

func (h hello) encode() []uint64 {
	enc := words.NewEncoder(nil)
	enc.PutUint(msgHello)
	enc.PutInts([]int64{int64(h.NodeID), int64(h.Committed)})
	enc.PutBool(h.HasPending)
	enc.PutUint(h.Fpr)
	enc.PutBool(h.Spare)
	return enc.Words()
}

func decodeHello(dec *words.Decoder) hello {
	f := dec.Ints()
	h := hello{
		NodeID: int(f[0]), Committed: int(f[1]),
		HasPending: dec.Bool(), Fpr: dec.Uint(),
	}
	if dec.Remaining() > 0 {
		h.Spare = dec.Bool()
	}
	return h
}

// welcome is the coordinator's reconciliation verdict: either reset
// (wipe and start fresh) or resolve — commit or abort any prepared
// tail, then reload the last committed barrier.
type welcome struct {
	Reset         bool
	CommitPending bool
}

func (w welcome) encode() []uint64 {
	enc := words.NewEncoder(nil)
	if w.Reset {
		enc.PutUint(msgReset)
		return enc.Words()
	}
	enc.PutUint(msgWelcome)
	enc.PutBool(w.CommitPending)
	return enc.Words()
}

// welcomeOut reports the worker's post-reconciliation barrier state.
type welcomeOut struct {
	Committed int
	StepsDone int
	Halted    bool
}

func (w welcomeOut) encode() []uint64 {
	enc := words.NewEncoder(nil)
	enc.PutUint(msgWelcomeOut)
	enc.PutInts([]int64{int64(w.Committed), int64(w.StepsDone)})
	enc.PutBool(w.Halted)
	return enc.Words()
}

func decodeWelcomeOut(dec *words.Decoder) welcomeOut {
	f := dec.Ints()
	return welcomeOut{Committed: int(f[0]), StepsDone: int(f[1]), Halted: dec.Bool()}
}

func encodeKind(enc *words.Encoder, k uint64) []uint64 {
	enc.Reset()
	enc.PutUint(k)
	return enc.Words()
}

func encodeKindStep(enc *words.Encoder, k uint64, a ...int64) []uint64 {
	enc.Reset()
	enc.PutUint(k)
	enc.PutInts(a)
	return enc.Words()
}

func encodeErr(enc *words.Encoder, err error) []uint64 {
	enc.Reset()
	enc.PutUint(msgErr)
	putString(enc, err.Error())
	return enc.Words()
}

// reserve empties enc for a message of n words, growing it exact-fit.
func reserve(enc *words.Encoder, n int) {
	enc.Reset()
	enc.Grow(n)
}

// replReq is the replication piggyback a SETUP or PREPARE request
// carries: when Replicate is set the worker's reply ships a snapshot
// of the barrier it just prepared — a delta on Base when its dirty-set
// coverage matches, a full snapshot otherwise. The snapshot rides 2PC
// phase one so the coordinator can fold it into the replica store the
// instant the decision record lands: a worker lost — state directory
// and all — at any point after the decision is then restorable at
// exactly the decided barrier, never one behind it.
type replReq struct {
	Replicate bool
	Base      int // replica's current version for this node; -1 forces full
}

func (r replReq) put(enc *words.Encoder) {
	enc.PutBool(r.Replicate)
	enc.PutInt(int64(r.Base))
}

// decodeReplReq reads what put wrote.
func decodeReplReq(dec *words.Decoder) replReq {
	return replReq{Replicate: dec.Bool(), Base: int(dec.Int())}
}

func encodeSetup(enc *words.Encoder, r replReq) []uint64 {
	enc.Reset()
	enc.PutUint(msgSetup)
	r.put(enc)
	return enc.Words()
}

func encodePrepare(enc *words.Encoder, step int, halt bool, r replReq) []uint64 {
	enc.Reset()
	enc.PutUint(msgPrepare)
	h := int64(0)
	if halt {
		h = 1
	}
	enc.PutInts([]int64{int64(step), h})
	r.put(enc)
	return enc.Words()
}

// putSnapshot appends the snapshot tail of a SETUP_OUT or PREPARED
// reply: a flag, and the snapshot when it is set.
func putSnapshot(enc *words.Encoder, snap *core.NodeSnapshot) {
	if snap == nil {
		enc.PutBool(false)
		return
	}
	enc.PutBool(true)
	snap.Encode(enc)
}

// decodeSnapshotTail reads what putSnapshot wrote.
func decodeSnapshotTail(dec *words.Decoder) (snap *core.NodeSnapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: malformed snapshot: %v", r)
		}
	}()
	if !dec.Bool() {
		return nil, nil
	}
	return core.DecodeSnapshot(dec)
}

func encodePrepared(enc *words.Encoder, snap *core.NodeSnapshot) []uint64 {
	enc.Reset()
	enc.PutUint(msgPrepared)
	putSnapshot(enc, snap)
	return enc.Words()
}

func encodeRestore(id int, snap *core.NodeSnapshot) []uint64 {
	enc := words.NewEncoder(nil)
	enc.PutUint(msgRestore)
	enc.PutInt(int64(id))
	snap.Encode(enc)
	return enc.Words()
}

// nonceWords is the join-authentication nonce size (32 bytes).
const nonceWords = 4

func encodeChallenge(nonce []uint64) []uint64 {
	enc := words.NewEncoder(nil)
	enc.PutUint(msgChallenge)
	enc.PutUint(uint64(len(nonce)))
	enc.PutWords(nonce)
	return enc.Words()
}

func encodeAuth(mac []uint64) []uint64 {
	enc := words.NewEncoder(nil)
	enc.PutUint(msgAuth)
	enc.PutUint(uint64(len(mac)))
	enc.PutWords(mac)
	return enc.Words()
}

// wordsToBytes / bytesToWords bridge the word codec and byte-oriented
// crypto (HMAC input and output), little-endian like the wire.
func wordsToBytes(ws []uint64) []byte {
	b := make([]byte, 8*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	return b
}

func bytesToWords(b []byte) []uint64 {
	ws := make([]uint64, (len(b)+7)/8)
	for i := range ws {
		var w uint64
		for j := 0; j < 8 && 8*i+j < len(b); j++ {
			w |= uint64(b[8*i+j]) << (8 * j)
		}
		ws[i] = w
	}
	return ws
}

// authMAC is the worker's answer to a join challenge:
// HMAC-SHA256(secret, nonce).
func authMAC(secret string, nonce []uint64) []uint64 {
	h := hmac.New(sha256.New, []byte(secret))
	h.Write(wordsToBytes(nonce))
	return bytesToWords(h.Sum(nil))
}

func encodeSetupOut(enc *words.Encoder, s disk.Stats, snap *core.NodeSnapshot) []uint64 {
	enc.Reset()
	enc.PutUint(msgSetupOut)
	core.EncodeDiskStats(enc, s)
	putSnapshot(enc, snap)
	return enc.Words()
}

func encodeBatches(enc *words.Encoder, bs []core.BlockBatch) {
	enc.PutInt(int64(len(bs)))
	for _, b := range bs {
		b.Encode(enc)
	}
}

// batchesSize is the number of words encodeBatches appends for bs.
func batchesSize(bs []core.BlockBatch) int {
	n := 1
	for _, b := range bs {
		n += b.Size()
	}
	return n
}

// decodeBatches decodes what encodeBatches wrote into bs's memory — the
// list and each batch's block list — which grows when it is too small.
func decodeBatches(dec *words.Decoder, bs []core.BlockBatch) []core.BlockBatch {
	n := dec.Int()
	if n < 0 || n > int64(dec.Remaining()) { // a batch takes a word at least
		panic(fmt.Sprintf("cluster: %d block batches in %d words", n, dec.Remaining()))
	}
	if int(n) > cap(bs) {
		bs = append(bs[:cap(bs)], make([]core.BlockBatch, int(n)-cap(bs))...)
	}
	bs = bs[:n]
	for i := range bs {
		bs[i].Decode(dec)
	}
	return bs
}

// encodeWriteReq is a WRITE request: round j of superstep step, with
// the blocks every worker delivered to this one, one batch per source.
func encodeWriteReq(enc *words.Encoder, j, step int, in []core.BlockBatch) []uint64 {
	reserve(enc, 1+words.SizeUints(2)+batchesSize(in))
	enc.PutUint(msgWrite)
	enc.PutInts([]int64{int64(j), int64(step)})
	encodeBatches(enc, in)
	return enc.Words()
}

func encodeComputeOut(enc *words.Encoder, bo *core.BatchOut) []uint64 {
	reserve(enc, 1+batchesSize(bo.Scatter)+words.SizeUints(len(bo.Pkts))+words.SizeUints(len(bo.Wrds))+core.SizeTraffic(len(bo.Traffic)))
	enc.PutUint(msgComputeOut)
	encodeBatches(enc, bo.Scatter)
	enc.PutInts(bo.Pkts)
	enc.PutInts(bo.Wrds)
	core.EncodeTraffic(enc, bo.Traffic)
	return enc.Words()
}

// decodeComputeOut decodes a COMPUTE_OUT reply into bo, whose memory it
// reuses; the batches alias dec's words.
func decodeComputeOut(dec *words.Decoder, bo *core.BatchOut) {
	bo.Scatter = decodeBatches(dec, bo.Scatter)
	bo.Pkts = dec.IntsInto(bo.Pkts)
	bo.Wrds = dec.IntsInto(bo.Wrds)
	bo.Traffic = core.DecodeTraffic(dec, bo.Traffic)
}

// encodeSumOut carries the worker's superstep totals at the vote point.
func encodeSumOut(enc *words.Encoder, s core.StepTotals) []uint64 {
	return encodeKindStep(enc, msgSumOut, int64(s.Sleepers), int64(s.Sends), s.Ops)
}

func decodeSumOut(dec *words.Decoder) core.StepTotals {
	var f [3]int64
	fields(dec, f[:])
	return core.StepTotals{Sleepers: int(f[0]), Sends: int(f[1]), Ops: f[2]}
}

// fields reads an array of exactly len(f) integers into f; any other
// count panics, as a truncated frame does.
func fields(dec *words.Decoder, f []int64) {
	if n := dec.Int(); n != int64(len(f)) {
		panic(fmt.Sprintf("%d fields, want %d", n, len(f)))
	}
	for i := range f {
		f[i] = dec.Int()
	}
}

func encodeFinalOut(enc *words.Encoder, r *core.NodeReport) []uint64 {
	reserve(enc, 1+r.Size())
	enc.PutUint(msgFinalOut)
	core.EncodeNodeReport(enc, r)
	return enc.Words()
}

// decodeUntrusted runs decode over a frame of the given kind from a peer
// that has not authenticated, through dec: a frame shorter than what
// decode reads, on which the word decoder panics, is an error, as is a
// frame of another kind.
func decodeUntrusted(dec *words.Decoder, msg []uint64, kind uint64, decode func(dec *words.Decoder)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: malformed %s frame: %v", msgName(kind), r)
		}
	}()
	if err = expect(dec, msg, kind); err == nil {
		decode(dec)
	}
	return err
}

// expect sets dec, the caller's, to read msg past its kind word and
// demands the given kind, surfacing a worker's ERR as a *WorkerError
// (fatal: a deterministic engine failure will not go away on replay). An
// empty frame, or an ERR whose text is cut, is an error like a frame of
// another kind.
func expect(dec *words.Decoder, msg []uint64, kind uint64) (err error) {
	if len(msg) == 0 {
		return fmt.Errorf("cluster: expected %s, got an empty frame", msgName(kind))
	}
	dec.Reset(msg, nil)
	got := dec.Uint()
	if got == msgErr {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("cluster: expected %s, got a malformed ERR frame: %v", msgName(kind), r)
			}
		}()
		return &WorkerError{Node: -1, Msg: getString(dec)}
	}
	if got != kind {
		return fmt.Errorf("cluster: expected %s, got %s", msgName(kind), msgName(got))
	}
	return nil
}
