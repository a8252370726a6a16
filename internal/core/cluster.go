package core

import (
	"errors"
	"fmt"
	"slices"

	"embsp/internal/bsp"
	"embsp/internal/disk"
	"embsp/internal/journal"
	"embsp/internal/mem"
	"embsp/internal/prng"
	"embsp/internal/redundancy"
	"embsp/internal/words"
)

// This file is the node and the cluster runtime's view of the engine: a
// NodeEngine is one real processor of the step machine (node.go) — with
// a journal of its own for one worker process, and without one as one
// of the in-process engine's P nodes (driver.go) — and a CoordCore is the
// superstep driver (driver.go) with a journal of its own, for the
// coordinator, whose Transport carries the phases over the wire. The
// in-process engine runs the same driver over the same nodes, which is
// what makes it the p-node reference oracle.
//
// Durability is per process: every node journals its own barrier
// state, and the coordinator's journal holds the 2PC decision record.
// A node's record r is PREPAREd (fsynced beside its committed record)
// before the coordinator appends its own record r; the coordinator's
// append IS the commit decision, after which nodes commit theirs.
// Recovery reconciles by count: a node holding c committed records and
// an optional prepared record commits it iff the coordinator's journal
// covers record c (presumed abort otherwise).

// ClusterCheck rejects option combinations the cluster runtime does
// not support. The in-process engine remains the only runtime for
// disk-fault injection and redundancy layers; cluster runs take link
// deaths instead (internal/fault.NetPlan, injected in the transport
// below the engine).
func ClusterCheck(cfg MachineConfig, opts Options) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := opts.Validate(cfg); err != nil {
		return err
	}
	if cfg.P < 2 {
		return fmt.Errorf("core: a cluster run needs P >= 2 real processors, have P = %d", cfg.P)
	}
	if opts.FaultPlan != nil && opts.FaultPlan.Enabled() {
		return fmt.Errorf("core: disk fault plans are not supported in cluster mode (use a network fault plan on the transport)")
	}
	if opts.Redundancy != redundancy.None {
		return fmt.Errorf("core: redundancy layers are not supported in cluster mode")
	}
	return nil
}

// nodeFingerprint stamps a node's manifests: the shared config
// fingerprint folded with the node's identity, so resuming a node
// under another node's state directory is caught.
func nodeFingerprint(cfg MachineConfig, opts Options, v, mu, gamma, nodeID int) uint64 {
	return prng.Derive(configFingerprint(manifestNodeKind, cfg, opts, v, mu, gamma), 0x4e444944, uint64(nodeID))
}

// BlockBatch is an opaque sequence of message blocks in flight between
// real processors. Encode/DecodeBlockBatch are its wire form. A batch
// returned by NodeEngine.Compute aliases that node's buffers and is
// valid until the node's next Compute: encode it, or hand it to Write,
// before then. A decoded batch aliases the words it was decoded from,
// so it is valid as long as they are: Write copies its images into the
// pending parallel write before it returns, so a caller may reuse those
// words once it has.
type BlockBatch struct {
	blocks []wireBlock
}

// blockMetaWords is a block's encoded metadata: a length prefix and
// dst, src, seq and chunk.
const blockMetaWords = 5

// Size returns the number of words Encode appends.
func (b BlockBatch) Size() int {
	n := 1
	for _, wb := range b.blocks {
		n += blockMetaWords + words.SizeUints(len(wb.img))
	}
	return n
}

// wireCount reads a count of records that take at least per words each
// and returns it, panicking, as a corrupt length does, when dec does not
// hold that many: a damaged count must not size an allocation.
func wireCount(dec *words.Decoder, per int, what string) int {
	n := dec.Int()
	if n < 0 || n > int64(dec.Remaining()/per) {
		panic(fmt.Sprintf("core: %d %s records in %d words", n, what, dec.Remaining()))
	}
	return int(n)
}

// Encode appends the batch's wire form.
func (b BlockBatch) Encode(enc *words.Encoder) {
	enc.PutInt(int64(len(b.blocks)))
	for _, wb := range b.blocks {
		enc.PutInt(blockMetaWords - 1)
		enc.PutInt(int64(wb.meta.dst))
		enc.PutInt(int64(wb.meta.src))
		enc.PutInt(int64(wb.meta.seq))
		enc.PutInt(int64(wb.meta.chunk))
		enc.PutUint(uint64(len(wb.img)))
		enc.PutWords(wb.img)
	}
}

// DecodeBlockBatch reads a batch encoded by Encode. Its images are
// capacity-limited views of dec's buffer, not copies (see BlockBatch).
func DecodeBlockBatch(dec *words.Decoder) BlockBatch {
	var b BlockBatch
	b.Decode(dec)
	return b
}

// Decode reads a batch encoded by Encode into b, whose block list it
// reuses, as DecodeBlockBatch does.
func (b *BlockBatch) Decode(dec *words.Decoder) {
	n := wireCount(dec, blockMetaWords+1, "block")
	b.blocks = slices.Grow(b.blocks[:0], n)[:n]
	blocks := b.blocks
	for i := range blocks {
		if dec.Int() != blockMetaWords-1 {
			panic("core: corrupt block metadata")
		}
		m := &blocks[i].meta
		m.dst, m.src, m.seq, m.chunk = int(dec.Int()), int(dec.Int()), int(dec.Int()), int(dec.Int())
		blocks[i].img = dec.UintsView()
	}
}

// EncodeTraffic / DecodeTraffic are the wire form of VP traffic
// records.
func EncodeTraffic(enc *words.Encoder, ts []bsp.VPTraffic) {
	enc.PutInt(int64(len(ts)))
	for _, t := range ts {
		enc.PutInt(trafficWords - 1)
		enc.PutInt(int64(t.SendWords))
		enc.PutInt(int64(t.RecvWords))
		enc.PutInt(int64(t.SendPkts))
		enc.PutInt(int64(t.RecvPkts))
		enc.PutInt(int64(t.Messages))
		enc.PutInt(t.Charge)
	}
}

// trafficWords is one encoded traffic record: a length prefix and six
// counts.
const trafficWords = 7

// SizeTraffic returns the number of words EncodeTraffic appends for n
// records.
func SizeTraffic(n int) int { return 1 + n*trafficWords }

// DecodeTraffic decodes into ts's memory, which grows when it is too
// small, and returns it.
func DecodeTraffic(dec *words.Decoder, ts []bsp.VPTraffic) []bsp.VPTraffic {
	n := wireCount(dec, trafficWords, "traffic")
	ts = slices.Grow(ts[:0], n)[:n]
	for i := range ts {
		if dec.Int() != trafficWords-1 {
			panic("core: corrupt traffic record")
		}
		t := &ts[i]
		t.SendWords, t.RecvWords, t.SendPkts = int(dec.Int()), int(dec.Int()), int(dec.Int())
		t.RecvPkts, t.Messages, t.Charge = int(dec.Int()), int(dec.Int()), dec.Int()
	}
	return ts
}

// NodeReport is a node's final accounting, handed to the driver after
// the run halts.
type NodeReport struct {
	Lo, Hi           int
	RunStats         disk.Stats
	FinishOps        int64
	FinishReadOps    int64
	FinishBlocksRead int64
	Ctx              [][]uint64 // final contexts of VPs Lo..Hi, in order — or
	vps              []bsp.VP   // the VPs themselves, when the report never leaves the process
	MaxSkew          float64
	MemHigh          int64
	PeakLive         int64
}

// Size returns the number of words EncodeNodeReport appends for r.
func (r *NodeReport) Size() int {
	n := words.SizeUints(2) + statsWords(r.RunStats) + words.SizeUints(3) + 1 + words.SizeUints(2) + 1
	for _, c := range r.Ctx {
		n += words.SizeUints(len(c))
	}
	return n
}

// EncodeNodeReport / DecodeNodeReport are the report's wire form.
func EncodeNodeReport(enc *words.Encoder, r *NodeReport) {
	enc.PutInts([]int64{int64(r.Lo), int64(r.Hi)})
	encodeStats(enc, r.RunStats)
	enc.PutInts([]int64{r.FinishOps, r.FinishReadOps, r.FinishBlocksRead})
	enc.PutInt(int64(len(r.Ctx)))
	for _, c := range r.Ctx {
		enc.PutUint(uint64(len(c)))
		enc.PutWords(c)
	}
	enc.PutInts([]int64{r.MemHigh, r.PeakLive})
	enc.PutFloat(r.MaxSkew)
}

func DecodeNodeReport(dec *words.Decoder) *NodeReport {
	r := &NodeReport{}
	lh := dec.Ints()
	r.Lo, r.Hi = int(lh[0]), int(lh[1])
	r.RunStats = decodeStats(dec)
	f := dec.Ints()
	r.FinishOps, r.FinishReadOps, r.FinishBlocksRead = f[0], f[1], f[2]
	r.Ctx = make([][]uint64, wireCount(dec, 1, "context"))
	for i := range r.Ctx {
		r.Ctx[i] = dec.Uints()
	}
	t := dec.Ints()
	r.MemHigh, r.PeakLive = t[0], t[1]
	r.MaxSkew = dec.Float()
	return r
}

// EncodeDiskStats / DecodeDiskStats expose the manifest's disk.Stats
// wire form for the cluster protocol.
func EncodeDiskStats(enc *words.Encoder, s disk.Stats) { encodeStats(enc, s) }

// DecodeDiskStats reads stats encoded by EncodeDiskStats.
func DecodeDiskStats(dec *words.Decoder) disk.Stats { return decodeStats(dec) }

// --- NodeEngine --------------------------------------------------------

// NodeEngine is one real processor of a run: the per-node superstep loop
// of Algorithm 3 over the node's own store chain, driven phase by phase
// — by the coordinator's messages in a cluster, where the node keeps a
// journal of its own, and by the in-process engine, whose nodes have
// none. The caller forwards the blocks Compute returns and supplies those
// Write receives; the node never touches the network itself.
type NodeEngine struct {
	sh  *simShape
	ps  *procState
	jrn *journal.Journal // nil in process
	dir string
	fpr uint64

	// rec is the node's record of its last barrier, when it writes one:
	// a cluster node's prepared record, reused; in process, under a fault
	// plan, the barrier a replay returns to — before the set-up, the
	// chain's state — and mark its memory in use there. In process rec is
	// empty once a barrier commit began, which no replay undoes.
	rec  words.Encoder
	mark int64

	stepsDone int
	halted    bool
	report    *NodeReport
}

// newNode opens processor i's node over sh, on drives under dir (in
// memory when dir is empty), with no journal.
func newNode(sh *simShape, i int, dir string, resume bool) (*NodeEngine, error) {
	ps, err := sh.newProcState(i, dir, resume)
	if err != nil {
		return nil, err
	}
	return &NodeEngine{sh: sh, ps: ps}, nil
}

// OpenNode opens node nodeID's engine rooted at dir. With resume
// false, the state directory is initialized fresh; with resume true,
// the existing drives and journal are opened (the journal retaining an
// intact prepared tail for the coordinator's reconciliation) and the
// caller must ResolvePending and LoadCommitted before running.
func OpenNode(p bsp.Program, cfg MachineConfig, opts Options, nodeID int, dir string, resume bool) (*NodeEngine, error) {
	sh, err := clusterNodeShape(p, cfg, opts, nodeID, dir)
	if err != nil {
		return nil, err
	}
	n, err := newNode(sh, nodeID, procDir(dir, nodeID), resume)
	if err != nil {
		return nil, err
	}
	n.dir, n.fpr = dir, nodeFingerprint(cfg, opts, sh.v, sh.mu, sh.gamma, nodeID)
	if resume {
		n.jrn, err = journal.OpenPrepared(dir)
	} else {
		n.jrn, err = journal.Create(dir)
	}
	if err != nil {
		n.ps.chain.Close()
		return nil, err
	}
	n.jrn.SetTracer(sh.tr, nodeID)
	return n, nil
}

// clusterNodeShape checks what every cluster node is opened with and
// returns the run's shape.
func clusterNodeShape(p bsp.Program, cfg MachineConfig, opts Options, nodeID int, dir string) (*simShape, error) {
	if err := ClusterCheck(cfg, opts); err != nil {
		return nil, err
	}
	if err := checkProgram(p); err != nil {
		return nil, err
	}
	if nodeID < 0 || nodeID >= cfg.P {
		return nil, fmt.Errorf("core: node id %d out of range for P = %d", nodeID, cfg.P)
	}
	if dir == "" {
		return nil, fmt.Errorf("core: a cluster node needs a state directory (its journal is the 2PC participant log)")
	}
	sh := newSimShape(p, cfg, opts)
	return &sh, nil
}

// Batches returns the rounds per compound superstep.
func (n *NodeEngine) Batches() int { return n.sh.batches }

// Fingerprint returns the node's manifest fingerprint, which the
// coordinator checks against its own derivation during the handshake.
func (n *NodeEngine) Fingerprint() uint64 { return n.fpr }

// Committed returns the number of committed journal records.
func (n *NodeEngine) Committed() int {
	_, c := n.jrn.Records()
	return c
}

// HasPending reports whether the journal holds a prepared,
// undecided record.
func (n *NodeEngine) HasPending() bool { return n.jrn.HasPending() }

// StepsDone returns the superstep count of the loaded barrier state.
func (n *NodeEngine) StepsDone() int { return n.stepsDone }

// Halted reports whether the loaded barrier state ends the run: every VP
// sleeps and the last superstep sent nothing.
func (n *NodeEngine) Halted() bool { return n.halted }

// ResolvePending applies the coordinator's 2PC decision to a prepared
// record: commit renames it over the committed one, abort removes it.
func (n *NodeEngine) ResolvePending(commit bool) error {
	if commit && n.jrn.HasPending() {
		return n.jrn.CommitPending()
	}
	return n.jrn.AbortPending()
}

// LoadCommitted is a cluster node's abort: it drops a prepared record
// still undecided (presumed abort) and adopts the last committed one in
// memory, through the path a replay takes (readProcRecord) but as a
// resume does, history and all, so the node is bitwise the one that
// never ran the aborted attempt. The store's AdoptState drains and
// empties whatever the attempt left queued or staged, and the memory it
// held goes with the accountant it held it in: a barrier holds only the
// records of its held batch, which the record carries.
func (n *NodeEngine) LoadCommitted() error {
	if err := n.jrn.AbortPending(); err != nil {
		return err
	}
	last, c := n.jrn.Records()
	if c == 0 {
		return &journal.Error{Path: n.dir, Record: -1,
			Reason: "no committed checkpoint to load (the node crashed before its first barrier; reset it fresh)"}
	}
	ps := n.ps
	ps.acct, ps.held = mem.NewAccountant(ps.acct.Limit()), -1
	ps.final, n.report = nil, nil
	_, adopt, err := n.readManifest(last)
	if err != nil {
		return err
	}
	return adopt()
}

// replay is an in-process node's abort: it adopts the record kept at the
// last barrier in replay mode and rewinds the accountant to its usage
// there. Before the set-up (step -1) that record is the chain's state,
// and no batch is held.
func (n *NodeEngine) replay(step int) error {
	ps := n.ps
	defer ps.acct.Rewind(n.mark)
	dec := words.NewDecoder(n.rec.Words())
	if step < 0 {
		ps.held = -1
		r := recordReader{dec: dec}
		st := r.storeState(ps.chain.Config().D)
		if r.err != nil {
			return r.err
		}
		return ps.decodeState(st, dec, true)
	}
	_, adopt, err := n.sh.readProcRecord(dec, ps, step, true)
	if err != nil {
		return err
	}
	return adopt()
}

// Setup writes the node's VPs' initial contexts and reaches the set-up
// barrier (setupBarrier).
func (n *NodeEngine) Setup() (disk.Stats, error) {
	if err := n.sh.writeInitialContexts(n.ps); err != nil {
		return disk.Stats{}, err
	}
	return n.setupBarrier()
}

// setupBarrier is the node's set-up barrier once its initial contexts
// are written: the parity they need, then the set-up's statistics —
// taken, and the running counters reset, at the boundary where the run's
// begin, so the set-up barrier's parity I/O is the set-up's and not in
// IOTime — then the record.
func (n *NodeEngine) setupBarrier() (stats disk.Stats, err error) {
	n.rec.Reset() // the barrier commit begins
	n.stepsDone, n.halted = 0, false
	if _, err := n.ps.parityBarrier(n.sh.tr, n.ps.id); err != nil {
		return stats, err
	}
	stats = n.ps.chain.Stats()
	n.ps.chain.ResetStats()
	return stats, n.record(-1)
}

// BeginStep resets the node's superstep-scoped scratch for the
// superstep after its last barrier.
func (n *NodeEngine) BeginStep() { n.sh.beginStep(n.ps, n.stepsDone) }

// Compute runs the fetching and computing phases of batch j: its input
// is read from the local disks, and the blocks for the node's own VPs go
// straight into its block writer. The BatchOut holds the blocks for other
// nodes' VPs, per destination, with their tallies and the traffic
// records; it is valid until the next Compute (see BlockBatch).
func (n *NodeEngine) Compute(j, step int) (*BatchOut, error) {
	return &n.ps.out, n.sh.computeBatch(n.ps, j, step)
}

// Write runs the writing phase: store the blocks the other nodes
// delivered to this one (one batch per source node; a zero-value
// BlockBatch is an empty slot).
func (n *NodeEngine) Write(j, step int, in []BlockBatch) error {
	return n.sh.receiveWrite(n.ps, j, step, in)
}

// StepTotals returns the node's sleeping VPs and the messages they sent
// this superstep, and the parallel I/O operations it consumed since
// BeginStep.
func (n *NodeEngine) StepTotals() StepTotals {
	return StepTotals{Sleepers: n.ps.sleepers(), Sends: n.ps.sends, Ops: n.ps.stepOps()}
}

// Prepare is the node's barrier commit for superstep step, run once
// every node finished it: free the consumed input and contexts and make
// the directory and the contexts written current (commitProc), flush the
// superstep's parity, make the data durable and write the record — a
// cluster node's prepared, not yet committed, one — then hint the next
// superstep's first reads to the store. It returns the barrier's parity
// operations, which the model charges.
func (n *NodeEngine) Prepare(step int, halted bool) (ops int64, err error) {
	n.rec.Reset() // the barrier commit begins
	if err := n.sh.commitProc(n.ps, halted); err != nil {
		return 0, err
	}
	n.stepsDone, n.halted = step+1, halted
	if ops, err = n.ps.parityBarrier(n.sh.tr, n.ps.id); err == nil {
		err = n.record(step)
	}
	if err != nil {
		return 0, err
	}
	if !halted {
		n.sh.prefetchFirst(n.ps, step+1)
	}
	return ops, nil
}

// record makes the node's data durable, then writes its record of the
// barrier after step supersteps, once, to whoever reads it: a cluster
// node to its journal, as the prepared record; an in-process node, under
// a fault plan, keeps it for a replay (keep). An in-process node's record
// is its section of the decision record too, which encodeProcs writes.
func (n *NodeEngine) record(step int) error {
	if err := n.sh.syncStore(n.ps, step); err != nil {
		return err
	}
	if n.jrn == nil {
		n.keep(false)
		return nil
	}
	n.rec.Reset()
	n.encodeManifest(&n.rec)
	if err := n.jrn.Prepare(n.rec.Words()); err != nil {
		return err
	}
	n.sh.tr.Flush() //nolint:errcheck
	return nil
}

// keep takes, under a fault plan, the barrier a replay returns to: the
// node's record and its memory in use — before the set-up (chains), the
// chain's state alone. The node's PRNG is drawn only by a superstep's
// block writer, so a set-up replay needs nothing more. The kept record
// is outside the memory the accountant charges.
func (n *NodeEngine) keep(chains bool) {
	if !n.faulty() {
		return
	}
	n.rec.Reset()
	if chains {
		n.ps.encodeState(&n.rec)
	} else {
		n.sh.encodeProcManifest(&n.rec, n.ps)
	}
	n.mark = n.ps.acct.Mark()
}

// faulty reports whether the node's chain has a fault layer.
func (n *NodeEngine) faulty() bool { return n.ps.down != nil }

// Commit applies the coordinator's COMMIT decision: the prepared record
// becomes the journal's committed one.
func (n *NodeEngine) Commit() error { return n.jrn.CommitPending() }

// Final reads the node's final VP contexts — loading the VPs in process,
// copying the contexts out for the wire in a cluster — and returns its
// complete accounting report. Once it has succeeded it is idempotent:
// repeated calls (the coordinator retries collection after losing a
// peer) return the first report rather than re-charging the reads.
func (n *NodeEngine) Final() (r *NodeReport, err error) {
	if n.report == nil {
		n.report, err = n.sh.finalReport(n.ps, n.stepsDone, n.jrn == nil)
	}
	return n.report, err
}

// Close releases the node's journal and store.
func (n *NodeEngine) Close() error {
	var errs []error
	if n.jrn != nil {
		errs = append(errs, n.jrn.Close())
	}
	if n.ps != nil {
		errs = append(errs, n.ps.chain.Close())
	}
	return errors.Join(errs...)
}

func (n *NodeEngine) encodeManifest(enc *words.Encoder) {
	enc.PutUint(manifestNodeKind)
	enc.PutUint(n.fpr)
	enc.PutInt(int64(n.stepsDone))
	enc.PutBool(n.halted)
	n.sh.encodeProcManifest(enc, n.ps)
}

// readManifest checks a node record's header and reads the barrier it
// records (readProcRecord); adopt makes that barrier the node's state.
func (n *NodeEngine) readManifest(payload []uint64) (alloc disk.StoreState, adopt func() error, err error) {
	dec := words.NewDecoder(payload)
	if err := checkManifestHeader(dec, manifestNodeKind, n.fpr); err != nil {
		return alloc, nil, err
	}
	step, halted := int(dec.Int()), dec.Bool()
	alloc, adoptProc, err := n.sh.readProcRecord(dec, n.ps, step, false)
	return alloc, func() error {
		n.stepsDone, n.halted = step, halted
		return adoptProc()
	}, err
}

// --- CoordCore ---------------------------------------------------------

// CoordCore is the coordinator's share of a cluster run: the superstep
// driver with its ledger of global accounting, whose journal holds the
// 2PC decision records. The cluster coordinator hands Run the Transport
// that reaches its workers.
type CoordCore struct{ driver }

// OpenCoord opens the coordinator core rooted at dir. With resume
// true, the existing decision journal is opened and its last record, if
// it has one, adopted.
func OpenCoord(p bsp.Program, cfg MachineConfig, opts Options, dir string, resume bool) (*CoordCore, error) {
	if err := ClusterCheck(cfg, opts); err != nil {
		return nil, err
	}
	if err := checkProgram(p); err != nil {
		return nil, err
	}
	if dir == "" {
		return nil, fmt.Errorf("core: the coordinator needs a state directory (its journal holds the 2PC decisions)")
	}
	sh := newSimShape(p, cfg, opts)
	c := &CoordCore{}
	c.ledger = newLedger(&sh, manifestCoordKind, configFingerprint(manifestCoordKind, cfg, opts, sh.v, sh.mu, sh.gamma), dir)
	err := c.openJournal(resume)
	if err == nil && c.Committed() > 0 {
		if _, err = c.load(); err != nil {
			c.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Run drives the run over t — from setup, or from the barrier the
// adopted decision record commits — to its Result, which is bitwise
// identical to the in-process engine's. Overlap stays zero: it is
// wall-clock observability, outside the bitwise-identity contract, and
// is not shipped over the wire.
func (c *CoordCore) Run(t Transport) (*Result, error) {
	c.t = t
	return c.run()
}

// NodeFpr derives the manifest fingerprint node id must present.
func (c *CoordCore) NodeFpr(id int) uint64 {
	return nodeFingerprint(c.sh.cfg, c.sh.opts, c.sh.v, c.sh.mu, c.sh.gamma, id)
}

// Close releases the decision journal.
func (c *CoordCore) Close() error { return c.close() }
