package core

import (
	"fmt"

	"embsp/internal/bsp"
	"embsp/internal/disk"
	"embsp/internal/journal"
	"embsp/internal/obs"
	"embsp/internal/prng"
	"embsp/internal/redundancy"
	"embsp/internal/words"
)

// This file is the cluster runtime's view of the engine: a NodeEngine
// wraps exactly one real processor (one worker process) and a
// CoordCore holds the coordinator's global accounting. Both reuse the
// simShape phase bodies and manifest encoders the in-process engine
// runs, so a cluster run is bitwise-identical to core.Run with
// the same (program, machine config, options) tuple — the in-process
// engine stays the p-node reference oracle.
//
// Durability is per process: every node journals its own barrier
// state, and the coordinator's journal holds the 2PC decision record.
// A node's record r is PREPAREd (fsynced, HEAD untouched) before the
// coordinator appends its own record r; the coordinator's append IS
// the commit decision, after which nodes advance HEAD. Recovery
// reconciles by count: a node holding c committed records and an
// optional prepared tail commits the tail iff the coordinator's
// journal covers record c (presumed abort otherwise).

// ClusterCheck rejects option combinations the cluster runtime does
// not support. The in-process engine remains the only runtime for
// disk-fault injection and redundancy layers; cluster runs take
// network faults instead (internal/fault.NetPlan, injected in the
// transport below the engine).
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
	if opts.effectiveRedundancy() != redundancy.None {
		return fmt.Errorf("core: redundancy layers are not supported in cluster mode")
	}
	if opts.NoRouting {
		return fmt.Errorf("core: NoRouting is a one-processor ablation; cluster mode requires routing")
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
// returned by NodeEngine.Fetch or Compute aliases that node's buffers
// and is valid until the node's next call of the same phase: encode it,
// or hand it to Compute or Write, before then. A decoded batch owns its
// images.
type BlockBatch struct {
	blocks []wireBlock
}

// Len returns the number of blocks in the batch.
func (b BlockBatch) Len() int { return len(b.blocks) }

// Encode appends the batch's wire form.
func (b BlockBatch) Encode(enc *words.Encoder) {
	enc.PutInt(int64(len(b.blocks)))
	for _, wb := range b.blocks {
		enc.PutInts([]int64{int64(wb.meta.dst), int64(wb.meta.src), int64(wb.meta.seq), int64(wb.meta.chunk)})
		enc.PutUints(wb.img)
	}
}

// DecodeBlockBatch reads a batch encoded by Encode.
func DecodeBlockBatch(dec *words.Decoder) BlockBatch {
	n := int(dec.Int())
	if n == 0 {
		return BlockBatch{}
	}
	blocks := make([]wireBlock, n)
	for i := range blocks {
		m := dec.Ints()
		blocks[i] = wireBlock{
			meta: blockMeta{dst: int(m[0]), src: int(m[1]), seq: int(m[2]), chunk: int(m[3])},
			img:  dec.Uints(),
		}
	}
	return BlockBatch{blocks: blocks}
}

// BatchOut is one processor's computing-phase output: scattered packet
// blocks per destination processor, the off-processor packet/word
// tallies for the communication model, and per-VP traffic records for
// the coordinator's cost recorder.
type BatchOut struct {
	Scatter []BlockBatch
	Pkts    []int64
	Wrds    []int64
	Traffic []bsp.VPTraffic
}

// EncodeTraffic / DecodeTraffic are the wire form of VP traffic
// records.
func EncodeTraffic(enc *words.Encoder, ts []bsp.VPTraffic) {
	enc.PutInt(int64(len(ts)))
	for _, t := range ts {
		enc.PutInts([]int64{int64(t.SendWords), int64(t.RecvWords), int64(t.SendPkts), int64(t.RecvPkts), int64(t.Messages), t.Charge})
	}
}

func DecodeTraffic(dec *words.Decoder) []bsp.VPTraffic {
	n := int(dec.Int())
	if n == 0 {
		return nil
	}
	ts := make([]bsp.VPTraffic, n)
	for i := range ts {
		f := dec.Ints()
		ts[i] = bsp.VPTraffic{
			SendWords: int(f[0]), RecvWords: int(f[1]),
			SendPkts: int(f[2]), RecvPkts: int(f[3]),
			Messages: int(f[4]), Charge: f[5],
		}
	}
	return ts
}

// NodeReport is a node's final accounting, shipped to the coordinator
// after the run halts.
type NodeReport struct {
	Lo, Hi           int
	RunStats         disk.Stats
	FinishOps        int64
	FinishReadOps    int64
	FinishBlocksRead int64
	Ctx              [][]uint64 // final contexts of VPs Lo..Hi, in order
	RouteOps         int64
	Ragged           int64
	MaxSkew          float64
	MemHigh          int64
	PeakLive         int64
}

// EncodeNodeReport / DecodeNodeReport are the report's wire form.
func EncodeNodeReport(enc *words.Encoder, r *NodeReport) {
	enc.PutInts([]int64{int64(r.Lo), int64(r.Hi)})
	encodeStats(enc, r.RunStats)
	enc.PutInts([]int64{r.FinishOps, r.FinishReadOps, r.FinishBlocksRead})
	enc.PutInt(int64(len(r.Ctx)))
	for _, c := range r.Ctx {
		enc.PutUints(c)
	}
	enc.PutInts([]int64{r.RouteOps, r.Ragged, r.MemHigh, r.PeakLive})
	enc.PutFloat(r.MaxSkew)
}

func DecodeNodeReport(dec *words.Decoder) *NodeReport {
	r := &NodeReport{}
	lh := dec.Ints()
	r.Lo, r.Hi = int(lh[0]), int(lh[1])
	r.RunStats = decodeStats(dec)
	f := dec.Ints()
	r.FinishOps, r.FinishReadOps, r.FinishBlocksRead = f[0], f[1], f[2]
	n := int(dec.Int())
	r.Ctx = make([][]uint64, n)
	for i := range r.Ctx {
		r.Ctx[i] = dec.Uints()
	}
	t := dec.Ints()
	r.RouteOps, r.Ragged, r.MemHigh, r.PeakLive = t[0], t[1], t[2], t[3]
	r.MaxSkew = dec.Float()
	return r
}

// EncodeDiskStats / DecodeDiskStats expose the manifest's disk.Stats
// wire form for the cluster protocol.
func EncodeDiskStats(enc *words.Encoder, s disk.Stats) { encodeStats(enc, s) }

// DecodeDiskStats reads stats encoded by EncodeDiskStats.
func DecodeDiskStats(dec *words.Decoder) disk.Stats { return decodeStats(dec) }

// --- NodeEngine --------------------------------------------------------

// NodeEngine is one real processor of a cluster run: the per-node
// superstep loop of Algorithm 3 over the node's own state directory,
// driven phase by phase by the coordinator's messages. The caller (the
// cluster worker) supplies the inboxes and forwards the outboxes; the
// engine never touches the network itself.
type NodeEngine struct {
	sh  simShape
	ps  *procState
	jrn *journal.Journal
	dir string
	fpr uint64

	stepsDone int
	halted    bool
	report    *NodeReport

	// Replication bookkeeping (snapshot.go): dirty accumulates the
	// store's changed-track set across Reloads; exportBase is the
	// barrier version that accumulation is known to cover changes
	// since, or -1 when coverage is unknown (forces a full export).
	dirty      map[disk.Addr]struct{}
	exportBase int
}

// OpenNode opens node nodeID's engine rooted at dir. With resume
// false, the state directory is initialized fresh; with resume true,
// the existing drives and journal are opened (the journal retaining an
// intact prepared tail for the coordinator's reconciliation) and the
// caller must ResolvePending and LoadCommitted before running.
func OpenNode(p bsp.Program, cfg MachineConfig, opts Options, nodeID int, dir string, resume bool) (*NodeEngine, error) {
	opts.defaults()
	if err := ClusterCheck(cfg, opts); err != nil {
		return nil, err
	}
	if err := bsp.CheckProgram(p); err != nil {
		return nil, err
	}
	if nodeID < 0 || nodeID >= cfg.P {
		return nil, fmt.Errorf("core: node id %d out of range for P = %d", nodeID, cfg.P)
	}
	if dir == "" {
		return nil, fmt.Errorf("core: a cluster node needs a state directory (its journal is the 2PC participant log)")
	}
	n := &NodeEngine{
		sh:  newSimShape(p, cfg, opts),
		dir: dir,
	}
	n.fpr = nodeFingerprint(cfg, opts, n.sh.v, n.sh.mu, n.sh.gamma, nodeID)
	ps, err := n.sh.newProcState(nodeID, procDir(dir, nodeID), resume)
	if err != nil {
		return nil, err
	}
	ps.ckptOn = true
	n.ps = ps
	if resume {
		n.jrn, err = journal.OpenPrepared(dir)
	} else {
		n.jrn, err = journal.Create(dir)
	}
	if err != nil {
		ps.store.Close()
		return nil, err
	}
	n.jrn.SetTracer(n.sh.tr, nodeID)
	// A fresh or resumed store's content is exactly its committed
	// barrier, and every write from here on lands in the dirty set —
	// so deltas may be exported against the opening version.
	n.dirty = make(map[disk.Addr]struct{})
	n.exportBase = n.Committed()
	return n, nil
}

// NodeID returns the node's processor index.
func (n *NodeEngine) NodeID() int { return n.ps.id }

// Batches returns the rounds per compound superstep.
func (n *NodeEngine) Batches() int { return n.sh.batches }

// Fingerprint returns the node's manifest fingerprint, which the
// coordinator checks against its own derivation during the handshake.
func (n *NodeEngine) Fingerprint() uint64 { return n.fpr }

// Committed returns the number of committed journal records.
func (n *NodeEngine) Committed() int { return len(n.jrn.Records()) }

// HasPending reports whether the journal holds a prepared,
// undecided record.
func (n *NodeEngine) HasPending() bool { return n.jrn.HasPending() }

// StepsDone returns the superstep count of the loaded barrier state.
func (n *NodeEngine) StepsDone() int { return n.stepsDone }

// Halted reports whether the loaded barrier state has all VPs halted.
func (n *NodeEngine) Halted() bool { return n.halted }

// ResolvePending applies the coordinator's 2PC decision to a prepared
// tail: commit advances HEAD over it, abort truncates it.
func (n *NodeEngine) ResolvePending(commit bool) error {
	if !n.jrn.HasPending() {
		return nil
	}
	if commit {
		// The pending record's writes happened before this process
		// opened the store, so the dirty set does not cover the barrier
		// being committed: delta coverage is unknown until the next
		// full export.
		n.exportBase = -1
		return n.jrn.CommitPending()
	}
	return n.jrn.AbortPending()
}

// LoadCommitted restores the node's processor state from the last
// committed journal record.
func (n *NodeEngine) LoadCommitted() error {
	recs := n.jrn.Records()
	if len(recs) == 0 {
		return &journal.Error{Path: n.dir, Record: -1,
			Reason: "no committed checkpoint to load (the node crashed before its first barrier; reset it fresh)"}
	}
	return n.decodeManifest(recs[len(recs)-1])
}

// Setup reserves the node's context areas and writes its VPs' initial
// contexts.
func (n *NodeEngine) Setup() error {
	n.sh.setupReserve(n.ps)
	sp := n.sh.tr.Begin(obs.CatEngine, phSetup, n.ps.id, 0)
	defer sp.End()
	return n.sh.writeInitialContexts(n.ps)
}

// PrepareSetup collects the setup-phase statistics (resetting the
// running counters, exactly at the boundary the in-process engine
// resets them), then prepares the setup barrier record.
func (n *NodeEngine) PrepareSetup() (disk.Stats, error) {
	stats := n.ps.dsk.Stats()
	n.ps.dsk.ResetStats()
	n.stepsDone = 0
	n.halted = false
	return stats, n.prepare(-1)
}

// BeginStep resets the node's superstep-scoped scratch.
func (n *NodeEngine) BeginStep() { n.sh.beginStep(n.ps) }

// Fetch runs the fetching phase of batch j: read the batch's blocks
// from the local disks and group them by destination processor. A nil
// out means the batch had no input. nwords[o] counts words addressed
// to processor o; the coordinator charges the off-diagonal entries.
// out and nwords are valid until the next Fetch (see BlockBatch).
func (n *NodeEngine) Fetch(j, step int) (out []BlockBatch, nwords []int64, err error) {
	sp := n.sh.tr.BeginStep(obs.CatEngine, phFetchMsg, n.ps.id, 0, step, j)
	defer sp.End()
	raw, nwords, err := n.sh.fetchForward(n.ps, j)
	if err != nil || raw == nil {
		return nil, nil, err
	}
	out = make([]BlockBatch, len(raw))
	for o := range raw {
		out[o] = BlockBatch{blocks: raw[o]}
	}
	return out, nwords, nil
}

// Compute runs the computing phase of batch j over the inbox (one
// batch per source processor, self included; a zero-value BlockBatch
// is an empty slot). The BatchOut's batches, tallies and traffic records
// are valid until the next Compute (see BlockBatch).
func (n *NodeEngine) Compute(j, step int, in []BlockBatch) (*BatchOut, error) {
	raw := make([][]wireBlock, n.sh.cfg.P)
	for src := range raw {
		if src < len(in) {
			raw[src] = in[src].blocks
		}
	}
	bo, err := n.sh.computeBatch(n.ps, j, step, raw)
	if err != nil {
		return nil, err
	}
	out := &BatchOut{
		Scatter: make([]BlockBatch, len(bo.scatter)),
		Pkts:    bo.pkts,
		Wrds:    bo.wrds,
		Traffic: bo.traffic,
	}
	for t := range bo.scatter {
		out.Scatter[t] = BlockBatch{blocks: bo.scatter[t]}
	}
	return out, nil
}

// Write runs the writing phase: store the scattered packets this node
// received (one batch per source processor, self included).
func (n *NodeEngine) Write(j, step int, in []BlockBatch) error {
	sp := n.sh.tr.BeginStep(obs.CatEngine, phWriteMsg, n.ps.id, 0, step, j)
	defer sp.End()
	raw := make([][]wireBlock, n.sh.cfg.P)
	for src := range raw {
		if src < len(in) {
			raw[src] = in[src].blocks
		}
	}
	return n.sh.receiveWrite(n.ps, j, raw)
}

// StepTotals returns the superstep's halt votes and messages sent by
// this node's VPs.
func (n *NodeEngine) StepTotals() (halts, sends int) { return n.ps.halts, n.ps.sends }

// Route runs Step 2 of Algorithm 3 on the node's received blocks; the
// result is parked until Prepare installs it.
func (n *NodeEngine) Route(step int) error {
	sp := n.sh.tr.BeginStep(obs.CatEngine, phRoute, n.ps.id, 0, step, -1)
	defer sp.End()
	return n.sh.routeLocal(n.ps)
}

// StepOps returns the parallel I/O operations this node consumed since
// BeginStep; the coordinator charges the slowest node's share.
func (n *NodeEngine) StepOps() int64 { return n.ps.dsk.Stats().Ops - n.ps.opsMark }

// Prepare is the node's PREPARE phase for superstep step: install the
// parked routing result and flip the context buffers (the local
// barrier commit), fsync the node's data, and journal the prepared —
// not yet committed — barrier record.
func (n *NodeEngine) Prepare(step int, halted bool) error {
	if err := n.sh.commitProc(n.ps); err != nil {
		return err
	}
	n.stepsDone = step + 1
	n.halted = halted
	return n.prepare(step)
}

func (n *NodeEngine) prepare(step int) error {
	sp := n.sh.tr.BeginStep(obs.CatEngine, phBarrier, n.ps.id, 0, step, -1)
	err := n.ps.store.Sync()
	sp.End()
	if err != nil {
		return err
	}
	enc := words.NewEncoder(nil)
	n.encodeManifest(enc)
	if err := n.jrn.Prepare(enc.Words()); err != nil {
		return err
	}
	n.sh.tr.Flush() //nolint:errcheck
	return nil
}

// Commit applies the coordinator's COMMIT decision: advance the
// journal HEAD over the prepared record.
func (n *NodeEngine) Commit() error { return n.jrn.CommitPending() }

// Reload is the node's ABORT path: discard every in-memory and
// uncommitted on-disk effect of the current superstep attempt by
// closing and reopening the store and journal, rolling back a prepared
// tail, and restoring the last committed barrier state. After Reload
// the node is bitwise-identical to one that never ran the attempt.
func (n *NodeEngine) Reload() error {
	// The aborted attempt's writes are logically dead, but its dirty
	// marks must outlive the store instance: the replay's writes are a
	// subset-rewrite of them, and earlier uncommitted-to-replica
	// barriers may still be in the accumulator.
	n.mergeDirty()
	var errs []error
	if err := n.jrn.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := n.ps.store.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := joinErrs(errs); err != nil {
		return err
	}
	ps, err := n.sh.newProcState(n.ps.id, procDir(n.dir, n.ps.id), true)
	if err != nil {
		return err
	}
	ps.ckptOn = true
	n.ps = ps
	jrn, err := journal.OpenPrepared(n.dir)
	if err != nil {
		return err
	}
	jrn.SetTracer(n.sh.tr, n.ps.id)
	n.jrn = jrn
	if err := n.jrn.AbortPending(); err != nil {
		return err
	}
	return n.LoadCommitted()
}

// Final reads the node's final VP contexts and returns its complete
// accounting report. It is idempotent: repeated calls (the
// coordinator retries collection after losing a peer) return the
// first report rather than re-charging the finish-phase reads.
func (n *NodeEngine) Final() (*NodeReport, error) {
	if n.report != nil {
		return n.report, nil
	}
	r := &NodeReport{
		Lo: n.ps.lo, Hi: n.ps.hi,
		RunStats: n.ps.dsk.Stats(),
		RouteOps: n.ps.routeOps,
		Ragged:   n.ps.ragged,
		MaxSkew:  n.ps.maxSkew,
		MemHigh:  n.ps.acct.High(),
		PeakLive: n.ps.peakLive,
	}
	sp := n.sh.tr.Begin(obs.CatEngine, phFinish, n.ps.id, 0)
	err := n.sh.readFinalContexts(n.ps, func(id int, ctx []uint64) error {
		cp := make([]uint64, len(ctx))
		copy(cp, ctx)
		r.Ctx = append(r.Ctx, cp)
		return nil
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	s := n.ps.dsk.Stats()
	r.FinishOps = s.Ops - r.RunStats.Ops
	r.FinishReadOps = s.ReadOps - r.RunStats.ReadOps
	r.FinishBlocksRead = s.BlocksRead - r.RunStats.BlocksRead
	n.report = r
	return r, nil
}

// Close releases the node's journal and store.
func (n *NodeEngine) Close() error {
	var errs []error
	if n.jrn != nil {
		errs = append(errs, n.jrn.Close())
	}
	if n.ps != nil && n.ps.store != nil {
		errs = append(errs, n.ps.store.Close())
	}
	return joinErrs(errs)
}

func (n *NodeEngine) encodeManifest(enc *words.Encoder) {
	enc.PutUint(manifestNodeKind)
	enc.PutUint(n.fpr)
	enc.PutInt(int64(n.stepsDone))
	enc.PutBool(n.halted)
	encodeProcManifest(enc, n.ps)
}

func (n *NodeEngine) decodeManifest(payload []uint64) error {
	dec := words.NewDecoder(payload)
	if err := checkManifestHeader(dec, manifestNodeKind, n.fpr); err != nil {
		return err
	}
	n.stepsDone = int(dec.Int())
	n.halted = dec.Bool()
	return decodeProcManifest(dec, n.ps)
}

// --- CoordCore ---------------------------------------------------------

// CoordCore is the coordinator's share of a cluster run: the global
// cost accounting the in-process driver keeps on its engine, the halt
// logic, the 2PC decision journal, and the final Result assembly. The
// cluster coordinator feeds it the per-node phase outputs in node
// order, which reproduces the in-process arithmetic exactly.
type CoordCore struct {
	sh  simShape
	jrn *journal.Journal
	dir string
	fpr uint64

	setup     disk.Stats
	stepsDone int
	halted    bool

	pktX  [][]int64
	wordX [][]int64

	commTime  float64
	commPkts  int64
	commWords int64
	ioTime    float64

	// Abort rollback marks, taken at BeginStep.
	recMark   int
	mkComm    float64
	mkPkts    int64
	mkWords   int64
	mkIO      float64
	stepState bool // a step is open (BeginStep without FinishStep/AbortStep)
}

// OpenCoord opens the coordinator core rooted at dir. With resume
// true, the existing decision journal is opened; the caller inspects
// Committed and calls LoadCommitted when it is nonzero.
func OpenCoord(p bsp.Program, cfg MachineConfig, opts Options, dir string, resume bool) (*CoordCore, error) {
	opts.defaults()
	if err := ClusterCheck(cfg, opts); err != nil {
		return nil, err
	}
	if err := bsp.CheckProgram(p); err != nil {
		return nil, err
	}
	if dir == "" {
		return nil, fmt.Errorf("core: the coordinator needs a state directory (its journal holds the 2PC decisions)")
	}
	c := &CoordCore{
		sh:  newSimShape(p, cfg, opts),
		dir: dir,
	}
	c.fpr = configFingerprint(manifestCoordKind, cfg, opts, c.sh.v, c.sh.mu, c.sh.gamma)
	var err error
	if resume {
		c.jrn, err = journal.Open(dir)
	} else {
		c.jrn, err = journal.Create(dir)
	}
	if err != nil {
		return nil, err
	}
	c.jrn.SetTracer(c.sh.tr, cfg.P)
	return c, nil
}

// P returns the machine's real processor count.
func (c *CoordCore) P() int { return c.sh.cfg.P }

// V returns the program's virtual processor count.
func (c *CoordCore) V() int { return c.sh.v }

// Batches returns the rounds per compound superstep.
func (c *CoordCore) Batches() int { return c.sh.batches }

// MaxSupersteps returns the run's superstep bound.
func (c *CoordCore) MaxSupersteps() int { return c.sh.opts.MaxSupersteps }

// StepsDone returns the committed superstep count.
func (c *CoordCore) StepsDone() int { return c.stepsDone }

// Halted reports whether the committed state has all VPs halted.
func (c *CoordCore) Halted() bool { return c.halted }

// Committed returns the number of committed decision records.
func (c *CoordCore) Committed() int { return len(c.jrn.Records()) }

// NodeFpr derives the manifest fingerprint node id must present.
func (c *CoordCore) NodeFpr(id int) uint64 {
	return nodeFingerprint(c.sh.cfg, c.sh.opts, c.sh.v, c.sh.mu, c.sh.gamma, id)
}

// LoadCommitted restores the coordinator state from the last committed
// decision record.
func (c *CoordCore) LoadCommitted() error {
	recs := c.jrn.Records()
	if len(recs) == 0 {
		return &journal.Error{Path: c.dir, Record: -1,
			Reason: "no committed checkpoint to resume from (the run crashed before its first barrier; start it fresh)"}
	}
	dec := words.NewDecoder(recs[len(recs)-1])
	if err := checkManifestHeader(dec, manifestCoordKind, c.fpr); err != nil {
		return err
	}
	c.stepsDone = int(dec.Int())
	c.halted = dec.Bool()
	c.setup = decodeStats(dec)
	c.ioTime = dec.Float()
	c.commTime = dec.Float()
	t := dec.Ints()
	c.commPkts, c.commWords = t[0], t[1]
	c.sh.rec.Restore(decodeRecSteps(dec))
	return nil
}

func (c *CoordCore) encodeManifest(enc *words.Encoder) {
	enc.PutUint(manifestCoordKind)
	enc.PutUint(c.fpr)
	enc.PutInt(int64(c.stepsDone))
	enc.PutBool(c.halted)
	encodeStats(enc, c.setup)
	enc.PutFloat(c.ioTime)
	enc.PutFloat(c.commTime)
	enc.PutInts([]int64{c.commPkts, c.commWords})
	encodeRecSteps(enc, c.sh.rec.Steps())
}

func (c *CoordCore) appendDecision(step int) error {
	enc := words.NewEncoder(nil)
	c.encodeManifest(enc)
	if err := c.jrn.Append(enc.Words()); err != nil {
		return err
	}
	c.sh.tr.Flush() //nolint:errcheck
	if c.sh.opts.OnCommit != nil {
		c.sh.opts.OnCommit(step)
	}
	return nil
}

// CommitSetup folds the nodes' setup statistics (in node order) and
// appends the setup decision record.
func (c *CoordCore) CommitSetup(nodeStats []disk.Stats) error {
	for _, s := range nodeStats {
		c.setup.Add(s)
	}
	c.stepsDone = 0
	c.halted = false
	return c.appendDecision(-1)
}

// BeginStep opens superstep accounting: fresh exchange matrices and a
// rollback mark for AbortStep.
func (c *CoordCore) BeginStep() {
	P := c.sh.cfg.P
	c.recMark = c.sh.rec.Mark()
	c.mkComm, c.mkPkts, c.mkWords, c.mkIO = c.commTime, c.commPkts, c.commWords, c.ioTime
	c.sh.rec.BeginStep()
	c.pktX = make([][]int64, P)
	c.wordX = make([][]int64, P)
	for i := 0; i < P; i++ {
		c.pktX[i] = make([]int64, P)
		c.wordX[i] = make([]int64, P)
	}
	c.stepState = true
}

// AddFetch folds node src's fetching-phase word counts into the
// exchange matrices — the identical arithmetic the in-process driver
// applies to fetchForward's output.
func (c *CoordCore) AddFetch(src int, nwords []int64) {
	for o, w := range nwords {
		if o == src || w == 0 {
			continue
		}
		c.wordX[src][o] += w
		c.pktX[src][o] += c.sh.fetchPkts(w)
	}
}

// AddBatch folds node src's computing-phase packet/word tallies into
// the exchange matrices.
func (c *CoordCore) AddBatch(src int, bo *BatchOut) {
	for t := range bo.Pkts {
		c.pktX[src][t] += bo.Pkts[t]
		c.wordX[src][t] += bo.Wrds[t]
	}
}

// RecordTraffic folds VP traffic records into the cost recorder. The
// coordinator calls it per node in node order; the recorder's folds
// are commutative, so this reproduces the in-process totals.
func (c *CoordCore) RecordTraffic(ts []bsp.VPTraffic) {
	for _, t := range ts {
		c.sh.rec.RecordVP(t)
	}
}

// Vote applies the halt logic to the nodes' summed votes. The
// coordinator calls it before deciding whether to run the routing
// phase: a halting superstep skips reorganization.
func (c *CoordCore) Vote(step, halts, sends int) (halted bool, err error) {
	switch {
	case halts == c.sh.v:
		if sends > 0 {
			return false, fmt.Errorf("core: %d messages sent while halting in superstep %d", sends, step)
		}
		return true, nil
	case halts != 0:
		return false, fmt.Errorf("core: split halt vote in superstep %d: %d of %d VPs halted", step, halts, c.sh.v)
	}
	return false, nil
}

// FinishStep closes the superstep's cost accounting: the I/O time
// charge (maxOps is the slowest node's operations) and the
// communication charges from the exchange matrices.
func (c *CoordCore) FinishStep(maxOps int64) {
	c.sh.rec.EndStep()
	c.stepState = false
	c.ioTime += c.sh.cfg.G * float64(maxOps)
	ct, pkts, wrds := superstepCommCosts(c.sh.cfg, c.pktX, c.wordX)
	c.commTime += ct
	c.commPkts += pkts
	c.commWords += wrds
}

// AbortStep rewinds the coordinator's accounting to the BeginStep
// mark, leaving no trace of the aborted attempt — the cluster's
// replays stay invisible in Results and EMStats, like a clean run.
func (c *CoordCore) AbortStep() {
	c.sh.rec.Rewind(c.recMark)
	c.commTime, c.commPkts, c.commWords, c.ioTime = c.mkComm, c.mkPkts, c.mkWords, c.mkIO
	c.stepState = false
}

// CommitStep appends the superstep's decision record — the 2PC commit
// point. Every node must have PREPAREd before this is called.
func (c *CoordCore) CommitStep(step int, halted bool) error {
	c.stepsDone = step + 1
	c.halted = halted
	return c.appendDecision(step)
}

// Assemble builds the run Result from the nodes' final reports (in
// node order), reproducing the in-process engine's aggregation
// exactly. Overlap stays zero: it is wall-clock observability, outside
// the bitwise-identity contract, and is not shipped over the wire.
func (c *CoordCore) Assemble(reports []*NodeReport) (*Result, error) {
	if len(reports) != c.sh.cfg.P {
		return nil, fmt.Errorf("core: %d node reports for P = %d", len(reports), c.sh.cfg.P)
	}
	vps := make([]bsp.VP, c.sh.v)
	var runStats disk.Stats
	perProc := make([]disk.Stats, len(reports))
	var finish disk.Stats
	for i, r := range reports {
		perProc[i] = r.RunStats
		runStats.Add(r.RunStats)
		finish.Ops += r.FinishOps
		finish.ReadOps += r.FinishReadOps
		finish.BlocksRead += r.FinishBlocksRead
	}
	for _, r := range reports {
		if len(r.Ctx) != r.Hi-r.Lo {
			return nil, fmt.Errorf("core: node report covers %d contexts for VPs [%d, %d)", len(r.Ctx), r.Lo, r.Hi)
		}
		for idx, ctx := range r.Ctx {
			id := r.Lo + idx
			vp := c.sh.p.NewVP(id)
			vp.Load(words.NewDecoder(ctx))
			vps[id] = vp
		}
	}
	for _, vp := range vps {
		if vp == nil {
			return nil, fmt.Errorf("core: node reports leave VPs uncovered")
		}
	}
	res := &Result{VPs: vps, Costs: c.sh.rec.Costs()}
	em := EMStats{
		K:              c.sh.k,
		Groups:         c.sh.batches,
		CtxBlocksPerVP: c.sh.muBlocks,
		Setup:          c.setup,
		Run:            runStats,
		Finish:         finish,
		PerProc:        perProc,
		IOTime:         c.ioTime,
		CommTime:       c.commTime,
		CommPkts:       c.commPkts,
		CommWords:      c.commWords,
	}
	for _, r := range reports {
		em.RouteOps += r.RouteOps
		em.RaggedSlots += r.Ragged
		if r.MaxSkew > em.MaxBucketSkew {
			em.MaxBucketSkew = r.MaxSkew
		}
		if r.MemHigh > em.MemHigh {
			em.MemHigh = r.MemHigh
		}
		if r.PeakLive > em.LiveBlocksPerDrive {
			em.LiveBlocksPerDrive = r.PeakLive
		}
	}
	res.EM = em
	publishEMStats(c.sh.opts.Metrics, &res.EM)
	return res, nil
}

// Close releases the decision journal.
func (c *CoordCore) Close() error {
	if c.jrn != nil {
		return c.jrn.Close()
	}
	return nil
}

func joinErrs(errs []error) error {
	var first error
	for _, err := range errs {
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}
