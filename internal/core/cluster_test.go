package core_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/core"
	"embsp/internal/disk"
	"embsp/internal/words"
)

// These tests run CoordCore's driver over a Transport made of
// NodeEngines in one process — what the networked coordinator does,
// minus the wire — and hold the results bitwise identical to core.Run.
// The cluster package's own tests add real processes, TCP, faults, and
// SIGKILL on top; this layer pins the engine-side contract first.

// clusterRig is that Transport. fail, when set, is asked at the named
// points of every barrier ("computed": a round's computing phase run on
// every node, its writing phase not; "batches": rounds done; "voted": the
// vote taken and the superstep's costs closed; "prepared": every node
// PREPAREd, no decision; "decided": the decision landed, no node told)
// whether to fail there, and how.
type clusterRig struct {
	coord *core.CoordCore
	nodes []*core.NodeEngine
	fail  func(point string, step int) error
	// wire sends every BlockBatch through its wire form between phases;
	// sent holds the encoded words the open phase's batches alias.
	wire bool
	sent [][]uint64
	// prepares and commits count the nodes' 2PC calls.
	prepares, commits int
}

// errAbort is the failure a live cluster recovers from: every node
// reloads its last barrier and the driver replays the step.
var errAbort = errors.New("injected abort")

func openRig(t testing.TB, prog bsp.Program, cfg core.MachineConfig, opts core.Options, root string, resume bool) *clusterRig {
	t.Helper()
	coord, err := core.OpenCoord(prog, cfg, opts, filepath.Join(root, "coord"), resume)
	if err != nil {
		t.Fatal(err)
	}
	rig := &clusterRig{coord: coord, nodes: make([]*core.NodeEngine, cfg.P)}
	t.Cleanup(rig.close)
	for i := range rig.nodes {
		n, err := core.OpenNode(prog, cfg, opts, i, filepath.Join(root, fmt.Sprintf("node-%d", i)), resume)
		if err != nil {
			t.Fatal(err)
		}
		rig.nodes[i] = n
		if !resume {
			continue
		}
		// The restart path after a SIGKILL: a node with a prepared tail
		// commits it exactly when the coordinator's decision journal
		// covers it (presumed abort otherwise).
		if n.HasPending() {
			if err := n.ResolvePending(coord.Committed() > n.Committed()); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.LoadCommitted(); err != nil {
			t.Fatal(err)
		}
		if got, want := n.Fingerprint(), coord.NodeFpr(i); got != want {
			t.Fatalf("node %d fingerprint %x, coordinator derives %x", i, got, want)
		}
	}
	return rig
}

func (r *clusterRig) close() {
	for i, n := range r.nodes {
		if n != nil {
			n.Close()
			r.nodes[i] = nil
		}
	}
	if r.coord != nil {
		r.coord.Close()
		r.coord = nil
	}
}

func (r *clusterRig) failAt(point string, step int) error {
	if r.fail == nil {
		return nil
	}
	return r.fail(point, step)
}

// column is what every node delivered to dst, through the wire form
// when the rig is asked to. A decoded batch aliases the words it was
// decoded from, as a worker's batches alias the message they came in.
func (r *clusterRig) column(dst int, outs []*core.BatchOut) []core.BlockBatch {
	in := make([]core.BlockBatch, len(outs))
	for src, bo := range outs {
		in[src] = bo.Scatter[dst]
		if r.wire {
			enc := words.NewEncoder(nil)
			in[src].Encode(enc)
			r.sent = append(r.sent, enc.Words())
			in[src] = core.DecodeBlockBatch(words.NewDecoder(enc.Words()))
		}
	}
	return in
}

// poisonWire stamps the canary over every word the rig has sent since it
// last did, once the node that received them has returned: Write must
// have copied the images out by then, so a node that kept a
// batch past its phase reads the canary and its run leaves the oracle's.
func (r *clusterRig) poisonWire() {
	for _, ws := range r.sent {
		for i := range ws {
			ws[i] = core.CanaryWord
		}
	}
	r.sent = r.sent[:0]
}

func (r *clusterRig) Setup() (stats []disk.Stats, err error) {
	stats = make([]disk.Stats, len(r.nodes))
	for i, n := range r.nodes {
		if stats[i], err = n.Setup(); err != nil {
			return nil, err
		}
	}
	r.prepares += len(r.nodes)
	return stats, r.failAt("prepared", -1)
}

func (r *clusterRig) Begin(int) error {
	for _, n := range r.nodes {
		n.BeginStep()
	}
	return nil
}

func (r *clusterRig) Compute(j, step int) (outs []*core.BatchOut, err error) {
	outs = make([]*core.BatchOut, len(r.nodes))
	for i, n := range r.nodes {
		if outs[i], err = n.Compute(j, step); err != nil {
			return nil, err
		}
	}
	return outs, r.failAt("computed", step)
}

func (r *clusterRig) Write(j, step int, outs []*core.BatchOut) error {
	for i, n := range r.nodes {
		if err := n.Write(j, step, r.column(i, outs)); err != nil {
			return err
		}
		r.poisonWire()
	}
	return nil
}

func (r *clusterRig) Totals() ([]core.StepTotals, error) {
	totals := make([]core.StepTotals, len(r.nodes))
	for i, n := range r.nodes {
		totals[i] = n.StepTotals()
	}
	return totals, r.failAt("batches", r.coord.StepsDone())
}

func (r *clusterRig) Prepare(step int, halted bool) ([]int64, error) {
	if err := r.failAt("voted", step); err != nil {
		return nil, err
	}
	for _, n := range r.nodes {
		if _, err := n.Prepare(step, halted); err != nil {
			return nil, err
		}
	}
	r.prepares += len(r.nodes)
	return nil, r.failAt("prepared", step)
}

func (r *clusterRig) Commit(step int) error {
	if err := r.failAt("decided", step); err != nil {
		return err
	}
	for _, n := range r.nodes {
		if err := n.Commit(); err != nil {
			return err
		}
	}
	r.commits += len(r.nodes)
	return nil
}

// Rollback is the path a worker failure mid-superstep takes: every
// node aborts to its committed state. Anything but errAbort ends the run.
func (r *clusterRig) Rollback(_, _ int, cause error) (int64, error) {
	if !errors.Is(cause, errAbort) {
		return 0, cause
	}
	for _, n := range r.nodes {
		if err := n.LoadCommitted(); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// prepared is every node's prepared record.
func (r *clusterRig) prepared() (recs [][]uint64) {
	for _, n := range r.nodes {
		recs = append(recs, slices.Clone(n.Prepared()))
	}
	return recs
}

func (r *clusterRig) Final() (reports []*core.NodeReport, err error) {
	reports = make([]*core.NodeReport, len(r.nodes))
	for i, n := range r.nodes {
		if reports[i], err = n.Final(); err != nil {
			return nil, err
		}
	}
	return reports, nil
}

func (r *clusterRig) run(t testing.TB) *core.Result {
	t.Helper()
	res, err := r.coord.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func clusterProgram() *bsptest.RandomProgram {
	return &bsptest.RandomProgram{V: 16, Steps: 5, MsgsPerStep: 4, MaxLen: 12}
}

// TestClusterCoreMatchesInProcess: the driver over NodeEngines is
// bitwise identical to the in-process parallel engine — VP states,
// model costs, and EM statistics — across processor counts, including
// P > V (empty nodes); and so is it through the wire form, whose words
// the rig poisons as soon as the node that read them returns.
func TestClusterCoreMatchesInProcess(t *testing.T) {
	for _, tc := range []struct{ p, v int }{{2, 16}, {4, 16}, {4, 3}} {
		prog := clusterProgram()
		prog.V = tc.v
		cfg := parMachine(tc.p, 2, 8, 256)
		opts := core.Options{Seed: 7}
		oracle, err := core.Run(prog, cfg, core.Options{Seed: 7, StateDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		for _, wire := range []bool{false, true} {
			rig := openRig(t, prog, cfg, opts, t.TempDir(), false)
			rig.wire = wire
			resultsIdentical(t, rig.run(t), oracle, fmt.Sprintf("cluster p=%d v=%d wire=%v", tc.p, tc.v, wire))
			rig.close()
		}
	}
}

// TestClusterCoreAbortReplay: aborting the attempt at every superstep
// in turn — round 0 computed on every node and not written, batches done,
// the vote taken, or every node already PREPARED but no decision — then
// replaying leaves no trace: every node prepares, at every barrier, the
// record the undisturbed rig prepares, word for word, and the final result
// is still bitwise identical to an undisturbed run. Every node adopts its
// committed record in memory: the directory of the blocks its writer
// placed, made the input at PREPARE and rolled back; and the held records
// of its turnaround batch, which the aborted attempt's first round had
// consumed and its last replaced — on a machine where that batch is all a
// node owns (M = 256 words), and on one where it is one of two (M = 16),
// there also with drive latency, so that the store's workers and staging
// cache still hold the aborted attempt's writes when the node aborts.
func TestClusterCoreAbortReplay(t *testing.T) {
	for _, row := range []struct {
		m       int
		latency time.Duration
	}{{256, 0}, {16, 0}, {16, 20 * time.Microsecond}} {
		t.Run(fmt.Sprintf("M=%d/latency=%v", row.m, row.latency), func(t *testing.T) {
			t.Parallel()
			m, prog := row.m, clusterProgram()
			cfg := parMachine(3, 2, 8, m)
			opts := core.Options{Seed: 11, DriveLatency: row.latency}
			durable := opts
			durable.StateDir = t.TempDir()
			oracle, err := core.Run(prog, cfg, durable)
			if err != nil {
				t.Fatal(err)
			}
			if batches := map[int]int{256: 1, 16: 2}[m]; oracle.EM.Groups != batches {
				t.Fatalf("M=%d: %d batches a node, want %d", m, oracle.EM.Groups, batches)
			}
			want := map[int][][]uint64{}
			rig := openRig(t, prog, cfg, opts, t.TempDir(), false)
			rig.fail = func(point string, step int) error {
				if point == "prepared" {
					want[step] = rig.prepared()
				}
				return nil
			}
			resultsIdentical(t, rig.run(t), oracle, "undisturbed")
			rig.close()
			// Each abort point runs a rig of its own, in parallel: the
			// latency row's sleeps are most of its wall.
			for abortAt := 0; abortAt < oracle.Costs.Supersteps; abortAt++ {
				for _, phase := range []string{"computed", "batches", "voted", "prepared"} {
					label := fmt.Sprintf("abort@%d/%s", abortAt, phase)
					t.Run(label, func(t *testing.T) {
						t.Parallel()
						rig := openRig(t, prog, cfg, opts, t.TempDir(), false)
						aborted := false
						rig.fail = func(point string, step int) error {
							if point == "prepared" && !reflect.DeepEqual(rig.prepared(), want[step]) {
								t.Errorf("barrier %d: a node's prepared record differs from the undisturbed rig's", step)
							}
							if aborted || step != abortAt || point != phase {
								return nil
							}
							aborted = true
							return errAbort
						}
						resultsIdentical(t, rig.run(t), oracle, label)
						if !aborted {
							t.Errorf("%s never fired", label)
						}
						rig.close()
					})
				}
			}
		})
	}
}

// adoptingRig replaces node `node` before superstep `at` begins by one
// re-materialized elsewhere from its own full snapshot, sent through the
// wire form: what the coordinator does for a worker whose state is gone.
type adoptingRig struct {
	*clusterRig
	t        *testing.T
	at, node int
	adopt    func(snap *core.NodeSnapshot) *core.NodeEngine
}

func (a *adoptingRig) Begin(step int) error {
	if step == a.at {
		old := a.nodes[a.node]
		snap, err := old.ExportSnapshot(-1)
		if err != nil {
			a.t.Fatal(err)
		}
		enc := words.NewEncoder(nil)
		snap.Encode(enc)
		if snap, err = core.DecodeSnapshot(words.NewDecoder(enc.Words())); err != nil {
			a.t.Fatal(err)
		}
		old.Close()
		a.nodes[a.node] = a.adopt(snap)
	}
	return a.clusterRig.Begin(step)
}

// TestClusterCoreAdoptScatteredInput: a node's input is barrier state
// like any other — its directory travels in the snapshot's manifest, its
// blocks among the snapshot's tracks — so a node adopted from a replica
// snapshot between two supersteps carries on bitwise, at every barrier of
// the run.
func TestClusterCoreAdoptScatteredInput(t *testing.T) {
	prog := clusterProgram()
	cfg := parMachine(2, 2, 8, 256)
	opts := core.Options{Seed: 17}
	durable := opts
	durable.StateDir = t.TempDir()
	oracle, err := core.Run(prog, cfg, durable)
	if err != nil {
		t.Fatal(err)
	}
	for at := 1; at < oracle.Costs.Supersteps; at++ {
		rig := openRig(t, prog, cfg, opts, t.TempDir(), false)
		elsewhere := t.TempDir()
		a := &adoptingRig{clusterRig: rig, t: t, at: at, node: 1}
		a.adopt = func(snap *core.NodeSnapshot) *core.NodeEngine {
			n, err := core.AdoptNode(prog, cfg, opts, 1, elsewhere, snap)
			if err != nil {
				t.Fatalf("adopt@%d: %v", at, err)
			}
			return n
		}
		res, err := rig.coord.Run(a)
		if err != nil {
			t.Fatalf("adopt@%d: %v", at, err)
		}
		resultsIdentical(t, res, oracle, fmt.Sprintf("adopt@%d", at))
		rig.close()
	}
}

// TestClusterCoreCrashReopen: kill the whole cluster in either 2PC
// window — every node PREPARED but no decision (presumed abort), or
// the decision committed but no node told (commit on reconnect) — and
// the reopened run still finishes bitwise identical.
func TestClusterCoreCrashReopen(t *testing.T) {
	prog := clusterProgram()
	cfg := parMachine(3, 2, 8, 256)
	opts := core.Options{Seed: 13}
	oracle, err := core.Run(prog, cfg, core.Options{Seed: 13, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	errCrash := errors.New("injected crash")
	for crashAt := 0; crashAt < oracle.Costs.Supersteps; crashAt++ {
		for _, window := range []string{"prepared", "decided"} {
			root := t.TempDir()
			rig := openRig(t, prog, cfg, opts, root, false)
			rig.fail = func(point string, step int) error {
				if step == crashAt && point == window {
					return errCrash
				}
				return nil
			}
			if _, err := rig.coord.Run(rig); !errors.Is(err, errCrash) {
				t.Fatalf("crash@%d/%s: run ended with %v", crashAt, window, err)
			}
			rig.close()
			// After an undecided crash the step replays; after a decided
			// one it is already committed.
			rig = openRig(t, prog, cfg, opts, root, true)
			if got, want := rig.coord.StepsDone(), crashAt+map[string]int{"prepared": 0, "decided": 1}[window]; got != want {
				t.Errorf("crash@%d/%s: reopened at superstep %d, want %d", crashAt, window, got, want)
			}
			resultsIdentical(t, rig.run(t), oracle, fmt.Sprintf("crash@%d/%s", crashAt, window))
			rig.close()
		}
	}
}

// forgedBlock is one message block in the wire form, for VP dst and
// from the processor whose first VP is src: a one-word stream, whole.
func forgedBlock(dst, src, B int) core.BlockBatch {
	img := make([]uint64, B)
	img[0], img[1], img[4] = uint64(dst), uint64(src), 1<<1|1
	enc := words.NewEncoder(nil)
	enc.PutInt(1)
	enc.PutInts([]int64{int64(dst), int64(src), 0, 0})
	enc.PutUint(uint64(len(img)))
	enc.PutWords(img)
	return core.DecodeBlockBatch(words.NewDecoder(enc.Words()))
}

// forgingRig hands node 0, in superstep `at`'s first writing phase, a
// block from node 1 for node 1's first VP, which node 0 does not own.
type forgingRig struct {
	*clusterRig
	at, vpp, B int
	forged     bool
}

func (f *forgingRig) Write(j, step int, outs []*core.BatchOut) error {
	if step == f.at && !f.forged {
		f.forged = true
		bo := *outs[1]
		bo.Scatter = slices.Clone(bo.Scatter)
		bo.Scatter[0] = forgedBlock(f.vpp, f.vpp, f.B)
		outs = append([]*core.BatchOut{outs[0], &bo}, outs[2:]...)
	}
	return f.clusterRig.Write(j, step, outs)
}

// TestWriteRefusesBlockForAnotherOwner: a processor writes only the
// blocks of VPs it owns. One for another processor's VP is refused as it
// arrives, with a typed error that names the sender, the VP and the
// receiver — through NodeEngine.Write, and on the node rig, where the
// superstep then ends before its barrier: no node prepares it and the
// coordinator decides nothing past the barrier before it.
func TestWriteRefusesBlockForAnotherOwner(t *testing.T) {
	prog := clusterProgram()
	cfg := parMachine(2, 2, 8, 256)
	opts := core.Options{Seed: 7}
	vpp := prog.NumVPs() / 2
	want := fmt.Sprintf("processor 1 sent processor 0 a block for VP %d", vpp)

	n, err := core.OpenNode(prog, cfg, opts, 0, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Setup(); err != nil {
		t.Fatal(err)
	}
	n.BeginStep()
	j := n.Batches() - 1 // superstep 0's first round
	if _, err := n.Compute(j, 0); err != nil {
		t.Fatal(err)
	}
	err = n.Write(j, 0, []core.BlockBatch{{}, forgedBlock(vpp, vpp, cfg.B)})
	if !core.IsEngineError(err) || !strings.Contains(err.Error(), want) {
		t.Errorf("NodeEngine.Write: got %v, want the engine's refusal %q", err, want)
	}

	for _, at := range []int{0, 2} {
		rig := openRig(t, prog, cfg, opts, t.TempDir(), false)
		f := &forgingRig{clusterRig: rig, at: at, vpp: vpp, B: cfg.B}
		_, err := rig.coord.Run(f)
		if !core.IsEngineError(err) || !strings.Contains(err.Error(), want) {
			t.Errorf("rig, superstep %d: got %v, want the engine's refusal %q", at, err, want)
		}
		if barriers := at + 1; rig.prepares != 2*barriers || rig.coord.Committed() != barriers {
			t.Errorf("rig, superstep %d: %d node prepares and %d decisions, want %d and %d: the forged superstep passed its barrier",
				at, rig.prepares, rig.coord.Committed(), 2*barriers, barriers)
		}
		rig.close()
	}
}

// TestWriteRefusesMalformedBlocks: the writing phase refuses a delivered
// block for a VP the node does not own, one that is not B words, or one
// whose header is not its directory entry — which a tail packed into
// another's shared block would otherwise lose unseen — before it reaches
// the writer: what a wrong peer could send over the wire.
func TestWriteRefusesMalformedBlocks(t *testing.T) {
	prog, cfg := clusterProgram(), parMachine(2, 2, 8, 256)
	for _, tc := range []struct {
		name       string
		dst, words int
		want       string
	}{
		{"another node's VP", 8, 8, "for VP 8, which it does not own"},
		{"a short image", 0, 3, "a block of 3 words, not B = 8"},
		{"a header that is not its entry", 0, 8, "a block whose header {0 0 0 0} is not its directory entry {0 8 0 0}"},
	} {
		n, err := core.OpenNode(prog, cfg, core.Options{Seed: 7}, 0, t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Setup(); err != nil {
			t.Fatal(err)
		}
		n.BeginStep()
		if _, err := n.Compute(0, 0); err != nil {
			t.Fatal(err)
		}
		enc := words.NewEncoder(nil)
		enc.PutInt(1)
		enc.PutInt(4) // the metadata words that follow
		for _, w := range []int{tc.dst, 8, 0, 0} {
			enc.PutInt(int64(w))
		}
		enc.PutUint(uint64(tc.words))
		enc.PutWords(make([]uint64, tc.words))
		bad := core.DecodeBlockBatch(words.NewDecoder(enc.Words()))
		if err := n.Write(0, 0, []core.BlockBatch{{}, bad}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Write returned %v, want an error naming %q", tc.name, err, tc.want)
		}
		n.Close()
	}
}
