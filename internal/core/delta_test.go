package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"embsp/internal/bsp"
	"embsp/internal/cluster"
	"embsp/internal/core"
	"embsp/internal/disk"
	"embsp/internal/workload"
)

// A replica delta is the set of tracks the prepared record lists as
// holding data and the committed one does not. That is every track the
// barrier changed only because the checkpoint discipline never rewrites
// a track the last barrier lists before the next one. These tests drive
// NodeEngines with replication, as a cluster worker and its coordinator
// do, and check the invariant and the fold at every barrier.

// replicatingRig ships every node's snapshot on its base at each barrier,
// as a worker does on its PREPARED reply, and folds it into the node's
// replica, a node directory, when the decision lands, as the coordinator
// does. Beside each shipped snapshot it takes the node's full one, which
// holds exactly the tracks the prepared record lists as holding data.
type replicatingRig struct {
	*clusterRig
	t       *testing.T
	label   string
	store   *cluster.ReplicaStore
	last    []*core.NodeSnapshot // each node's full snapshot at its last committed barrier
	staged  []*core.NodeSnapshot // what each node shipped at this barrier
	full    []*core.NodeSnapshot // and its full snapshot there
	deltas  int
	shipped []bool // per barrier since the rig opened: whether every node shipped a delta
}

func newReplicatingRig(t *testing.T, label string, rig *clusterRig, prog bsp.Program, cfg core.MachineConfig, opts core.Options) *replicatingRig {
	return &replicatingRig{clusterRig: rig, t: t, label: label,
		store: cluster.OpenReplicas(t.TempDir(), prog, cfg, opts), last: make([]*core.NodeSnapshot, cfg.P)}
}

// reopen carries the replicas and the last barrier's snapshots over to a
// rig reopened on the same state.
func (r *replicatingRig) reopen(rig *clusterRig) *replicatingRig {
	next := *r
	next.clusterRig, next.shipped = rig, nil
	return &next
}

func images(s *core.NodeSnapshot) map[disk.Addr][]uint64 {
	m := make(map[disk.Addr][]uint64, len(s.Tracks))
	for _, tr := range s.Tracks {
		m[disk.Addr{Disk: tr.Disk, Track: tr.Track}] = tr.Payload
	}
	return m
}

// ship exports every node's snapshot on its replica's barrier, and its
// full one, and checks the invariant: a track that holds data at both
// the last committed barrier and the prepared one holds the same data.
func (r *replicatingRig) ship() {
	r.staged, r.full = make([]*core.NodeSnapshot, len(r.nodes)), make([]*core.NodeSnapshot, len(r.nodes))
	allDeltas := true
	for i, n := range r.nodes {
		var err error
		if r.staged[i], err = n.ExportSnapshot(r.store.Version(i)); err != nil {
			r.t.Fatalf("%s: node %d: %v", r.label, i, err)
		}
		if r.full[i], err = n.ExportSnapshot(-1); err != nil {
			r.t.Fatalf("%s: node %d: %v", r.label, i, err)
		}
		allDeltas = allDeltas && !r.staged[i].Full
		if r.last[i] == nil {
			continue
		}
		was := images(r.last[i])
		for _, tr := range r.full[i].Tracks {
			if old, ok := was[disk.Addr{Disk: tr.Disk, Track: tr.Track}]; ok && !slices.Equal(old, tr.Payload) {
				r.t.Errorf("%s: node %d barrier %d rewrote track (%d,%d), which barrier %d lists", r.label, i, r.full[i].Version, tr.Disk, tr.Track, r.last[i].Version)
			}
		}
	}
	r.shipped = append(r.shipped, allDeltas)
}

// fold applies what every node shipped to its replica and holds what the
// replica loads to the node's full snapshot, exactly: the same barrier,
// record and tracks.
func (r *replicatingRig) fold() {
	for i, snap := range r.staged {
		if !snap.Full {
			r.deltas++
		}
		if err := r.store.Apply(i, snap); err != nil {
			r.t.Fatalf("%s: node %d: %v", r.label, i, err)
		}
		got, err := r.store.Load(i)
		if err != nil {
			r.t.Fatalf("%s: node %d: %v", r.label, i, err)
		}
		if full := r.full[i]; !reflect.DeepEqual(got, full) {
			r.t.Errorf("%s: node %d: the replica loads barrier %d with %d tracks, the node's full snapshot is barrier %d with %d", r.label, i, got.Version, len(got.Tracks), full.Version, len(full.Tracks))
		}
		r.last[i] = r.full[i]
	}
}

func (r *replicatingRig) Setup() ([]disk.Stats, error) {
	stats, err := r.clusterRig.Setup()
	if err == nil {
		r.ship()
	}
	return stats, err
}

func (r *replicatingRig) Prepare(step int, halted bool) ([]int64, error) {
	ops, err := r.clusterRig.Prepare(step, halted)
	if err == nil {
		r.ship()
	}
	return ops, err
}

// Commit folds first: the coordinator folds the moment its decision
// record lands, before any node hears of it.
func (r *replicatingRig) Commit(step int) error {
	r.fold()
	return r.clusterRig.Commit(step)
}

// TestReplicaDeltaInvariant: on sort, listrank and cc at P = 2, no
// barrier rewrites a track the last one lists, and a replica folded from
// the deltas loads exactly the node's full snapshot, at every barrier.
func TestReplicaDeltaInvariant(t *testing.T) {
	for _, spec := range []workload.Spec{
		{Alg: "sort", N: 4096, V: 16, Seed: 7},
		{Alg: "listrank", N: 2048, V: 16, Seed: 7},
		{Alg: "cc", N: 512, V: 16, Seed: 7},
	} {
		inst, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := workload.Machine(inst.Program, 2, 4, 64, 3, 1000)
		opts := core.Options{Seed: 7}
		rig := newReplicatingRig(t, spec.Alg, openRig(t, inst.Program, cfg, opts, t.TempDir(), false), inst.Program, cfg, opts)
		res, err := rig.coord.Run(rig)
		if err != nil {
			t.Fatalf("%s: %v", spec.Alg, err)
		}
		rig.close()
		if want := 2 * (res.Costs.Supersteps + 1); rig.deltas != want {
			t.Errorf("%s: %d deltas folded, want one per node and barrier, %d", spec.Alg, rig.deltas, want)
		}
	}
}

// TestReplicaDeltaAfterResolvePending: a node that reopens with a
// prepared record the decision committed, and commits it, ships a delta
// at its next barrier — its committed record is the barrier the replica
// folded — and that delta folds onto the replica.
func TestReplicaDeltaAfterResolvePending(t *testing.T) {
	inst, err := workload.Spec{Alg: "listrank", N: 2048, V: 16, Seed: 7}.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Machine(inst.Program, 2, 4, 64, 3, 1000)
	opts := core.Options{Seed: 7}
	oracle, err := core.Run(inst.Program, cfg, core.Options{Seed: 7, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	errCrash := errors.New("injected crash")
	for _, crashAt := range []int{0, 2} {
		label := fmt.Sprintf("crash@%d/decided", crashAt)
		root := t.TempDir()
		rig := newReplicatingRig(t, label, openRig(t, inst.Program, cfg, opts, root, false), inst.Program, cfg, opts)
		rig.fail = func(point string, step int) error {
			if step == crashAt && point == "decided" {
				return errCrash
			}
			return nil
		}
		if _, err := rig.coord.Run(rig); !errors.Is(err, errCrash) {
			t.Fatalf("%s: run ended with %v", label, err)
		}
		rig.close()
		reopened := openRig(t, inst.Program, cfg, opts, root, true) // commits the prepared records
		rig = rig.reopen(reopened)
		res, err := rig.coord.Run(rig)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if workload.Fingerprint(res) != workload.Fingerprint(oracle) {
			t.Errorf("%s: the resumed run differs from the in-process one", label)
		}
		rig.close()
		if len(rig.shipped) == 0 || !rig.shipped[0] {
			t.Errorf("%s: the first barrier after the reopen shipped %v, want a delta from every node", label, rig.shipped)
		}
	}
}

// snapshotRig takes node 0's full snapshot and its delta on the
// committed barrier at every barrier, as the node would ship them.
type snapshotRig struct {
	*clusterRig
	t             *testing.T
	fulls, deltas []*core.NodeSnapshot
}

func (r *snapshotRig) take() {
	n := r.nodes[0]
	full, err := n.ExportSnapshot(-1)
	if err != nil {
		r.t.Fatal(err)
	}
	delta, err := n.ExportSnapshot(n.Committed())
	if err != nil {
		r.t.Fatal(err)
	}
	r.fulls, r.deltas = append(r.fulls, full), append(r.deltas, delta)
}

func (r *snapshotRig) Setup() ([]disk.Stats, error) {
	stats, err := r.clusterRig.Setup()
	if err == nil {
		r.take()
	}
	return stats, err
}

func (r *snapshotRig) Prepare(step int, halted bool) ([]int64, error) {
	ops, err := r.clusterRig.Prepare(step, halted)
	if err == nil {
		r.take()
	}
	return ops, err
}

// TestReplicaApplyStopsAtEveryStep stops a replica's apply after each of
// its steps, as a crash would, and reopens the replica store. A delta
// stopped after any ImportTrack, the Sync, the journal's prepare or its
// commit leaves the replica at its base, loading the base's full
// snapshot, or at the delta's barrier, loading the node's; a replica
// left at its base takes the delta again. A full apply stopped before
// its record holds no barrier (version 0 or -1), and the full snapshot
// applied again restores it.
func TestReplicaApplyStopsAtEveryStep(t *testing.T) {
	inst, err := workload.Spec{Alg: "listrank", N: 512, V: 8, Seed: 7}.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Machine(inst.Program, 2, 2, 64, 3, 1000)
	opts := core.Options{Seed: 7}
	rig := &snapshotRig{clusterRig: openRig(t, inst.Program, cfg, opts, t.TempDir(), false), t: t}
	if _, err := rig.coord.Run(rig); err != nil {
		t.Fatal(err)
	}
	rig.close()
	errStop := errors.New("stopped")
	defer core.StopApply(nil)
	// apply applies snap over a replica at base — none when base is nil —
	// stopping after step stop, and returns the reopened store.
	apply := func(base, snap *core.NodeSnapshot, stop int) (*cluster.ReplicaStore, bool) {
		dir := t.TempDir()
		r := cluster.OpenReplicas(dir, inst.Program, cfg, opts)
		if base != nil {
			if err := r.Apply(0, base); err != nil {
				t.Fatal(err)
			}
		}
		var steps []string
		core.StopApply(func(step string) error {
			if steps = append(steps, step); len(steps) == stop {
				return errStop
			}
			return nil
		})
		err := r.Apply(0, snap)
		core.StopApply(nil)
		if stopped := errors.Is(err, errStop); !stopped && err != nil || stopped != (stop <= len(steps)) {
			t.Fatalf("barrier %d stopped after step %d of %v: %v", snap.Version, stop, steps, err)
		}
		return cluster.OpenReplicas(dir, inst.Program, cfg, opts), stop <= len(steps)
	}
	loads := func(r *cluster.ReplicaStore, want *core.NodeSnapshot, label string) {
		t.Helper()
		if got, err := r.Load(0); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the replica at %d does not load barrier %d: %v", label, r.Version(0), want.Version, err)
		}
	}
	stops := 0
	for b := 1; b < len(rig.deltas); b++ {
		base, delta, full := rig.fulls[b-1], rig.deltas[b], rig.fulls[b]
		if delta.Full || delta.Base != b || len(delta.Tracks) == 0 {
			t.Fatalf("barrier %d shipped a delta on %d with %d tracks", delta.Version, delta.Base, len(delta.Tracks))
		}
		for stop := 1; ; stop++ {
			r, stopped := apply(base, delta, stop)
			if !stopped {
				break
			}
			stops++
			label := fmt.Sprintf("delta to barrier %d stopped after step %d", delta.Version, stop)
			switch r.Version(0) {
			case b:
				loads(r, base, label)
				if err := r.Apply(0, delta); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				loads(r, full, label+", applied again")
			case b + 1:
				loads(r, full, label)
			default:
				t.Fatalf("%s: the replica reopens at %d", label, r.Version(0))
			}
		}
		for stop := 1; ; stop++ {
			r, stopped := apply(base, full, stop)
			if !stopped {
				break
			}
			stops++
			label := fmt.Sprintf("full snapshot of barrier %d stopped after step %d", full.Version, stop)
			switch v := r.Version(0); {
			case v == full.Version:
				loads(r, full, label)
			case v > 0 || r.Restorable(0, v):
				t.Fatalf("%s: the replica reopens at %d", label, v)
			default:
				if err := r.Apply(0, full); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				loads(r, full, label+", applied again")
			}
		}
	}
	t.Logf("%d barriers, %d stops", len(rig.deltas)-1, stops)
}
