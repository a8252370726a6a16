package core_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

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

// replica is the coordinator's copy of one node: the barrier it holds
// and the tracks folded into it.
type replica struct {
	version int
	tracks  map[disk.Addr][]uint64
}

// replicatingRig ships every node's snapshot on its base at each barrier,
// as a worker does on its PREPARED reply, and folds it into the node's
// replica when the decision lands, as the coordinator does. Beside each
// shipped snapshot it takes the node's full one, which holds exactly the
// tracks the prepared record lists as holding data.
type replicatingRig struct {
	*clusterRig
	t        *testing.T
	label    string
	replicas []replica
	last     []*core.NodeSnapshot // each node's full snapshot at its last committed barrier
	staged   []*core.NodeSnapshot // what each node shipped at this barrier
	full     []*core.NodeSnapshot // and its full snapshot there
	deltas   int
	shipped  []bool // per barrier since the rig opened: whether every node shipped a delta
}

func newReplicatingRig(t *testing.T, label string, rig *clusterRig) *replicatingRig {
	p := len(rig.nodes)
	r := &replicatingRig{clusterRig: rig, t: t, label: label, replicas: make([]replica, p), last: make([]*core.NodeSnapshot, p)}
	for i := range r.replicas {
		r.replicas[i].tracks = map[disk.Addr][]uint64{}
	}
	return r
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
		if r.staged[i], err = n.ExportSnapshot(r.replicas[i].version); err != nil {
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

// fold applies what every node shipped to its replica and holds the
// replica to the node's full snapshot, track by track. The replica may
// also hold tracks the record lists as blank — freed since their images
// shipped — which a restore never reads.
func (r *replicatingRig) fold() {
	for i, snap := range r.staged {
		rep := &r.replicas[i]
		switch {
		case snap.Full:
			rep.tracks = map[disk.Addr][]uint64{}
		case snap.Base != rep.version:
			r.t.Fatalf("%s: node %d shipped a delta on barrier %d to a replica at %d", r.label, i, snap.Base, rep.version)
		default:
			r.deltas++
		}
		for _, tr := range snap.Tracks {
			a := disk.Addr{Disk: tr.Disk, Track: tr.Track}
			if tr.Payload == nil {
				delete(rep.tracks, a)
			} else {
				rep.tracks[a] = tr.Payload
			}
		}
		rep.version = snap.Version
		full := r.full[i]
		if full.Version != snap.Version || !slices.Equal(full.Manifest, snap.Manifest) {
			r.t.Errorf("%s: node %d shipped barrier %d, its full snapshot is barrier %d", r.label, i, snap.Version, full.Version)
		}
		for _, tr := range full.Tracks {
			if got := rep.tracks[disk.Addr{Disk: tr.Disk, Track: tr.Track}]; !slices.Equal(got, tr.Payload) {
				r.t.Errorf("%s: node %d barrier %d: the folded replica holds %v at track (%d,%d), the node %v", r.label, i, snap.Version, got, tr.Disk, tr.Track, tr.Payload)
			}
		}
		r.last[i] = full
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
// the deltas holds every track of the node's full snapshot, at every
// barrier.
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
		rig := newReplicatingRig(t, spec.Alg, openRig(t, inst.Program, cfg, core.Options{Seed: 7}, t.TempDir(), false))
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
		rig := newReplicatingRig(t, label, openRig(t, inst.Program, cfg, opts, root, false))
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
