package cluster

import (
	"fmt"
	"path/filepath"

	"embsp/internal/bsp"
	"embsp/internal/core"
	"embsp/internal/journal"
)

// ReplicaStore is the coordinator's copy of every node's state at the
// last committed barrier — the thing that turns permanent worker loss
// from "state lost beyond 2PC recovery" into a migration. Workers ship
// snapshots (usually deltas) piggybacked on the PREPARED reply; the
// coordinator applies them the instant its decision record lands, so
// the replica never trails the decided barrier — a worker wiped at any
// point after the decision restores at exactly the barrier the run is
// on.
//
// The replica of node i is a node state directory, node-<i> under root,
// written and read by the code that keeps the node's own: the drive
// files and geometry under proc-NN/, and a journal.wal holding the
// node's barrier record. It rests on the node's crash argument (DESIGN.md
// §9): a full snapshot is adopted as a migration adopts it (AdoptNode),
// and a delta's images land on tracks its base record lists as blank
// and are fsynced before its record is prepared and committed, so a
// crash mid-apply leaves the replica whole at its base or at the new
// barrier. A restore reads back exactly the tracks the record lists.
// Worker state and its replica on different machines is the deployment
// assumption, mirroring what the paper's c-copy track replication
// assumes of independent disks.
//
// A replica is only ever read for restore at exactly the coordinator's
// committed barrier; anything less falls back to the loud divergence
// error.
type ReplicaStore struct {
	root string
	prog bsp.Program
	cfg  core.MachineConfig
	opts core.Options
	// versions holds the barrier each node's replica holds: 0 for an
	// empty replica, -1 for one that is not trusted.
	versions []int
}

// OpenReplicas opens the replica store of prog's nodes under root; a
// directory an apply needs is made by the apply. A node's replica holds the committed record count of its
// journal; a directory with no committed record holds 0, and one whose
// geometry, journal or record does not open as the node reports -1
// until a full snapshot re-seeds it. Replicas keep no trace and no
// metrics: the nodes' lanes are the nodes' own.
func OpenReplicas(root string, prog bsp.Program, cfg core.MachineConfig, opts core.Options) *ReplicaStore {
	opts.Trace, opts.Metrics = nil, nil
	r := &ReplicaStore{root: root, prog: prog, cfg: cfg, opts: opts, versions: make([]int, cfg.P)}
	for i := range r.versions {
		r.versions[i] = r.open(i)
	}
	return r
}

func (r *ReplicaStore) nodeDir(i int) string {
	return filepath.Join(r.root, fmt.Sprintf("node-%d", i))
}

// open reads the barrier node i's directory holds.
func (r *ReplicaStore) open(i int) int {
	switch c, err := journal.Committed(r.nodeDir(i)); {
	case err != nil:
		return -1
	case c == 0:
		return 0
	}
	n, err := core.OpenReplica(r.prog, r.cfg, r.opts, i, r.nodeDir(i))
	if err != nil {
		return -1
	}
	defer n.Close()
	return n.Committed()
}

// Version reports the committed barrier node i's replica holds: 0 for
// an empty replica, -1 for an untrusted one (the worker must ship a full
// snapshot).
func (r *ReplicaStore) Version(i int) int { return r.versions[i] }

// Restorable reports whether node i can be re-materialized at barrier
// version from this replica.
func (r *ReplicaStore) Restorable(i, version int) bool {
	return version >= 1 && r.versions[i] == version
}

// Apply folds one node's shipped snapshot into its replica. A full
// snapshot re-seeds the replica; a delta requires the replica at exactly
// the snapshot's base. Any failure (including a base mismatch) leaves
// the replica untrusted, and the coordinator asks for a full snapshot at
// the next barrier.
func (r *ReplicaStore) Apply(i int, snap *core.NodeSnapshot) error {
	err := r.apply(i, snap)
	r.versions[i] = snap.Version
	if err != nil {
		r.versions[i] = -1
	}
	return err
}

func (r *ReplicaStore) apply(i int, snap *core.NodeSnapshot) error {
	switch {
	case snap.Version < 1:
		return fmt.Errorf("cluster: replica %d: snapshot with no committed barrier", i)
	case !snap.Full && snap.Base != r.versions[i]:
		return fmt.Errorf("cluster: replica %d: delta on base %d does not fit replica at %d", i, snap.Base, r.versions[i])
	case snap.Full || snap.Base == 0:
		// A delta on the empty barrier holds every track.
		full := *snap
		full.Full, full.Base = true, -1
		n, err := core.AdoptNode(r.prog, r.cfg, r.opts, i, r.nodeDir(i), &full)
		if err != nil {
			return err
		}
		return n.Close()
	}
	n, err := core.OpenReplica(r.prog, r.cfg, r.opts, i, r.nodeDir(i))
	if err != nil {
		return err
	}
	err = n.ApplyDelta(snap)
	if cerr := n.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads node i's replica back as a full snapshot, for seeding a
// fresh or spare worker: the directory is opened as the node, which
// checks its geometry, journal and record, and every track the record
// lists is read through the store's slot checksums.
func (r *ReplicaStore) Load(i int) (*core.NodeSnapshot, error) {
	v := r.versions[i]
	if v < 1 {
		return nil, fmt.Errorf("cluster: replica %d is not restorable (version %d)", i, v)
	}
	n, err := core.OpenReplica(r.prog, r.cfg, r.opts, i, r.nodeDir(i))
	if err != nil {
		return nil, err
	}
	defer n.Close()
	if c := n.Committed(); c != v {
		return nil, fmt.Errorf("cluster: replica %d holds barrier %d, not %d", i, c, v)
	}
	return n.ExportSnapshot(-1)
}

// Invalidate marks node i's replica untrusted in memory; the next
// Apply must be a full snapshot. Used when a shipped snapshot fails
// validation above the store layer.
func (r *ReplicaStore) Invalidate(i int) { r.versions[i] = -1 }
