package core

import (
	"fmt"
	"os"

	"embsp/internal/bsp"
	"embsp/internal/disk"
	"embsp/internal/journal"
	"embsp/internal/words"
)

// Node snapshots are the unit of cluster-level replication: everything
// needed to re-materialize a node on another machine at a committed
// barrier. A node's journal manifest alone is metadata (PRNG, areas,
// allocator, stats) — the payload lives in the drive files — so a
// snapshot pairs the manifest with track images: the full set of
// non-blank tracks, or, between consecutive barriers, just the tracks
// the later record lists as holding data and the earlier one does not
// (a delta).

// TrackImage is one track of a snapshot. A nil Payload is a deletion
// marker: the track read as blank at the snapshot's barrier and any
// replicated copy must be wiped.
type TrackImage struct {
	Disk, Track int
	Payload     []uint64
}

// NodeSnapshot is a node's state at committed barrier Version. Full
// snapshots stand alone; deltas apply on top of a copy at barrier
// Base and hold every track non-blank at Version and blank at Base,
// which the checkpoint discipline makes every track whose content
// changed — images are current content, not diffs.
type NodeSnapshot struct {
	Version  int
	Full     bool
	Base     int // -1 for full snapshots
	Manifest []uint64
	Tracks   []TrackImage
}

// WireWords returns the snapshot's encoded size in words, the unit the
// replication counters charge.
func (s *NodeSnapshot) WireWords() int {
	n := 5 + len(s.Manifest)
	for _, t := range s.Tracks {
		n += 3
		if t.Payload != nil {
			n += 2 + len(t.Payload)
		}
	}
	return n
}

// Encode appends the snapshot's wire form: header, manifest, then each
// track image with its own FNV checksum (the transport's frame
// checksum guards the hop; the per-track checksum guards the image
// end-to-end, through the replica store and back out of a restore).
func (s *NodeSnapshot) Encode(enc *words.Encoder) {
	enc.PutInt(int64(s.Version))
	enc.PutBool(s.Full)
	enc.PutInt(int64(s.Base))
	enc.PutUints(s.Manifest)
	enc.PutInt(int64(len(s.Tracks)))
	for _, t := range s.Tracks {
		enc.PutInt(int64(t.Disk))
		enc.PutInt(int64(t.Track))
		if t.Payload == nil {
			enc.PutBool(false)
			continue
		}
		enc.PutBool(true)
		enc.PutUint(disk.Checksum(t.Payload))
		enc.PutUints(t.Payload)
	}
}

// DecodeSnapshot reads a snapshot encoded by Encode, verifying every
// track image's checksum.
func DecodeSnapshot(dec *words.Decoder) (*NodeSnapshot, error) {
	s := &NodeSnapshot{
		Version: int(dec.Int()),
		Full:    dec.Bool(),
		Base:    int(dec.Int()),
	}
	s.Manifest = dec.Uints()
	nt := int(dec.Int())
	if nt < 0 || nt > dec.Remaining() {
		return nil, fmt.Errorf("core: snapshot claims %d track images", nt)
	}
	for i := 0; i < nt; i++ {
		t := TrackImage{Disk: int(dec.Int()), Track: int(dec.Int())}
		if dec.Bool() {
			sum := dec.Uint()
			t.Payload = dec.Uints()
			if disk.Checksum(t.Payload) != sum {
				return nil, fmt.Errorf("core: snapshot track (%d,%d) fails its checksum", t.Disk, t.Track)
			}
		}
		s.Tracks = append(s.Tracks, t)
	}
	return s, nil
}

// ExportSnapshot captures the node's state at its latest barrier —
// the prepared one when a 2PC record is pending (its track data is
// already durable; only the commit lags), the committed one otherwise — for
// shipment to the coordinator's replica store. Exporting at PREPARE is
// what makes post-decision losses survivable: the coordinator folds
// the snapshot into the replica the moment the decision record lands,
// so a worker wiped any time after never leaves the replica a barrier
// behind. base is the barrier version the coordinator's replica
// currently holds. When it is the journal's committed count the export
// is a delta: the tracks the exported record's allocator state lists as
// holding data and the committed record's lists as blank (free, fresh
// or past the bump mark). That is every track the barrier changed,
// because the checkpoint discipline never rewrites a track the last
// barrier lists before the next one. Any other base gets a full
// snapshot. The store must be quiesced — ExportSnapshot is only valid
// between a Prepare (or commit) and the next superstep's first write,
// which is when the cluster worker calls it.
func (n *NodeEngine) ExportSnapshot(base int) (*NodeSnapshot, error) {
	last, committed := n.jrn.Records()
	manifest, version := last, committed
	if n.jrn.HasPending() {
		manifest, version = n.jrn.Pending(), committed+1
	} else if version == 0 {
		return nil, fmt.Errorf("core: nothing committed or prepared to export")
	}
	snap := &NodeSnapshot{Version: version, Full: true, Base: -1, Manifest: append([]uint64(nil), manifest...)}
	st, _, err := n.readManifest(manifest)
	if err != nil {
		return nil, err
	}
	var before [][]bool // blankTracks at the replica's barrier; nil — all blank — for a full snapshot
	if base >= 0 && base == committed {
		snap.Full, snap.Base = false, base
		if committed > 0 {
			prev, _, err := n.readManifest(last)
			if err != nil {
				return nil, err
			}
			before = blankTracks(prev)
		}
	}
	for d, blank := range blankTracks(st) {
		for t, b := range blank {
			if b || d < len(before) && t < len(before[d]) && !before[d][t] {
				continue // blank now, or unchanged since the replica's barrier
			}
			img, err := n.ps.chain.ExportTrack(d, t)
			if err != nil {
				return nil, err
			}
			snap.Tracks = append(snap.Tracks, TrackImage{Disk: d, Track: t, Payload: img})
		}
	}
	return snap, nil
}

// blankTracks marks, per drive and track below the bump mark, whether a
// store state lists the track as free or fresh; the tracks past the mark
// are blank too.
func blankTracks(st disk.StoreState) [][]bool {
	blank := make([][]bool, len(st.Next))
	for d, next := range st.Next {
		blank[d] = make([]bool, next)
		for _, t := range st.Free[d] {
			blank[d][t] = true
		}
		if st.Fresh != nil {
			for _, t := range st.Fresh[d] {
				blank[d][t] = true
			}
		}
	}
	return blank
}

// AdoptNode re-materializes node nodeID at dir from a full snapshot —
// the migration path for a worker whose own state is gone. The
// directory is wiped, the drive files are rebuilt from the snapshot's
// track images, and the journal is seeded to the snapshot's committed
// record count so the rejoin reconciliation sees exactly the barrier
// the replica captured. The snapshot's manifest fingerprint must match
// the one derived from (cfg, opts, nodeID) — adopting another node's
// (or another run's) state is refused before anything touches disk.
func AdoptNode(p bsp.Program, cfg MachineConfig, opts Options, nodeID int, dir string, snap *NodeSnapshot) (*NodeEngine, error) {
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
	if !snap.Full {
		return nil, fmt.Errorf("core: AdoptNode needs a full snapshot, got a delta on base %d", snap.Base)
	}
	if snap.Version < 1 {
		return nil, fmt.Errorf("core: AdoptNode of snapshot with no committed barrier")
	}
	n := &NodeEngine{sh: newSimShape(p, cfg, opts), dir: dir}
	n.fpr = nodeFingerprint(cfg, opts, n.sh.v, n.sh.mu, n.sh.gamma, nodeID)
	if len(snap.Manifest) < 2 || snap.Manifest[0] != manifestNodeKind || snap.Manifest[1] != n.fpr {
		return nil, fmt.Errorf("core: snapshot manifest fingerprint does not match node %d of this run", nodeID)
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	ps, err := n.sh.newProcState(nodeID, procDir(dir, nodeID), false)
	if err != nil {
		return nil, err
	}
	ps.ckptOn = true
	n.ps = ps
	for _, t := range snap.Tracks {
		if t.Payload == nil {
			continue // a fresh store is blank everywhere
		}
		if err := ps.chain.ImportTrack(t.Disk, t.Track, t.Payload); err != nil {
			ps.chain.Close()
			return nil, err
		}
	}
	// Track data must be durable before the seeded journal claims the
	// barrier committed — the same write-ahead discipline as Prepare.
	if err := ps.chain.Sync(); err != nil {
		ps.chain.Close()
		return nil, err
	}
	jrn, err := journal.Seed(dir, snap.Version, snap.Manifest)
	if err != nil {
		ps.chain.Close()
		return nil, err
	}
	jrn.SetTracer(n.sh.tr, nodeID)
	n.jrn = jrn
	if err := n.LoadCommitted(); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}
