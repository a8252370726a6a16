package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"embsp/internal/core"
	"embsp/internal/disk"
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
// The store is validated, not fsynced — replication must stay off the
// run's fsync path (the worker journals' own 2PC fsyncs share the
// filesystem). The meta record carries a checksum over itself and a
// checksum for every live track; Load verifies the on-disk tracks are
// exactly the meta table's set, payload by payload. A crash can
// therefore leave the replica *invalid* (torn meta, stale tracks — a
// full snapshot re-seeds it at the next barrier, or the loud
// divergence error fires if a migration needed it first) but never
// wrong. Survival of a coordinator process crash rides on the page
// cache plus tmp+rename atomicity and the APPLYING marker; a
// coordinator machine crash may lose the replica entirely, which is a
// double fault — worker state and its replica on different machines is
// the deployment assumption, mirroring what the paper's c-copy track
// replication assumes of independent disks.
//
// On disk, one directory per node under root:
//
//	node-<i>/meta.bin        — [magic, version, nmanifest, manifest...,
//	                           ntracks, (disk, track, checksum)...,
//	                           checksum], replaced atomically
//	node-<i>/tracks-<d>.dat  — slot files mirroring the disk store's
//	                           layout: [magic, checksum, B words] per
//	                           track; a slot without its magic word is
//	                           blank
//	node-<i>/APPLYING        — crash marker; its existence means the
//	                           track files and meta.bin may disagree
//
// A replica is only ever read for restore when it is clean (no
// marker, intact meta, tracks matching the meta table) and at exactly
// the coordinator's committed barrier; anything less falls back to the
// loud PR 7 divergence error.
type ReplicaStore struct {
	root  string
	p     int
	d, b  int
	nodes []replicaNode
}

type replicaNode struct {
	valid   bool
	version int
	// table is the checksum of every live track, mirrored durably in
	// meta.bin — the ground truth Load verifies payloads against.
	table map[disk.Addr]uint64
}

const (
	replMetaMagic  = 0x454d4252504d4554 // "EMBRPMET"
	replTrackMagic = 0x454d4252504c5452 // "EMBRPLTR"
)

// OpenReplicas opens (or creates) the replica store for p nodes with
// D-drive, B-word-block geometry under root. Nodes whose directories
// hold a crash marker or damaged metadata open invalid: they report
// version -1 until a full snapshot re-seeds them.
func OpenReplicas(root string, p, d, b int) (*ReplicaStore, error) {
	r := &ReplicaStore{root: root, p: p, d: d, b: b, nodes: make([]replicaNode, p)}
	for i := 0; i < p; i++ {
		if err := os.MkdirAll(r.nodeDir(i), 0o777); err != nil {
			return nil, err
		}
		r.nodes[i] = r.assess(i)
	}
	return r, nil
}

func (r *ReplicaStore) nodeDir(i int) string {
	return filepath.Join(r.root, fmt.Sprintf("node-%d", i))
}
func (r *ReplicaStore) metaPath(i int) string {
	return filepath.Join(r.nodeDir(i), "meta.bin")
}
func (r *ReplicaStore) markerPath(i int) string {
	return filepath.Join(r.nodeDir(i), "APPLYING")
}
func (r *ReplicaStore) trackPath(i, d int) string {
	return filepath.Join(r.nodeDir(i), fmt.Sprintf("tracks-%03d.dat", d))
}
func (r *ReplicaStore) slotBytes() int64 { return int64(2+r.b) * 8 }

// assess classifies a node's on-disk replica at open time.
func (r *ReplicaStore) assess(i int) replicaNode {
	if _, err := os.Stat(r.markerPath(i)); err == nil {
		return replicaNode{} // crashed mid-apply: torn
	}
	if _, err := os.Stat(r.metaPath(i)); errors.Is(err, os.ErrNotExist) {
		return replicaNode{valid: true, version: 0, table: map[disk.Addr]uint64{}} // empty replica
	}
	version, _, table, err := r.readMeta(i)
	if err != nil {
		return replicaNode{}
	}
	return replicaNode{valid: true, version: version, table: table}
}

// Version reports the committed barrier node i's replica holds: 0 for
// a clean empty replica, -1 for an invalid one (the worker must ship a
// full snapshot).
func (r *ReplicaStore) Version(i int) int {
	if !r.nodes[i].valid {
		return -1
	}
	return r.nodes[i].version
}

// Restorable reports whether node i can be re-materialized at barrier
// version from this replica.
func (r *ReplicaStore) Restorable(i, version int) bool {
	return r.nodes[i].valid && r.nodes[i].version == version && version >= 1
}

func (r *ReplicaStore) readMeta(i int) (version int, manifest []uint64, table map[disk.Addr]uint64, err error) {
	buf, err := os.ReadFile(r.metaPath(i))
	if err != nil {
		return 0, nil, nil, err
	}
	damaged := fmt.Errorf("cluster: replica %d: damaged metadata", i)
	if len(buf) < 40 || len(buf)%8 != 0 || binary.LittleEndian.Uint64(buf[0:]) != replMetaMagic {
		return 0, nil, nil, damaged
	}
	nw := len(buf)/8 - 2 // words between magic and checksum
	ws := make([]uint64, nw)
	for j := range ws {
		ws[j] = binary.LittleEndian.Uint64(buf[8+8*j:])
	}
	if disk.Checksum(ws) != binary.LittleEndian.Uint64(buf[len(buf)-8:]) {
		return 0, nil, nil, fmt.Errorf("cluster: replica %d: metadata fails its checksum", i)
	}
	version = int(ws[0])
	nm := int(ws[1])
	if nm < 0 || 2+nm+1 > nw {
		return 0, nil, nil, damaged
	}
	manifest = ws[2 : 2+nm]
	nt := int(ws[2+nm])
	if nt < 0 || 3+nm+3*nt != nw {
		return 0, nil, nil, damaged
	}
	table = make(map[disk.Addr]uint64, nt)
	for j := 0; j < nt; j++ {
		e := ws[3+nm+3*j:]
		table[disk.Addr{Disk: int(e[0]), Track: int(e[1])}] = e[2]
	}
	return version, manifest, table, nil
}

func (r *ReplicaStore) writeMeta(i, version int, manifest []uint64, table map[disk.Addr]uint64) error {
	ws := make([]uint64, 0, 3+len(manifest)+3*len(table))
	ws = append(ws, uint64(version), uint64(len(manifest)))
	ws = append(ws, manifest...)
	ws = append(ws, uint64(len(table)))
	for _, a := range disk.SortedAddrs(table) { // by drive, then track: the meta file is deterministic
		ws = append(ws, uint64(a.Disk), uint64(a.Track), table[a])
	}
	buf := make([]byte, 8*(2+len(ws)))
	binary.LittleEndian.PutUint64(buf[0:], replMetaMagic)
	for j, w := range ws {
		binary.LittleEndian.PutUint64(buf[8+8*j:], w)
	}
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], disk.Checksum(ws))
	tmp := r.metaPath(i) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, r.metaPath(i))
}

// setMarker / clearMarker deliberately skip fsync: the marker guards
// against a coordinator process dying mid-apply (page cache survives);
// a whole-machine crash is covered by Load's verify against the meta
// table, so the marker's own durability buys nothing.
func (r *ReplicaStore) setMarker(i int) error {
	f, err := os.OpenFile(r.markerPath(i), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	return f.Close()
}

func (r *ReplicaStore) clearMarker(i int) error {
	return os.Remove(r.markerPath(i))
}

// Apply folds one node's shipped snapshot into its replica. A full
// snapshot rebuilds the replica from nothing; a delta requires a clean
// replica at exactly the snapshot's base. Any failure (including a
// base mismatch) leaves the replica invalid — never torn-but-trusted —
// and the error tells the coordinator to request a full snapshot at
// the next barrier.
func (r *ReplicaStore) Apply(i int, snap *core.NodeSnapshot) error {
	if snap.Version < 1 {
		return fmt.Errorf("cluster: replica %d: snapshot with no committed barrier", i)
	}
	if !snap.Full && (!r.nodes[i].valid || snap.Base != r.nodes[i].version) {
		r.nodes[i].valid = false
		return fmt.Errorf("cluster: replica %d: delta on base %d does not fit replica at %d", i, snap.Base, r.Version(i))
	}
	table := r.nodes[i].table
	if snap.Full || table == nil {
		table = map[disk.Addr]uint64{}
	}
	r.nodes[i].valid = false
	if err := r.setMarker(i); err != nil {
		return err
	}
	if err := r.applyTracks(i, snap, table); err != nil {
		return err
	}
	if err := r.writeMeta(i, snap.Version, snap.Manifest, table); err != nil {
		return err
	}
	if err := r.clearMarker(i); err != nil {
		return err
	}
	r.nodes[i] = replicaNode{valid: true, version: snap.Version, table: table}
	return nil
}

// applyTracks lands the snapshot's payloads in the per-drive slot
// files — unfsynced; the meta table written after it is the durability
// point — and updates table to match.
func (r *ReplicaStore) applyTracks(i int, snap *core.NodeSnapshot, table map[disk.Addr]uint64) error {
	files := make(map[int]*os.File)
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	open := func(d int) (*os.File, error) {
		if f, ok := files[d]; ok {
			return f, nil
		}
		flags := os.O_RDWR | os.O_CREATE
		f, err := os.OpenFile(r.trackPath(i, d), flags, 0o666)
		if err != nil {
			return nil, err
		}
		if snap.Full {
			if err := f.Truncate(0); err != nil {
				f.Close()
				return nil, err
			}
		}
		files[d] = f
		return f, nil
	}
	if snap.Full {
		// Truncate every drive file, including ones this snapshot has
		// no tracks for — stale slots must not survive a reseed.
		for d := 0; d < r.d; d++ {
			if _, err := open(d); err != nil {
				return err
			}
		}
	}
	slotB := r.slotBytes()
	buf := make([]byte, slotB)
	for _, t := range snap.Tracks {
		if t.Disk < 0 || t.Disk >= r.d || t.Track < 0 {
			return fmt.Errorf("cluster: replica %d: track (%d,%d) out of range", i, t.Disk, t.Track)
		}
		f, err := open(t.Disk)
		if err != nil {
			return err
		}
		if t.Payload == nil {
			var zero [8]byte
			if _, err := f.WriteAt(zero[:], int64(t.Track)*slotB); err != nil {
				return err
			}
			delete(table, disk.Addr{Disk: t.Disk, Track: t.Track})
			continue
		}
		if len(t.Payload) != r.b {
			return fmt.Errorf("cluster: replica %d: track (%d,%d) payload has %d words, want B=%d", i, t.Disk, t.Track, len(t.Payload), r.b)
		}
		sum := disk.Checksum(t.Payload)
		binary.LittleEndian.PutUint64(buf[0:], replTrackMagic)
		binary.LittleEndian.PutUint64(buf[8:], sum)
		for j, w := range t.Payload {
			binary.LittleEndian.PutUint64(buf[16+8*j:], w)
		}
		if _, err := f.WriteAt(buf, int64(t.Track)*slotB); err != nil {
			return err
		}
		table[disk.Addr{Disk: t.Disk, Track: t.Track}] = sum
	}
	return nil
}

// Load reads node i's replica back as a full snapshot, for seeding a
// fresh or spare worker. It refuses anything but a clean replica and
// verifies the on-disk tracks are exactly the meta table's set, each
// payload matching its recorded checksum — which is what catches track
// data the unfsynced apply path left stale or torn across a crash.
func (r *ReplicaStore) Load(i int) (*core.NodeSnapshot, error) {
	if !r.nodes[i].valid || r.nodes[i].version < 1 {
		return nil, fmt.Errorf("cluster: replica %d is not restorable (version %d)", i, r.Version(i))
	}
	version, manifest, table, err := r.readMeta(i)
	if err != nil {
		return nil, err
	}
	snap := &core.NodeSnapshot{Version: version, Full: true, Base: -1, Manifest: manifest}
	slotB := r.slotBytes()
	buf := make([]byte, slotB)
	for d := 0; d < r.d; d++ {
		f, err := os.Open(r.trackPath(i, d))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		for t := int64(0); t*slotB < st.Size(); t++ {
			n, err := f.ReadAt(buf, t*slotB)
			if err != nil && err != io.EOF {
				f.Close()
				return nil, err
			}
			want, live := table[disk.Addr{Disk: d, Track: int(t)}]
			if n < 8 || binary.LittleEndian.Uint64(buf[0:]) != replTrackMagic {
				if live {
					f.Close()
					return nil, fmt.Errorf("cluster: replica %d: slot (%d,%d) is blank but the meta table lists it", i, d, t)
				}
				continue // blank or wiped slot
			}
			if !live {
				continue // stale leftover past the published meta; the table is the truth
			}
			if n < int(slotB) {
				f.Close()
				return nil, fmt.Errorf("cluster: replica %d: torn slot (%d,%d)", i, d, t)
			}
			payload := make([]uint64, r.b)
			for j := range payload {
				payload[j] = binary.LittleEndian.Uint64(buf[16+8*j:])
			}
			if disk.Checksum(payload) != want {
				f.Close()
				return nil, fmt.Errorf("cluster: replica %d: slot (%d,%d) fails its checksum", i, d, t)
			}
			snap.Tracks = append(snap.Tracks, core.TrackImage{Disk: d, Track: int(t), Payload: payload})
		}
		f.Close()
	}
	if len(snap.Tracks) != len(table) {
		return nil, fmt.Errorf("cluster: replica %d: %d tracks on disk, meta table lists %d", i, len(snap.Tracks), len(table))
	}
	return snap, nil
}

// Invalidate marks node i's replica untrusted in memory; the next
// Apply must be a full snapshot. Used when a shipped snapshot fails
// validation above the store layer.
func (r *ReplicaStore) Invalidate(i int) { r.nodes[i].valid = false }
