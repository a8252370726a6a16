package cluster

// White-box tests for the ReplicaStore: apply/load roundtrips, delta
// discipline, and the crash-marker contract that keeps a torn replica
// from ever being trusted.

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"embsp/internal/core"
	"embsp/internal/disk"
)

const (
	replD = 2
	replB = 4
)

func replTrack(fill uint64) []uint64 {
	ws := make([]uint64, replB)
	for i := range ws {
		ws[i] = fill + uint64(i)
	}
	return ws
}

func openReplicasTest(t *testing.T) *ReplicaStore {
	t.Helper()
	r, err := OpenReplicas(t.TempDir(), 2, replD, replB)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestReplicaApplyLoadRoundtrip(t *testing.T) {
	r := openReplicasTest(t)
	if v := r.Version(0); v != 0 {
		t.Fatalf("fresh replica version %d, want 0", v)
	}
	if r.Restorable(0, 0) {
		t.Fatal("an empty replica must not be restorable (version 0 is pre-setup)")
	}
	full := &core.NodeSnapshot{
		Version: 1, Full: true, Base: -1,
		Manifest: []uint64{7, 11, 13, 17, 19}, // >1 word: pins the meta codec's length accounting
		Tracks: []core.TrackImage{
			{Disk: 0, Track: 0, Payload: replTrack(100)},
			{Disk: 1, Track: 2, Payload: replTrack(200)},
		},
	}
	if err := r.Apply(0, full); err != nil {
		t.Fatal(err)
	}
	// A delta on the matching base: one changed track, one deletion.
	delta := &core.NodeSnapshot{
		Version: 2, Base: 1,
		Manifest: []uint64{7, 11, 23, 29, 31},
		Tracks: []core.TrackImage{
			{Disk: 0, Track: 0, Payload: replTrack(300)},
			{Disk: 1, Track: 2, Payload: nil}, // wiped at barrier 2
		},
	}
	if err := r.Apply(0, delta); err != nil {
		t.Fatal(err)
	}
	if !r.Restorable(0, 2) || r.Restorable(0, 1) {
		t.Fatalf("replica restorable(2)=%v restorable(1)=%v, want true/false", r.Restorable(0, 2), r.Restorable(0, 1))
	}
	snap, err := r.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 || !snap.Full {
		t.Fatalf("loaded version %d full=%v, want 2/full", snap.Version, snap.Full)
	}
	if len(snap.Manifest) != 5 || snap.Manifest[4] != 31 {
		t.Fatalf("manifest %v did not survive the meta roundtrip", snap.Manifest)
	}
	if len(snap.Tracks) != 1 || snap.Tracks[0].Disk != 0 || snap.Tracks[0].Track != 0 {
		t.Fatalf("loaded tracks %+v, want exactly the surviving (0,0)", snap.Tracks)
	}
	if got := snap.Tracks[0].Payload[0]; got != 300 {
		t.Fatalf("track (0,0) payload starts %d, want the delta's 300", got)
	}

	// The durable state must survive a reopen (a coordinator restart).
	r2 := &ReplicaStore{root: r.root, p: r.p, d: r.d, b: r.b, nodes: make([]replicaNode, r.p)}
	for i := 0; i < r.p; i++ {
		r2.nodes[i] = r2.assess(i)
	}
	if !r2.Restorable(0, 2) {
		t.Fatalf("reopened replica version %d, want restorable at 2", r2.Version(0))
	}
}

// TestReplicaMetaDeterministic: the meta file's (disk, track, checksum)
// table is written by drive, then track, so two replicas fed the same
// snapshots hold the same bytes.
func TestReplicaMetaDeterministic(t *testing.T) {
	full := &core.NodeSnapshot{Version: 1, Full: true, Base: -1, Manifest: []uint64{5}}
	delta := &core.NodeSnapshot{Version: 2, Base: 1, Manifest: []uint64{6}}
	for i := 0; i < 48; i++ {
		img := core.TrackImage{Disk: (i * 7) % replD, Track: (i * 13) % 48, Payload: replTrack(uint64(i))}
		if i%2 == 0 {
			full.Tracks = append(full.Tracks, img)
		} else {
			delta.Tracks = append(delta.Tracks, img)
		}
	}
	var metas [2][]byte
	for k := range metas {
		r := openReplicasTest(t)
		for _, snap := range []*core.NodeSnapshot{full, delta} {
			if err := r.Apply(0, snap); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if metas[k], err = os.ReadFile(r.metaPath(0)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(metas[0], metas[1]) {
		t.Fatal("two replicas fed the same snapshots hold different meta.bin bytes")
	}
}

func TestReplicaDeltaBaseMismatch(t *testing.T) {
	r := openReplicasTest(t)
	full := &core.NodeSnapshot{Version: 3, Full: true, Base: -1, Manifest: []uint64{1, 2}}
	if err := r.Apply(0, full); err != nil {
		t.Fatal(err)
	}
	wrong := &core.NodeSnapshot{Version: 5, Base: 4, Manifest: []uint64{1, 2}}
	if err := r.Apply(0, wrong); err == nil {
		t.Fatal("delta on base 4 applied over a replica at 3")
	}
	if r.Version(0) != -1 {
		t.Fatalf("after a refused delta the replica reports version %d, want -1 (invalid)", r.Version(0))
	}
	// A full snapshot re-seeds it.
	if err := r.Apply(0, &core.NodeSnapshot{Version: 5, Full: true, Base: -1, Manifest: []uint64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if !r.Restorable(0, 5) {
		t.Fatal("full snapshot did not re-validate the replica")
	}
}

func TestReplicaCrashMarkerInvalidates(t *testing.T) {
	r := openReplicasTest(t)
	full := &core.NodeSnapshot{Version: 2, Full: true, Base: -1, Manifest: []uint64{9}}
	if err := r.Apply(1, full); err != nil {
		t.Fatal(err)
	}
	// Simulate a coordinator that died mid-Apply: the marker survives.
	if err := r.setMarker(1); err != nil {
		t.Fatal(err)
	}
	r2 := &ReplicaStore{root: r.root, p: r.p, d: r.d, b: r.b, nodes: make([]replicaNode, r.p)}
	for i := 0; i < r.p; i++ {
		r2.nodes[i] = r2.assess(i)
	}
	if r2.Version(1) != -1 {
		t.Fatalf("torn replica reports version %d, want -1", r2.Version(1))
	}
	if _, err := r2.Load(1); err == nil {
		t.Fatal("torn replica loaded without complaint")
	}
	// A fresh full apply clears the marker and restores trust.
	if err := r2.Apply(1, full); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(r2.markerPath(1)); err == nil {
		t.Fatal("APPLYING marker survived a clean apply")
	}
	if !r2.Restorable(1, 2) {
		t.Fatal("replica not restorable after recovery apply")
	}
}

func TestReplicaLoadRejectsCorruptTrack(t *testing.T) {
	r := openReplicasTest(t)
	full := &core.NodeSnapshot{
		Version: 1, Full: true, Base: -1, Manifest: []uint64{3},
		Tracks: []core.TrackImage{{Disk: 0, Track: 0, Payload: replTrack(42)}},
	}
	if err := r.Apply(0, full); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte on disk; the slot checksum must catch it.
	path := r.trackPath(0, 0)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[17] ^= 0xff
	if err := os.WriteFile(path, buf, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load(0); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt track loaded; err = %v", err)
	}
}

// TestReplicaLoadRejectsStaleTrack simulates the crash the unfsynced
// track-write path is exposed to: a slot holds a self-consistent image
// (magic and slot checksum agree) that is NOT the content the
// published meta table recorded — as when a newer, never-synced write
// survived in the file while the meta rename did not, or vice versa.
// The meta table is the ground truth; Load must refuse.
func TestReplicaLoadRejectsStaleTrack(t *testing.T) {
	r := openReplicasTest(t)
	full := &core.NodeSnapshot{
		Version: 1, Full: true, Base: -1, Manifest: []uint64{3},
		Tracks: []core.TrackImage{{Disk: 0, Track: 0, Payload: replTrack(42)}},
	}
	if err := r.Apply(0, full); err != nil {
		t.Fatal(err)
	}
	// Overwrite the slot with a different payload whose slot header is
	// internally consistent — only the meta table can tell it apart.
	stale := &core.NodeSnapshot{
		Version: 9, Full: true, Base: -1, Manifest: []uint64{3},
		Tracks: []core.TrackImage{{Disk: 0, Track: 0, Payload: replTrack(1000)}},
	}
	if err := r.applyTracks(0, stale, map[disk.Addr]uint64{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load(0); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("stale-but-self-consistent track loaded; err = %v", err)
	}
}

func TestReplicaRejectsUncommittedSnapshot(t *testing.T) {
	r := openReplicasTest(t)
	if err := r.Apply(0, &core.NodeSnapshot{Version: 0, Full: true, Base: -1}); err == nil {
		t.Fatal("snapshot with no committed barrier applied")
	}
}
