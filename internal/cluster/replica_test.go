package cluster

// White-box tests for the ReplicaStore: apply/load roundtrips, the
// delta discipline, and what a damaged replica directory reads as. The
// crash windows inside an apply are held by core's
// TestReplicaApplyStopsAtEveryStep.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/core"
	"embsp/internal/disk"
)

// replProg on replCfg is a two-node run whose nodes each simulate their
// VPs in two batches.
var (
	replProg = &bsptest.RandomProgram{V: 16, Steps: 6, MsgsPerStep: 3, MaxLen: 6}
	replCfg  = core.MachineConfig{
		P: 2, M: 16, D: 2, B: 8, G: 10,
		Cost: bsp.CostParams{GUnit: 1, GPkt: 2, Pkt: 8, L: 5},
	}
	replOpts = core.Options{Seed: 3}
)

// nodeBarriers drives node 0 alone through its set-up and steps
// supersteps — the blocks it sends node 1 are dropped and it receives
// none, which is all the same to a replica — and returns, per barrier,
// the node's full snapshot and its delta on the barrier before.
func nodeBarriers(t *testing.T, steps int) (fulls, deltas []*core.NodeSnapshot) {
	t.Helper()
	n, err := core.OpenNode(replProg, replCfg, replOpts, 0, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	barrier := func() {
		full, err := n.ExportSnapshot(-1)
		if err != nil {
			t.Fatal(err)
		}
		delta, err := n.ExportSnapshot(n.Committed())
		if err != nil {
			t.Fatal(err)
		}
		fulls, deltas = append(fulls, full), append(deltas, delta)
		if err := n.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Setup(); err != nil {
		t.Fatal(err)
	}
	barrier()
	for step := 0; step < steps; step++ {
		n.BeginStep()
		for r := 0; r < n.Batches(); r++ {
			j := r // the driver's snake order: down in even supersteps
			if step%2 == 0 {
				j = n.Batches() - 1 - r
			}
			if _, err := n.Compute(j, step); err != nil {
				t.Fatal(err)
			}
			if err := n.Write(j, step, make([]core.BlockBatch, replCfg.P)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := n.Prepare(step, false); err != nil {
			t.Fatal(err)
		}
		barrier()
	}
	return fulls, deltas
}

func openReplicasTest(t *testing.T) *ReplicaStore {
	t.Helper()
	return OpenReplicas(t.TempDir(), replProg, replCfg, replOpts)
}

func mustApply(t *testing.T, r *ReplicaStore, snaps ...*core.NodeSnapshot) {
	t.Helper()
	for _, snap := range snaps {
		if err := r.Apply(0, snap); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReplicaApplyLoadRoundtrip(t *testing.T) {
	fulls, deltas := nodeBarriers(t, 3)
	r := openReplicasTest(t)
	if v := r.Version(0); v != 0 {
		t.Fatalf("fresh replica version %d, want 0", v)
	}
	if r.Restorable(0, 0) {
		t.Fatal("an empty replica must not be restorable (version 0 is pre-setup)")
	}
	mustApply(t, r, fulls[1], deltas[2], deltas[3])
	if !r.Restorable(0, 4) || r.Restorable(0, 3) {
		t.Fatalf("replica restorable(4)=%v restorable(3)=%v, want true/false", r.Restorable(0, 4), r.Restorable(0, 3))
	}
	snap, err := r.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, fulls[3]) {
		t.Fatalf("the replica loads barrier %d with %d tracks, the node's barrier %d has %d", snap.Version, len(snap.Tracks), fulls[3].Version, len(fulls[3].Tracks))
	}
	// The durable state must survive a reopen (a coordinator restart).
	if r2 := OpenReplicas(r.root, replProg, replCfg, replOpts); !r2.Restorable(0, 4) {
		t.Fatalf("reopened replica version %d, want restorable at 4", r2.Version(0))
	}
	// So must the set-up's delta on the empty barrier, which holds every
	// track.
	r3 := openReplicasTest(t)
	mustApply(t, r3, deltas[0], deltas[1])
	if snap, err := r3.Load(0); err != nil || !reflect.DeepEqual(snap, fulls[1]) {
		t.Fatalf("a replica folded from the set-up's delta loads %v, %v", snap, err)
	}
}

// TestReplicaMetaDeterministic: two replicas fed the same snapshots hold
// byte-identical directories.
func TestReplicaMetaDeterministic(t *testing.T) {
	fulls, deltas := nodeBarriers(t, 4)
	var trees [2]map[string][]byte
	for k := range trees {
		r := openReplicasTest(t)
		mustApply(t, r, deltas...)
		mustApply(t, r, fulls[4])
		trees[k] = map[string][]byte{}
		err := filepath.WalkDir(r.root, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(r.root, path)
			trees[k][rel], err = os.ReadFile(path)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(trees[0]) == 0 || !reflect.DeepEqual(trees[0], trees[1]) {
		t.Fatal("two replicas fed the same snapshots hold different bytes")
	}
}

func TestReplicaDeltaBaseMismatch(t *testing.T) {
	fulls, deltas := nodeBarriers(t, 4)
	r := openReplicasTest(t)
	mustApply(t, r, fulls[2])
	if err := r.Apply(0, deltas[4]); err == nil {
		t.Fatal("delta on base 4 applied over a replica at 3")
	}
	if r.Version(0) != -1 {
		t.Fatalf("after a refused delta the replica reports version %d, want -1 (invalid)", r.Version(0))
	}
	// A full snapshot re-seeds it.
	mustApply(t, r, fulls[4])
	if !r.Restorable(0, 5) {
		t.Fatal("full snapshot did not re-validate the replica")
	}
}

// TestReplicaLoadRejectsCorruptTrack: a flipped byte in a slot the
// replica's record lists fails the slot's checksum, and so does a slot
// whose magic word is gone.
func TestReplicaLoadRejectsCorruptTrack(t *testing.T) {
	fulls, _ := nodeBarriers(t, 2)
	for _, at := range []int{16, 0} { // a payload byte, the magic word
		r := openReplicasTest(t)
		mustApply(t, r, fulls[2])
		tr := fulls[2].Tracks[0]
		path := filepath.Join(r.nodeDir(0), "proc-00", fmt.Sprintf("drive-%03d.dat", tr.Disk))
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		buf[int64(tr.Track)*int64(2+replCfg.B)*8+int64(at)] ^= 0xff
		if err := os.WriteFile(path, buf, 0o666); err != nil {
			t.Fatal(err)
		}
		var cte *disk.CorruptTrackError
		if _, err := r.Load(0); !errors.As(err, &cte) || cte.Disk != tr.Disk || cte.Track != tr.Track {
			t.Fatalf("byte %d of track (%d,%d) flipped: Load returned %v", at, tr.Disk, tr.Track, err)
		}
	}
}

func TestReplicaRejectsUncommittedSnapshot(t *testing.T) {
	r := openReplicasTest(t)
	if err := r.Apply(0, &core.NodeSnapshot{Version: 0, Full: true, Base: -1}); err == nil {
		t.Fatal("snapshot with no committed barrier applied")
	}
}

// TestReplicaRefusesImagelessTrack: a snapshot image without a payload
// is refused, by a full apply and by a delta, and a delta image may not
// land on a track its base lists.
func TestReplicaRefusesImagelessTrack(t *testing.T) {
	fulls, deltas := nodeBarriers(t, 2)
	strip := func(s *core.NodeSnapshot) *core.NodeSnapshot {
		c := *s
		c.Tracks = append([]core.TrackImage(nil), s.Tracks...)
		c.Tracks[0].Payload = nil
		return &c
	}
	r := openReplicasTest(t)
	if err := r.Apply(0, strip(fulls[1])); err == nil {
		t.Fatal("a full snapshot with an imageless track applied")
	}
	mustApply(t, r, fulls[1])
	if err := r.Apply(0, strip(deltas[2])); err == nil {
		t.Fatal("a delta with an imageless track applied")
	}
	mustApply(t, r, fulls[1])
	over := *deltas[2]
	over.Tracks = append([]core.TrackImage{{Disk: fulls[1].Tracks[0].Disk, Track: fulls[1].Tracks[0].Track, Payload: fulls[1].Tracks[0].Payload}}, deltas[2].Tracks...)
	if err := r.Apply(0, &over); err == nil {
		t.Fatal("a delta that overwrites a track of its base applied")
	}
	if snap, err := OpenReplicas(r.root, replProg, replCfg, replOpts).Load(0); err != nil || !reflect.DeepEqual(snap, fulls[1]) {
		t.Fatalf("a refused delta left the replica loading %v, %v; want its base", snap, err)
	}
}
