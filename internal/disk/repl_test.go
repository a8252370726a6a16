package disk

import (
	"reflect"
	"testing"
)

// TestExportImportTrackRoundtrip drives the raw side-effect-free path
// the replica store uses: export after Sync sees committed payloads,
// blank tracks export as nil, import seeds a fresh store bitwise and
// ends the imported track's fresh state, and a nil import is refused.
func TestExportImportTrackRoundtrip(t *testing.T) {
	const D, B = 2, 8
	f := newFileTest(t, D, B)
	tr := f.Alloc(0)
	payload := track(B, 77)
	if err := f.WriteOp([]WriteReq{{Disk: 0, Track: tr, Src: payload}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	stats := f.Stats()
	got, err := f.ExportTrack(0, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, payload) {
		t.Fatalf("ExportTrack = %v, want %v", got, payload)
	}
	if !reflect.DeepEqual(f.Stats(), stats) {
		t.Fatal("ExportTrack perturbed the model statistics; replication must be accounting-invisible")
	}
	// A never-written track within the bump mark is blank: nil, no error.
	t2 := f.Alloc(0)
	if blank, err := f.ExportTrack(0, t2); err != nil || blank != nil {
		t.Fatalf("blank track exported (%v, %v), want (nil, nil)", blank, err)
	}

	// Import into a second store and read it back through the front door.
	g := newFileTest(t, D, B)
	gt := g.Alloc(0) // raise the bump mark so the slot is in range
	if gt != tr {
		t.Fatalf("allocator gave track %d, want %d (fresh stores allocate identically)", gt, tr)
	}
	if err := g.ImportTrack(0, tr, payload); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, B)
	if err := g.ReadOp([]ReadReq{{Disk: 0, Track: tr, Dst: dst}}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst, payload) {
		t.Fatalf("imported track reads back %v, want %v", dst, payload)
	}
	if st := g.State(); st.Fresh != nil {
		t.Errorf("imported track still listed fresh: %v", st.Fresh)
	}
	// An import carries B words; nil clears nothing and is refused.
	if err := g.ImportTrack(0, tr, nil); err == nil {
		t.Fatal("nil ImportTrack accepted")
	}
	if got, err := g.ExportTrack(0, tr); err != nil || !reflect.DeepEqual(got, payload) {
		t.Fatalf("track after a refused nil import exported (%v, %v), want %v", got, err, payload)
	}
}

func TestExportImportTrackRejectsBadArgs(t *testing.T) {
	const D, B = 2, 8
	f := newFileTest(t, D, B)
	if _, err := f.ExportTrack(D, 0); err == nil {
		t.Error("ExportTrack beyond D accepted")
	}
	if _, err := f.ExportTrack(0, -1); err == nil {
		t.Error("ExportTrack with negative track accepted")
	}
	if err := f.ImportTrack(D, 0, track(B, 1)); err == nil {
		t.Error("ImportTrack beyond D accepted")
	}
	if err := f.ImportTrack(0, 0, track(B-1, 1)); err == nil {
		t.Error("ImportTrack with a short payload accepted")
	}
	if err := f.ImportTrack(0, 0, nil); err == nil {
		t.Error("ImportTrack with a nil payload accepted")
	}
}
