package disk

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"embsp/internal/prng"
)

func newFileTest(t *testing.T, d, b int) *File {
	t.Helper()
	f, err := OpenFile(t.TempDir(), Config{D: d, B: b}, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func track(b int, fill uint64) []uint64 {
	ws := make([]uint64, b)
	for i := range ws {
		ws[i] = fill + uint64(i)
	}
	return ws
}

// TestFileMatchesArray drives a File and an Array through an identical
// random operation sequence and checks that data, statistics and
// allocator state stay bitwise equal — the property the durable
// engines rely on for resumed-vs-uninterrupted result identity.
func TestFileMatchesArray(t *testing.T) {
	const D, B = 3, 16
	f := newFileTest(t, D, B)
	a := MustNewArray(Config{D: D, B: B})
	r := prng.New(11)
	type addr struct{ d, t int }
	var live []addr
	for op := 0; op < 400; op++ {
		switch {
		case len(live) > 0 && r.Intn(4) == 0: // release
			i := r.Intn(len(live))
			ad := live[i]
			live = append(live[:i], live[i+1:]...)
			if err := f.Release(ad.d, ad.t); err != nil {
				t.Fatal(err)
			}
			if err := a.Release(ad.d, ad.t); err != nil {
				t.Fatal(err)
			}
		case len(live) > 0 && r.Intn(3) == 0: // read back and compare
			ad := live[r.Intn(len(live))]
			fw, aw := make([]uint64, B), make([]uint64, B)
			if err := f.ReadOp([]ReadReq{{Disk: ad.d, Track: ad.t, Dst: fw}}); err != nil {
				t.Fatal(err)
			}
			if err := a.ReadOp([]ReadReq{{Disk: ad.d, Track: ad.t, Dst: aw}}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fw, aw) {
				t.Fatalf("op %d: track (%d,%d) differs between File and Array", op, ad.d, ad.t)
			}
		default: // allocate and write
			d := r.Intn(D)
			ft, at := f.Alloc(d), a.Alloc(d)
			if ft != at {
				t.Fatalf("op %d: File allocated track %d, Array %d", op, ft, at)
			}
			ws := track(B, r.Uint64())
			if err := f.WriteOp([]WriteReq{{Disk: d, Track: ft, Src: ws}}); err != nil {
				t.Fatal(err)
			}
			if err := a.WriteOp([]WriteReq{{Disk: d, Track: at, Src: ws}}); err != nil {
				t.Fatal(err)
			}
			live = append(live, addr{d, ft})
		}
	}
	if !reflect.DeepEqual(f.Stats(), a.Stats()) {
		t.Errorf("statistics diverged:\nfile:  %+v\narray: %+v", f.Stats(), a.Stats())
	}
	if !reflect.DeepEqual(f.State(), a.State()) {
		t.Errorf("allocator state diverged:\nfile:  %+v\narray: %+v", f.State(), a.State())
	}
}

// TestFileReopen checks that synced track contents survive Close and a
// resume reopen, and that allocator metadata adoption reproduces the
// original store exactly.
func TestFileReopen(t *testing.T) {
	const D, B = 2, 8
	dir := t.TempDir()
	cfg := Config{D: D, B: B}
	f, err := OpenFile(dir, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	want := track(B, 42)
	tr := f.Alloc(1)
	if err := f.WriteOp([]WriteReq{{Disk: 1, Track: tr, Src: want}}); err != nil {
		t.Fatal(err)
	}
	state := f.State()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := OpenFile(dir, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.AdoptState(state); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.State(), state) {
		t.Errorf("adopted state mismatch:\ngot  %+v\nwant %+v", g.State(), state)
	}
	got := make([]uint64, B)
	if err := g.ReadOp([]ReadReq{{Disk: 1, Track: tr, Dst: got}}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("track content not preserved across reopen: got %v want %v", got, want)
	}
}

// TestFileGeometryMismatch: resuming a state directory with a
// different drive count or block size must fail up front.
func TestFileGeometryMismatch(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, Config{D: 2, B: 8}, false)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, cfg := range []Config{{D: 3, B: 8}, {D: 2, B: 16}} {
		if _, err := OpenFile(dir, cfg, true); err == nil {
			t.Errorf("resume with geometry %+v: want error, got nil", cfg)
		}
	}
	if _, err := OpenFile(t.TempDir(), Config{D: 2, B: 8}, true); err == nil {
		t.Error("resume from an empty directory: want error, got nil")
	}
}

// TestFileBlankTracks: allocated-but-never-written and released tracks
// read as zeros, regardless of stale bytes in the backing file.
func TestFileBlankTracks(t *testing.T) {
	const B = 8
	f := newFileTest(t, 1, B)
	t0 := f.Alloc(0)
	got := make([]uint64, B)
	if err := f.ReadOp([]ReadReq{{Disk: 0, Track: t0, Dst: got}}); err != nil {
		t.Fatal(err)
	}
	for _, w := range got {
		if w != 0 {
			t.Fatalf("fresh track reads %v, want zeros", got)
		}
	}
	if err := f.WriteOp([]WriteReq{{Disk: 0, Track: t0, Src: track(B, 7)}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Release(0, t0); err != nil {
		t.Fatal(err)
	}
	if t1 := f.Alloc(0); t1 != t0 {
		t.Fatalf("free list recycling broken: got track %d, want %d", t1, t0)
	}
	if err := f.ReadOp([]ReadReq{{Disk: 0, Track: t0, Dst: got}}); err != nil {
		t.Fatal(err)
	}
	for _, w := range got {
		if w != 0 {
			t.Fatalf("recycled track reads %v, want zeros", got)
		}
	}
}

// TestFileCorruptTrack flips one byte of a committed track on the real
// filesystem and checks the read reports a typed CorruptTrackError
// instead of returning damaged data.
func TestFileCorruptTrack(t *testing.T) {
	const B = 8
	dir := t.TempDir()
	f, err := OpenFile(dir, Config{D: 1, B: B}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	t0 := f.Alloc(0)
	if err := f.WriteOp([]WriteReq{{Disk: 0, Track: t0, Src: track(B, 3)}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "drive-000.dat")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // inside the track payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	err = f.ReadOp([]ReadReq{{Disk: 0, Track: t0, Dst: make([]uint64, B)}})
	var ce *CorruptTrackError
	if !errors.As(err, &ce) {
		t.Fatalf("read of corrupted track: got %v, want *CorruptTrackError", err)
	}
	if ce.Disk != 0 || ce.Track != t0 {
		t.Errorf("error names track (%d,%d), want (0,%d)", ce.Disk, ce.Track, t0)
	}
}

// TestListedTrackWithoutMagicIsCorrupt: a slot that lost its magic word
// under a track the store lists as written reads as a
// *CorruptTrackError, and exports as one, on both durable stores — never
// as the zeros of a slot never written.
func TestListedTrackWithoutMagicIsCorrupt(t *testing.T) {
	const B = 8
	cfg := Config{D: 1, B: B}
	for name, open := range map[string]func(dir string) (Backend, error){
		"file":   func(dir string) (Backend, error) { return OpenFile(dir, cfg, false) },
		"mapped": func(dir string) (Backend, error) { return OpenMapped(dir, cfg, false, MappedOptions{}) },
	} {
		dir := t.TempDir()
		s, err := open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.Alloc(0)
		t1 := s.Alloc(0)
		if err := s.WriteOp([]WriteReq{{Disk: 0, Track: t1, Src: track(B, 3)}}); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		// Clear the magic word in place: the mapped store sees the
		// drive file's bytes through its mapping.
		fh, err := os.OpenFile(filepath.Join(dir, "drive-000.dat"), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.WriteAt(make([]byte, 8), int64(t1)*slotBytes(B)); err != nil {
			t.Fatal(err)
		}
		fh.Close()
		var ce *CorruptTrackError
		err = s.ReadOp([]ReadReq{{Disk: 0, Track: t1, Dst: make([]uint64, B)}})
		if !errors.As(err, &ce) || ce.Disk != 0 || ce.Track != t1 {
			t.Errorf("%s: read of a listed track without its magic word: got %v, want *CorruptTrackError of (0,%d)", name, err, t1)
		}
		img, err := s.ExportTrack(0, t1)
		if !errors.As(err, &ce) || ce.Disk != 0 || ce.Track != t1 {
			t.Errorf("%s: export of a listed track without its magic word: got %v, %v, want *CorruptTrackError of (0,%d)", name, img, err, t1)
		}
		s.Close()
	}
}

// TestFileCloseIdempotent: Close must be callable any number of times
// (the engines close on both success and error unwind paths), and the
// store must stay usable up to the first Close. A Sync after Close
// starts no goroutine: every one the store started is gone once it
// returns.
func TestFileCloseIdempotent(t *testing.T) {
	const D, B = 2, 8
	base := runtime.NumGoroutine()
	f, err := OpenFile(t.TempDir(), Config{D: D, B: B}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteOp([]WriteReq{{Disk: 0, Track: f.Alloc(0), Src: track(B, 1)}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := f.Close(); err != nil {
			t.Fatalf("Close #%d after close: %v", i+2, err)
		}
	}
	// Sync after Close skips the nil handles rather than crashing.
	if err := f.Sync(); err != nil {
		t.Errorf("Sync after Close: %v", err)
	}
	// Goroutines an earlier test left may still be ending.
	left := runtime.NumGoroutine() - base
	for deadline := time.Now().Add(2 * time.Second); left > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		left = runtime.NumGoroutine() - base
	}
	if left > 0 {
		t.Errorf("%d goroutines outlive the Sync after Close", left)
	}
}

// TestFileOpenErrorPaths: every constructor failure must return a
// typed, actionable error and never leak open drive files (OpenFile
// closes the partially built store itself).
func TestFileOpenErrorPaths(t *testing.T) {
	if _, err := OpenFile(t.TempDir(), Config{D: 0, B: 8}, false); err == nil {
		t.Error("invalid config: want error, got nil")
	}

	// Resume of a directory that was never a store.
	if _, err := OpenFile(t.TempDir(), Config{D: 2, B: 8}, true); err == nil {
		t.Error("resume of empty directory: want error, got nil")
	}

	// A drive path occupied by a directory forces the per-drive open to
	// fail after the geometry landed; OpenFile must clean up after
	// itself and report the failure.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "drive-001.dat"), 0o777); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(dir, Config{D: 2, B: 8}, false); err == nil {
		t.Error("unopenable drive file: want error, got nil")
	}
	// drive-000.dat was opened (and must have been closed) before
	// drive-001 failed; if the close happened we can recreate freely.
	if err := os.Remove(filepath.Join(dir, "drive-000.dat")); err != nil {
		t.Fatal(err)
	}
}

// TestFileGeometryDurability: the geometry file is written atomically
// (no .tmp residue) and a rewrite of the same directory replaces it.
func TestFileGeometryDurability(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, Config{D: 2, B: 8}, false)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := os.Stat(filepath.Join(dir, "geometry.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("geometry.tmp left behind (err=%v)", err)
	}
	g, err := OpenFile(dir, Config{D: 2, B: 8}, true)
	if err != nil {
		t.Fatalf("resume with matching geometry: %v", err)
	}
	g.Close()
}
