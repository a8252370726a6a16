package disk

// Fuzzing the resume surface of the file store: the geometry file and
// the drive images are exactly what a crash (or an adversary) can
// corrupt, so for arbitrary bytes in both, OpenFile(resume) must
// either refuse with an error or open a store whose reads each yield
// intact data, zeros, or a typed *CorruptTrackError — never a panic
// and never silently delivered garbage. Both physical schedules are
// exercised: the synchronous store and the worker-backed one behind
// Prefetch, so fill-path error propagation is fuzzed too.

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Fixed fuzz geometry — the seed corpus carries a matching geometry
// file so the interesting mutations happen past the open check.
const (
	fuzzD = 2
	fuzzB = 8
)

// seedStore builds a real store with three written tracks per drive
// and returns its geometry and drive-000 image bytes.
func seedStore(f *testing.F) (geom, drive0 []byte) {
	f.Helper()
	dir := f.TempDir()
	st, err := OpenFile(dir, Config{D: fuzzD, B: fuzzB}, false)
	if err != nil {
		f.Fatal(err)
	}
	src := make([]uint64, fuzzB)
	for round := 0; round < 3; round++ {
		reqs := make([]WriteReq, fuzzD)
		for d := 0; d < fuzzD; d++ {
			for i := range src {
				src[i] = uint64(round<<8 | d<<4 | i)
			}
			reqs[d] = WriteReq{Disk: d, Track: st.Alloc(d), Src: src}
		}
		if err := st.WriteOp(reqs); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		f.Fatal(err)
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	geom, err = os.ReadFile(filepath.Join(dir, "geometry"))
	if err != nil {
		f.Fatal(err)
	}
	drive0, err = os.ReadFile(filepath.Join(dir, "drive-000.dat"))
	if err != nil {
		f.Fatal(err)
	}
	return geom, drive0
}

func FuzzGeometry(f *testing.F) {
	geom, drive0 := seedStore(f)
	slotB := int((2 + fuzzB) * 8)
	f.Add(geom, drive0)
	f.Add([]byte{}, drive0)             // no geometry at all
	f.Add(geom[:8], drive0)             // truncated geometry
	f.Add(drive0[:24], drive0)          // wrong magic, right length
	f.Add(geom, drive0[:len(drive0)-9]) // torn final slot (mid-pwrite crash)
	flip := bytes.Clone(drive0)
	flip[slotB+16] ^= 0xFF // payload word of track 1: checksum must catch it
	f.Add(geom, flip)
	flip = bytes.Clone(drive0)
	flip[8] ^= 0x01 // stored checksum of track 0
	f.Add(geom, flip)
	wrongGeom := bytes.Clone(geom)
	binary.LittleEndian.PutUint64(wrongGeom[8:], 11) // claims D=11
	f.Add(wrongGeom, drive0)

	f.Fuzz(func(t *testing.T, geom, drive []byte) {
		for _, lat := range []time.Duration{0, 50 * time.Microsecond} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "geometry"), geom, 0o666); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "drive-000.dat"), drive, 0o666); err != nil {
				t.Fatal(err)
			}
			cfg := Config{D: fuzzD, B: fuzzB}
			// The worker variant gets a small emulated latency, which is
			// what starts its workers, so the hostile bytes flow through
			// the queued fill path.
			st, err := OpenFileOpts(dir, cfg, true, FileOptions{AccessLatency: lat})
			if err != nil {
				continue // refused the directory — the safe outcome
			}
			// Make every track the fuzzed image could cover reachable, as
			// an adopted resume state would.
			tracks := len(drive)/slotB + 2
			st.mu.Lock()
			for d := range st.drives {
				st.drives[d].next = tracks
			}
			st.mu.Unlock()
			addrs := make([]Addr, 0, fuzzD*tracks)
			for d := 0; d < fuzzD; d++ {
				for tr := 0; tr < tracks; tr++ {
					addrs = append(addrs, Addr{Disk: d, Track: tr})
				}
			}
			st.Prefetch(addrs) // hostile bytes through the fill path too
			dst := make([]uint64, fuzzB)
			for _, a := range addrs {
				err := st.ReadOp([]ReadReq{{Disk: a.Disk, Track: a.Track, Dst: dst}})
				if err != nil {
					if _, ok := err.(*CorruptTrackError); !ok {
						t.Fatalf("latency=%v: ReadOp(%d/%d) returned untyped error %T: %v",
							lat, a.Disk, a.Track, err, err)
					}
				}
			}
			if err := st.Close(); err != nil {
				t.Fatalf("latency=%v: Close after fuzzed reads: %v", lat, err)
			}
		}
	})
}
