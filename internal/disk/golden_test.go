package disk

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// Golden on-disk bytes, recorded at the commit before the slot codec
// was written once (PR 13): one encoded slot (magic | checksum |
// payload, little-endian) and the 24-byte geometry file. A state
// directory is only portable across commits while these hold.
const (
	goldenSlotHex = "314b525453424d459b3551a64939d4ed0100000000000000efbeadde0000000000000000000000800807060504030201"
	goldenGeomHex = "4d4f454747424d4502000000000000000400000000000000"
)

func TestGoldenSlotAndGeometryBytes(t *testing.T) {
	cfg := Config{D: 2, B: 4}
	payload := []uint64{1, 0xdeadbeef, 1 << 63, 0x0102030405060708}
	open := map[string]func(dir string) (Backend, error){
		"file":   func(dir string) (Backend, error) { return OpenFile(dir, cfg, false) },
		"mapped": func(dir string) (Backend, error) { return OpenMapped(dir, cfg, false, MappedOptions{}) },
	}
	for name, op := range open {
		t.Run(name, func(t *testing.T) {
			if name == "mapped" && !MmapSupported() {
				t.Skip("no mmap on this platform")
			}
			dir := t.TempDir()
			s, err := op(dir)
			if err != nil {
				t.Fatal(err)
			}
			s.Alloc(1) // track 0 stays blank; the golden slot is track 1
			tr := s.Alloc(1)
			if err := s.WriteOp([]WriteReq{{Disk: 1, Track: tr, Src: payload}}); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join(dir, "drive-001.dat"))
			if err != nil {
				t.Fatal(err)
			}
			slotB := (2 + cfg.B) * 8
			if len(raw) < 2*slotB {
				t.Fatalf("drive file has %d bytes, want at least two %d-byte slots", len(raw), slotB)
			}
			if got := hex.EncodeToString(raw[tr*slotB : (tr+1)*slotB]); got != goldenSlotHex {
				t.Errorf("encoded slot moved:\n got %s\nwant %s", got, goldenSlotHex)
			}
			geom, err := os.ReadFile(filepath.Join(dir, "geometry"))
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(geom); got != goldenGeomHex {
				t.Errorf("geometry file moved:\n got %s\nwant %s", got, goldenGeomHex)
			}
		})
	}
}
