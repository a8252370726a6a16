package disk

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestReadFailureRollsBack pins the failure path the file store's
// worker schedule and the tier shim share with the synchronous store: when
// the k-th request of a D-wide ReadOp hits a torn slot, the call
// returns *CorruptTrackError and leaves the model exactly where the
// synchronous file store leaves it — requests before k accounted, the
// rest refunded. Every store runs the same script: write one stripe,
// make it durable, tear one slot behind the store's back, optionally
// hint the stripe to the file store, read it.
func TestReadFailureRollsBack(t *testing.T) {
	const D, B = 4, 8
	stores := []struct {
		name string
		lat  time.Duration
		tier bool
	}{
		{"file", 0, false},
		{"file-workers", 20 * time.Microsecond, false},
		{"tier-over-file", 0, true},
		{"tier-over-file-workers", 20 * time.Microsecond, true},
	}
	for k := 0; k < D; k++ {
		var want *StoreState // the synchronous file store's
		for _, st := range stores {
			for _, hint := range []bool{false, true} {
				t.Run(fmt.Sprintf("k=%d/%s/hint=%v", k, st.name, hint), func(t *testing.T) {
					dir := t.TempDir()
					f, err := OpenFileOpts(dir, Config{D: D, B: B}, false, FileOptions{AccessLatency: st.lat})
					if err != nil {
						t.Fatal(err)
					}
					var s Store = f
					if st.tier {
						s = NewTier(f, TierOptions{})
					}
					defer s.Close()

					// Drives in reverse, so request k is on drive D-1-k.
					addrs, w, r := stripe(s, 5, 3, 2, 1, 0)
					if err := s.WriteOp(w); err != nil {
						t.Fatal(err)
					}
					if err := s.Sync(); err != nil {
						t.Fatal(err)
					}
					torn := addrs[k]
					fh, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("drive-%03d.dat", torn.Disk)), os.O_RDWR, 0)
					if err != nil {
						t.Fatal(err)
					}
					// The slot's last byte lies in its payload.
					if _, err := fh.WriteAt([]byte{0xFF}, int64(torn.Track+1)*slotBytes(B)-1); err != nil {
						t.Fatal(err)
					}
					fh.Close()
					if hint {
						f.Prefetch(addrs)
					}

					err = s.ReadOp(r)
					var ce *CorruptTrackError
					if !errors.As(err, &ce) || ce.Disk != torn.Disk || ce.Track != torn.Track {
						t.Fatalf("ReadOp = %v, want *CorruptTrackError for (%d,%d)", err, torn.Disk, torn.Track)
					}
					got := s.State()
					if want == nil {
						for i, a := range addrs {
							reads := int64(0)
							if i < k {
								reads = 1
							}
							if n := got.Stats.PerDrive[a.Disk].BlocksRead; n != reads {
								t.Errorf("request %d (drive %d): %d blocks read accounted, want %d", i, a.Disk, n, reads)
							}
						}
						if got.Stats.ReadOps != 0 {
							t.Errorf("failed read committed %d read ops, want 0", got.Stats.ReadOps)
						}
						want = &got
						return
					}
					if !reflect.DeepEqual(got, *want) {
						t.Errorf("State after the failed read:\n got %+v\nwant %+v (the synchronous file store's)", got, *want)
					}
				})
			}
		}
	}
}
