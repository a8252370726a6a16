package core

import (
	"reflect"
	"strings"
	"testing"

	"embsp/internal/words"
)

// Codec tests for NodeSnapshot, the replication wire unit: encode and
// decode must be exact inverses (deletion markers included), WireWords
// must match the actual encoded length (it is what the replication
// byte counters charge), and a payload corrupted anywhere between the
// exporting worker and the restore must fail the per-track checksum.

func codecSnapshot() *NodeSnapshot {
	return &NodeSnapshot{
		Version:  7,
		Full:     false,
		Base:     6,
		Manifest: []uint64{3, 1, 4, 1, 5},
		Tracks: []TrackImage{
			{Disk: 0, Track: 2, Payload: []uint64{10, 20, 30}},
			{Disk: 1, Track: 0, Payload: nil}, // deletion marker
			{Disk: 1, Track: 5, Payload: []uint64{0, 0, 9}},
		},
	}
}

func TestSnapshotCodecRoundtrip(t *testing.T) {
	want := codecSnapshot()
	enc := words.NewEncoder(nil)
	want.Encode(enc)
	buf := enc.Words()
	if got := want.WireWords(); got != len(buf) {
		t.Fatalf("WireWords = %d, encoded length %d; the byte counters would lie", got, len(buf))
	}
	got, err := DecodeSnapshot(words.NewDecoder(buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip\n got %+v\nwant %+v", got, want)
	}
	if got.Tracks[1].Payload != nil {
		t.Fatal("deletion marker came back as a payload")
	}
}

func TestSnapshotCodecRejectsCorruptTrack(t *testing.T) {
	s := codecSnapshot()
	enc := words.NewEncoder(nil)
	s.Encode(enc)
	buf := enc.Words()
	// Flip one bit in the last word — part of the final track's payload —
	// and the decode must refuse rather than restore garbage.
	buf[len(buf)-1] ^= 1
	if _, err := DecodeSnapshot(words.NewDecoder(buf)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt payload decoded; err = %v", err)
	}
}

func TestSnapshotCodecRejectsBogusTrackCount(t *testing.T) {
	enc := words.NewEncoder(nil)
	enc.PutInt(1)       // Version
	enc.PutBool(true)   // Full
	enc.PutInt(-1)      // Base
	enc.PutUints(nil)   // Manifest
	enc.PutInt(1 << 40) // absurd track count
	if _, err := DecodeSnapshot(words.NewDecoder(enc.Words())); err == nil {
		t.Fatal("snapshot claiming 2^40 tracks decoded")
	}
}
