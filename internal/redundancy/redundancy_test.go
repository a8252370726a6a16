package redundancy

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"embsp/internal/disk"
	"embsp/internal/words"
)

func mkStore(t *testing.T, D, B int) (*Store, *disk.Array) { return mkMode(t, Parity, D, B) }

func mkMode(t *testing.T, mode Mode, D, B int) (*Store, *disk.Array) {
	t.Helper()
	raw := disk.MustNewArray(disk.Config{D: D, B: B})
	s, err := wrap(raw, mode)
	if err != nil {
		t.Fatalf("wrap: %v", err)
	}
	return s, raw
}

// pattern fills buf with a deterministic pattern unique to (d, t).
func pattern(buf []uint64, d, t int) {
	base := uint64(d)<<40 ^ uint64(t)<<16 ^ 0x9e3779b97f4a7c15
	for i := range buf {
		buf[i] = base * uint64(i+1)
	}
}

// writeTracks allocates and writes one track per drive per round and
// returns the written addresses.
func writeTracks(t *testing.T, s *Store, D, B, rounds int) []disk.Addr {
	t.Helper()
	var addrs []disk.Addr
	buf := make([]uint64, B)
	for r := 0; r < rounds; r++ {
		var reqs []disk.WriteReq
		for d := 0; d < D; d++ {
			tr := s.Alloc(d)
			pattern(buf, d, tr)
			reqs = append(reqs, disk.WriteReq{Disk: d, Track: tr, Src: append([]uint64(nil), buf...)})
			addrs = append(addrs, disk.Addr{Disk: d, Track: tr})
		}
		if err := s.WriteOp(reqs); err != nil {
			t.Fatalf("WriteOp: %v", err)
		}
	}
	return addrs
}

func checkTrack(t *testing.T, s *Store, a disk.Addr, B int) {
	t.Helper()
	got := make([]uint64, B)
	if err := s.ReadOp([]disk.ReadReq{{Disk: a.Disk, Track: a.Track, Dst: got}}); err != nil {
		t.Fatalf("ReadOp drive %d track %d: %v", a.Disk, a.Track, err)
	}
	want := make([]uint64, B)
	pattern(want, a.Disk, a.Track)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drive %d track %d word %d: got %#x want %#x", a.Disk, a.Track, i, got[i], want[i])
		}
	}
}

func TestParityRoundTrip(t *testing.T) {
	const D, B = 4, 16
	s, _ := mkStore(t, D, B)
	addrs := writeTracks(t, s, D, B, 5)
	flushChecked(t, s)
	for _, a := range addrs {
		checkTrack(t, s, a, B)
	}
	c := s.Counters()
	if c.StripedBlocks != int64(len(addrs)) {
		t.Errorf("StripedBlocks = %d, want %d", c.StripedBlocks, len(addrs))
	}
	// Parity overhead: at most ⌈striped/(D-1)⌉ plus one open stripe per
	// drive of slack — far below the 2× of mirroring.
	maxParity := (c.StripedBlocks+int64(D-2))/int64(D-1) + int64(D)
	if c.ParityBlocks > maxParity {
		t.Errorf("ParityBlocks = %d, want <= %d (striped = %d)", c.ParityBlocks, maxParity, c.StripedBlocks)
	}
	if c.DegradedOps != 0 || c.ReconstructedBlocks != 0 {
		t.Errorf("healthy run shows degraded work: %+v", c)
	}
}

func TestDegradedRead(t *testing.T) {
	const D, B = 4, 16
	s, _ := mkStore(t, D, B)
	addrs := writeTracks(t, s, D, B, 4)
	flushChecked(t, s)
	const dead = 2
	s.DriveDied(dead)
	for _, a := range addrs {
		checkTrack(t, s, a, B)
	}
	c := s.Counters()
	if c.ReconstructedBlocks == 0 {
		t.Error("no blocks reconstructed after drive death")
	}
	if c.DegradedOps == 0 {
		t.Error("no degraded ops charged after drive death")
	}
	// A blank track on the dead drive still reads as zeros.
	tr := s.Alloc(dead)
	got := make([]uint64, B)
	if err := s.ReadOp([]disk.ReadReq{{Disk: dead, Track: tr, Dst: got}}); err != nil {
		t.Fatalf("blank read: %v", err)
	}
	for i, w := range got {
		if w != 0 {
			t.Fatalf("blank dead-drive track word %d = %#x, want 0", i, w)
		}
	}
}

// rewrite writes each of as again with content of its own (test helper).
func rewrite(s *Store, as ...disk.Addr) error {
	reqs := make([]disk.WriteReq, len(as))
	for i, a := range as {
		reqs[i] = disk.WriteReq{Disk: a.Disk, Track: a.Track, Src: make([]uint64, s.B)}
		pattern(reqs[i].Src, a.Disk, a.Track+1000)
	}
	return s.WriteOp(reqs)
}

// TestRewriteReleaseAndDeath: a member of a stripe no barrier record
// names yet may be written again — a write the fault layer re-issues — at
// the cost of its old bytes, read back and folded out of the parity; a
// flush alone records nothing. Once a record names the stripe, a rewrite
// of a member is refused with a *ContractError before anything changes,
// whatever else the operation writes. A stripe released whole leaves, and
// after a drive death every other track reads its last content.
func TestRewriteReleaseAndDeath(t *testing.T) {
	const D, B = 4, 8
	s, raw := mkStore(t, D, B)
	addrs := writeTracks(t, s, D, B, 3)
	c0 := s.Counters()
	rewritten := map[disk.Addr]bool{}
	for i, a := range addrs {
		if i%3 == 0 {
			if err := rewrite(s, a); err != nil {
				t.Fatalf("rewrite of %v in the superstep that wrote it: %v", a, err)
			}
			rewritten[a] = true
		}
	}
	if c := s.Counters(); c.ParityReadOps-c0.ParityReadOps < int64(len(rewritten)) {
		t.Errorf("%d rewrites took %d parity reads, want an old-data read each at least", len(rewritten), c.ParityReadOps-c0.ParityReadOps)
	}
	flushChecked(t, s)
	if err := rewrite(s, addrs[1]); err != nil {
		t.Fatalf("rewrite after a flush with no record: %v", err)
	}
	rewritten[addrs[1]] = true
	flushChecked(t, s)

	rec := words.NewEncoder(nil)
	s.EncodeState(rec)
	fresh := disk.Addr{Disk: addrs[2].Disk ^ 1, Track: s.Alloc(addrs[2].Disk ^ 1)}
	st, ops := s.State(), raw.Stats().Ops
	var ce *ContractError
	if err := rewrite(s, fresh, addrs[2]); !errors.As(err, &ce) || ce.Op != "WriteOp" || ce.Track != addrs[2] {
		t.Fatalf("rewrite of a recorded member: %v, want a *ContractError naming %v", err, addrs[2])
	}
	again := words.NewEncoder(nil)
	s.EncodeState(again)
	if !reflect.DeepEqual(s.State(), st) || !slices.Equal(again.Words(), rec.Words()) || raw.Stats().Ops != ops {
		t.Errorf("the refused write changed the layer's state or record, or issued %d operations", raw.Stats().Ops-ops)
	}

	left := map[disk.Addr]bool{}
	for _, a := range addrs {
		if s.stripeOf[a] == s.stripeOf[addrs[len(addrs)-1]] {
			if err := s.Release(a.Disk, a.Track); err != nil {
				t.Fatal(err)
			}
			left[a] = true
		}
	}
	flushChecked(t, s)
	s.DriveDied(1)
	for _, a := range addrs {
		want, got := make([]uint64, B), make([]uint64, B)
		switch {
		case left[a]:
			continue
		case rewritten[a]:
			pattern(want, a.Disk, a.Track+1000)
		default:
			pattern(want, a.Disk, a.Track)
		}
		if err := s.ReadOp([]disk.ReadReq{{Disk: a.Disk, Track: a.Track, Dst: got}}); err != nil || !slices.Equal(got, want) {
			t.Fatalf("drive %d track %d after a drive death: %x (%v), want %x", a.Disk, a.Track, got, err, want)
		}
	}
}

// TestRewriteVerifiesOldBytes: a write repeated within its superstep
// folds no unverified bytes out of parity. Old bytes that rotted since
// they were written (member), or a stored parity that did (parity), are
// rebuilt from the rest of the stripe into the fold's buffer — the
// rewrite writes its own track and nothing else — and the barrier's
// parity holds every member, whichever drive dies.
func TestRewriteVerifiesOldBytes(t *testing.T) {
	const D, B = 4, 8
	for _, rot := range []string{"member", "parity"} {
		t.Run(rot, func(t *testing.T) {
			s, raw := mkStore(t, D, B)
			addrs := writeTracks(t, s, D, B, 4)
			victim := addrs[0]
			sid := s.stripeOf[victim]
			if _, cached := s.pval[sid]; cached {
				t.Fatalf("stripe %d's parity is still cached: the case wants it on disk", sid)
			}
			bad := victim
			if rot == "parity" {
				bad = s.stripes[sid].parity
			}
			garbage := make([]uint64, B)
			pattern(garbage, 99, 99)
			if err := raw.WriteOp([]disk.WriteReq{{Disk: bad.Disk, Track: bad.Track, Src: garbage}}); err != nil {
				t.Fatal(err)
			}
			writes := raw.Stats().WriteOps
			if err := rewrite(s, victim); err != nil {
				t.Fatal(err)
			}
			if c := s.Counters(); c.ChecksumFailures != 1 || c.ReconstructedBlocks != 1 {
				t.Errorf("ChecksumFailures = %d, ReconstructedBlocks = %d, want 1 and 1", c.ChecksumFailures, c.ReconstructedBlocks)
			}
			if w := raw.Stats().WriteOps - writes; w != 1 {
				t.Errorf("the rewrite took %d write operations, want its own one", w)
			}
			flushChecked(t, s)
			s.DriveDied(addrs[1].Disk)
			want := make([]uint64, B)
			pattern(want, victim.Disk, victim.Track+1000)
			if got := make([]uint64, B); s.ReadOp([]disk.ReadReq{{Disk: victim.Disk, Track: victim.Track, Dst: got}}) != nil || !slices.Equal(got, want) {
				t.Errorf("the rewritten track reads %x, want %x", got, want)
			}
			for _, a := range addrs[1:] {
				checkTrack(t, s, a, B)
			}
		})
	}
}

// rotSlot zeroes the magic word of track a's slot in the file store in
// dir, so the store reports the slot corrupt.
func rotSlot(t *testing.T, dir string, B int, a disk.Addr) {
	t.Helper()
	fh, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("drive-%03d.dat", a.Disk)), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	// A slot is the magic word, the checksum and the B payload words.
	if _, err := fh.WriteAt(make([]byte, 8), int64(a.Track)*int64(B+2)*8); err != nil {
		t.Fatal(err)
	}
}

// TestRottedSlotIsServedDegraded: a slot that rotted at rest under the
// file store — its magic word cleared by hand, the method of
// TestListedTrackWithoutMagicIsCorrupt — is rebuilt from the rest of its
// stripe into the reader's buffer. The read returns the recorded content,
// writes nothing, and leaves the slot as rotted as it found it. With a
// second slot of the stripe rotted nothing can rebuild it, and the read
// fails with a *disk.CorruptTrackError.
func TestRottedSlotIsServedDegraded(t *testing.T) {
	const D, B = 4, 8
	dir := t.TempDir()
	raw, err := disk.OpenFile(dir, disk.Config{D: D, B: B}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	s, err := Wrap(raw)
	if err != nil {
		t.Fatal(err)
	}
	addrs := writeTracks(t, s, D, B, 4)
	flushChecked(t, s)
	if err := raw.Sync(); err != nil {
		t.Fatal(err)
	}
	victim, sibling := addrs[0], disk.Addr{Disk: -1}
	for _, a := range addrs[1:] {
		if s.stripeOf[a] == s.stripeOf[victim] {
			sibling = a
			break
		}
	}
	if sibling.Disk < 0 {
		t.Fatalf("the stripe of %v has no other member", victim)
	}
	rotted := func(a disk.Addr) bool {
		var ce *disk.CorruptTrackError
		return errors.As(raw.ReadOp([]disk.ReadReq{{Disk: a.Disk, Track: a.Track, Dst: make([]uint64, B)}}), &ce)
	}

	rotSlot(t, dir, B, victim)
	before := raw.Stats()
	checkTrack(t, s, victim, B)
	if w := raw.Stats().WriteOps - before.WriteOps; w != 0 {
		t.Errorf("serving the rotted slot took %d write operations, want none", w)
	}
	// The read that met the slot failed uncharged, so every operation the
	// store charged is the rebuild's.
	if c, ops := s.Counters(), raw.Stats().Ops-before.Ops; c.ChecksumFailures != 1 || c.ReconstructedBlocks != 1 || ops == 0 || c.DegradedOps != ops {
		t.Errorf("after one rotted slot read: %+v and %d operations, want one checksum failure, one reconstruction and every operation degraded", c, ops)
	}
	if !rotted(victim) {
		t.Errorf("the read wrote the rotted slot of %v back", victim)
	}

	rotSlot(t, dir, B, sibling)
	var ce *disk.CorruptTrackError
	if err := s.ReadOp([]disk.ReadReq{{Disk: victim.Disk, Track: victim.Track, Dst: make([]uint64, B)}}); !errors.As(err, &ce) {
		t.Errorf("read of %v with its sibling %v rotted too: %v, want a *disk.CorruptTrackError", victim, sibling, err)
	}
}

// TestWriteToDeadDriveRefused: nothing is placed on a dead drive, so a
// write addressed to one — fresh or a rewrite of a member of this
// superstep — is refused with a *ContractError before anything changes,
// whatever else the operation writes.
func TestWriteToDeadDriveRefused(t *testing.T) {
	const D, B, dead = 4, 8, 1
	s, raw := mkStore(t, D, B)
	addrs := writeTracks(t, s, D, B, 2)
	s.DriveDied(dead)
	fresh := disk.Addr{Disk: dead, Track: s.Alloc(dead)}
	member := addrs[dead]
	live := disk.Addr{Disk: 0, Track: s.Alloc(0)}
	for _, a := range []disk.Addr{fresh, member} {
		st, ops, ctr := s.State(), raw.Stats().Ops, s.Counters()
		var ce *ContractError
		if err := rewrite(s, live, a); !errors.As(err, &ce) || ce.Op != "WriteOp" || ce.Track != a {
			t.Fatalf("write to %v on dead drive %d: %v, want a *ContractError naming it", a, dead, err)
		}
		if !reflect.DeepEqual(s.State(), st) || raw.Stats().Ops != ops || s.Counters() != ctr {
			t.Errorf("the refused write to %v changed the store, issued %d operations or moved the counters", a, raw.Stats().Ops-ops)
		}
	}
	flushChecked(t, s)
	for _, a := range addrs {
		checkTrack(t, s, a, B)
	}
}

// TestDropStripeReportsReleaseError: the barrier that drops a stripe
// returns what its parity track's inner Release returns — here the double
// free of a track released beneath the layer.
func TestDropStripeReportsReleaseError(t *testing.T) {
	const D, B = 4, 8
	s, raw := mkStore(t, D, B)
	addrs := writeTracks(t, s, D, B, 1)
	flushChecked(t, s)
	sid := s.stripeOf[addrs[0]]
	p := s.stripes[sid].parity
	if err := raw.Release(p.Disk, p.Track); err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if s.stripeOf[a] == sid {
			if err := s.Release(a.Disk, a.Track); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.FlushParity(); err == nil || !strings.Contains(err.Error(), "double release") {
		t.Errorf("FlushParity dropping a stripe whose parity track is already free: %v, want the inner double release", err)
	}
}

// TestMirrorCopies: under mirror a stripe is one member and its copy. A
// D-block write costs exactly one copy operation, every copy on the next
// drive after its member's, holding the member's words; with a drive
// dead the copies skip it and still share no drive, and every track
// reads back from its copy.
func TestMirrorCopies(t *testing.T) {
	const D, B = 4, 8
	s, raw := mkMode(t, Mirror, D, B)
	checkCopies := func(addrs []disk.Addr, next func(d int) int) {
		t.Helper()
		want := make([]uint64, B)
		for _, a := range addrs {
			cp := s.stripes[s.stripeOf[a]].parity
			got, err := raw.ExportTrack(cp.Disk, cp.Track)
			if pattern(want, a.Disk, a.Track); err != nil || cp.Disk != next(a.Disk) || !slices.Equal(got, want) {
				t.Errorf("the copy of %v is at %v holding %x (%v), want drive %d holding its words", a, cp, got, err, next(a.Disk))
			}
		}
	}
	before := raw.Stats()
	addrs := writeTracks(t, s, D, B, 1)
	if w := raw.Stats().WriteOps - before.WriteOps; w != 2 {
		t.Errorf("a %d-block write took %d write operations, want the write and one copy operation", D, w)
	}
	if c := s.Counters(); c.ParityOps != 1 || c.ParityBlocks != D || c.StripedBlocks != D {
		t.Errorf("after one %d-block write: ParityOps %d, ParityBlocks %d, StripedBlocks %d, want 1, %d, %d", D, c.ParityOps, c.ParityBlocks, c.StripedBlocks, D, D)
	}
	checkCopies(addrs, func(d int) int { return (d + 1) % D })
	flushChecked(t, s)

	const dead = 1
	s.DriveDied(dead)
	var live []disk.Addr
	var reqs []disk.WriteReq
	for d := 0; d < D; d++ {
		if d != dead {
			a := disk.Addr{Disk: d, Track: s.Alloc(d)}
			buf := make([]uint64, B)
			pattern(buf, a.Disk, a.Track)
			live, reqs = append(live, a), append(reqs, disk.WriteReq{Disk: a.Disk, Track: a.Track, Src: buf})
		}
	}
	if err := s.WriteOp(reqs); err != nil {
		t.Fatal(err)
	}
	before = raw.Stats()
	flushChecked(t, s)
	if w := raw.Stats().WriteOps - before.WriteOps; w != 1 {
		t.Errorf("the copies of a write over the %d live drives took %d operations, want 1", D-1, w)
	}
	checkCopies(live, func(d int) int {
		if d+1 == dead {
			return d + 2
		}
		return (d + 1) % D
	})
	for _, a := range append(addrs, live...) {
		checkTrack(t, s, a, B)
	}
}

func TestSnapshotRestore(t *testing.T) {
	const D, B = 3, 8
	s, _ := mkStore(t, D, B)
	addrs := writeTracks(t, s, D, B, 3)
	flushChecked(t, s)
	mark, enc := s.State(), words.NewEncoder(nil)
	s.EncodeState(enc)
	// Mutate under the engines' checkpoint discipline: committed tracks
	// are never rewritten in place and their frees are deferred to the
	// barrier commit, so speculative work is fresh allocations only
	// (plus frees of whole stripes of those same fresh tracks).
	fresh := writeTracks(t, s, D, B, 2)
	for _, a := range fresh {
		if s.stripeOf[a] == s.stripeOf[fresh[0]] {
			if err := s.Release(a.Disk, a.Track); err != nil {
				t.Fatalf("release: %v", err)
			}
		}
	}
	flushChecked(t, s)
	// Roll back (the engine's replay path: allocator first, then layer).
	if err := disk.Rollback(s, mark); err != nil {
		t.Fatal(err)
	}
	if err := s.DecodeState(words.NewDecoder(enc.Words()), true); err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		checkTrack(t, s, a, B)
	}
}

func TestEncodeDecodeResume(t *testing.T) {
	const D, B = 4, 8
	s, raw := mkStore(t, D, B)
	addrs := writeTracks(t, s, D, B, 5)
	flushChecked(t, s)
	s.DriveDied(2)
	checkTrack(t, s, addrs[2], B) // a reconstruction, counted
	enc := words.NewEncoder(nil)
	s.EncodeState(enc)

	// A resumed process: a fresh layer over the same (durable) store.
	s2, err := Wrap(raw)
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	dec := words.NewDecoder(enc.Words())
	if err := s2.DecodeState(dec, false); err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if dec.Remaining() != 0 {
		t.Fatalf("decode left %d words", dec.Remaining())
	}
	if s2.Counters() != s.Counters() {
		t.Errorf("counters differ after decode:\n  %+v\n  %+v", s2.Counters(), s.Counters())
	}
	if !slices.Equal(s2.dead, s.dead) {
		t.Errorf("resumed layer has dead drives %v, want %v", s2.dead, s.dead)
	}
	for _, a := range addrs {
		checkTrack(t, s2, a, B)
	}
}

// resumeFrom models a crash-resume: the allocator metadata is restored
// from the manifest, track contents stay as the crashed process left
// them, and a fresh layer decodes the manifest and reconciles.
func resumeFrom(t *testing.T, raw disk.Store, allocSt disk.StoreState, manifest []uint64) (*Store, error) {
	t.Helper()
	if err := raw.AdoptState(allocSt); err != nil {
		t.Fatalf("AdoptState: %v", err)
	}
	s, err := Wrap(raw)
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	if err := s.DecodeState(words.NewDecoder(manifest), false); err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	return s, s.Reconcile()
}

// crashAndResume runs a superstep — fresh tracks, one written twice as a
// re-issued write is — from a barrier, kills the process before the
// barrier's record lands (after its FlushParity when flushed), and resumes
// from the record before: Reconcile must find nothing, and the replayed
// superstep's barrier must hold every track, whichever drive dies.
func crashAndResume(t *testing.T, flushed bool) {
	const D, B = 4, 8
	s, raw := mkStore(t, D, B)
	addrs := writeTracks(t, s, D, B, 4)
	flushChecked(t, s)
	enc := words.NewEncoder(nil)
	s.EncodeState(enc)
	manifest, allocSt := slices.Clone(enc.Words()), raw.State()
	superstep := func(s *Store) []disk.Addr {
		fresh := writeTracks(t, s, D, B, 2)
		buf := make([]uint64, B)
		pattern(buf, fresh[1].Disk, fresh[1].Track)
		if err := s.WriteOp([]disk.WriteReq{{Disk: fresh[1].Disk, Track: fresh[1].Track, Src: buf}}); err != nil {
			t.Fatal(err)
		}
		return fresh
	}
	superstep(s)
	if flushed {
		if err := s.FlushParity(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := resumeFrom(t, raw, allocSt, manifest)
	if err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	fresh := superstep(s)
	flushChecked(t, s)
	s.DriveDied(1)
	for _, a := range append(addrs, fresh...) {
		checkTrack(t, s, a, B)
	}
}

// TestReconcileMidSuperstepCrash: a process killed mid-superstep wrote
// only tracks its record holds free, so the resume has nothing to repair
// (crashAndResume). What Reconcile does find is rot at rest: a stripe's
// one bad track is repaired from the rest of the stripe, and two members
// of one stripe, rewritten beneath the layer as no engine run does, are
// refused with a *ContractError — not adopted — and neither reads back.
func TestReconcileMidSuperstepCrash(t *testing.T) {
	crashAndResume(t, false)

	const D, B = 4, 8
	s, raw := mkStore(t, D, B)
	addrs := writeTracks(t, s, D, B, 4)
	flushChecked(t, s)
	enc := words.NewEncoder(nil)
	s.EncodeState(enc)
	manifest, allocSt := slices.Clone(enc.Words()), raw.State()
	bySid := make(map[int][]disk.Addr)
	for _, a := range addrs {
		bySid[s.stripeOf[a]] = append(bySid[s.stripeOf[a]], a)
	}
	one, two := bySid[s.stripeOf[addrs[0]]][:1], bySid[s.stripeOf[addrs[len(addrs)-1]]][:2]
	clobber := func(as []disk.Addr) {
		buf := make([]uint64, B)
		for _, a := range as {
			pattern(buf, a.Disk, a.Track+1000)
			if err := raw.WriteOp([]disk.WriteReq{{Disk: a.Disk, Track: a.Track, Src: buf}}); err != nil {
				t.Fatal(err)
			}
		}
	}

	clobber(one)
	s, err := resumeFrom(t, raw, allocSt, manifest)
	if err != nil {
		t.Fatalf("Reconcile with one bad track: %v", err)
	}
	for _, a := range addrs {
		checkTrack(t, s, a, B)
	}

	clobber(two)
	s, err = resumeFrom(t, raw, allocSt, manifest)
	var ce *ContractError
	if !errors.As(err, &ce) || ce.Op != "Reconcile" || !slices.Contains(two, ce.Track) {
		t.Fatalf("Reconcile with two bad members of a stripe: %v, want a *ContractError naming one of %v", err, two)
	}
	for _, a := range two {
		if err := s.ReadOp([]disk.ReadReq{{Disk: a.Disk, Track: a.Track, Dst: make([]uint64, B)}}); err == nil {
			t.Errorf("drive %d track %d, rewritten beneath the layer beside a sibling, reads back", a.Disk, a.Track)
		}
	}
}

// TestReconcilePostFlushCrash is the other window: the process dies after
// the barrier's FlushParity, before its record lands. The flush wrote
// parity only to tracks the record before holds free, so the resume from
// that record finds nothing to repair either (crashAndResume).
func TestReconcilePostFlushCrash(t *testing.T) { crashAndResume(t, true) }

// TestPhysOpsFollowFullestDrive: readPhys and writePhys schedule a list
// by its per-drive queues, so n requests sorted by (drive, track) — the
// order FlushParity's read-back arrives in, which cut at every repeated
// drive cost one operation a request — cost their fullest drive's count.
func TestPhysOpsFollowFullestDrive(t *testing.T) {
	const D, B, rows = 4, 8, 6
	s, raw := mkStore(t, D, B)
	sorted := func(addrs []disk.Addr) (reads []disk.ReadReq, fullest int) {
		set := make(map[disk.Addr]struct{})
		for _, a := range addrs {
			set[a] = struct{}{}
		}
		perDrive := make(map[int]int)
		for _, a := range disk.SortedAddrs(nil, set) {
			reads = append(reads, disk.ReadReq{Disk: a.Disk, Track: a.Track, Dst: make([]uint64, B)})
			perDrive[a.Disk]++
			fullest = max(fullest, perDrive[a.Disk])
		}
		return reads, fullest
	}
	check := func(label string, addrs []disk.Addr, want int) {
		t.Helper()
		reads, fullest := sorted(addrs)
		before := raw.Stats().Ops
		n, err := s.readPhys(reads)
		if err != nil {
			t.Fatal(err)
		}
		if n != want || fullest != want || raw.Stats().Ops-before != int64(want) {
			t.Errorf("%s: %d reads sorted by (drive, track) took %d operations (%d on the array) with %d on the fullest drive, want %d",
				label, len(reads), n, raw.Stats().Ops-before, fullest, want)
		}
		writes := make([]disk.WriteReq, len(reads))
		for i, r := range reads {
			writes[i] = disk.WriteReq{Disk: r.Disk, Track: r.Track, Src: r.Dst}
		}
		if n, err = s.writePhys(writes); err != nil || n != want {
			t.Errorf("%s: writing them back took %d operations (%v), want %d", label, n, err, want)
		}
		for _, a := range addrs {
			checkTrack(t, s, a, B)
		}
	}
	addrs := writeTracks(t, s, D, B, rows)
	if err := s.FlushParity(); err != nil {
		t.Fatal(err)
	}
	check("all drives live", addrs, rows)
	// A partial row more on drive 2 alone makes it the fullest.
	tr := s.Alloc(2)
	buf := make([]uint64, B)
	pattern(buf, 2, tr)
	if err := s.WriteOp([]disk.WriteReq{{Disk: 2, Track: tr, Src: buf}}); err != nil {
		t.Fatal(err)
	}
	addrs = append(addrs, disk.Addr{Disk: 2, Track: tr})
	check("one drive fuller", addrs, rows+1)
}

// TestSealKeepsStripesApart: a track written after Seal shares no stripe
// with one written before, so when the earlier one leaves alone its
// stripe drops whole, and the barrier reads nothing back. Without the
// seal the two share a stripe, and the barrier refuses the stripe that
// leaves in part — unless its parity drive has died, when there is no
// parity to keep and the leaver just goes.
func TestSealKeepsStripesApart(t *testing.T) {
	const D, B = 4, 16
	for _, c := range []struct {
		name       string
		seal, kill bool
	}{{"sealed", true, false}, {"shared", false, false}, {"shared, parity drive dead", false, true}} {
		s, raw := mkStore(t, D, B)
		buf := make([]uint64, B)
		write := func(d int) disk.Addr {
			a := disk.Addr{Disk: d, Track: s.Alloc(d)}
			pattern(buf, a.Disk, a.Track)
			if err := s.WriteOp([]disk.WriteReq{{Disk: a.Disk, Track: a.Track, Src: buf}}); err != nil {
				t.Fatal(err)
			}
			return a
		}
		leaver := write(0)
		if c.seal {
			s.Seal()
		}
		stays := write(2) // drive 1 holds the first stripe's parity
		flushChecked(t, s)
		if c.kill {
			s.DriveDied(1)
		}
		if err := s.Release(leaver.Disk, leaver.Track); err != nil {
			t.Fatal(err)
		}
		before := raw.Stats().ReadOps
		err := s.FlushParity()
		var ce *ContractError
		if refused := errors.As(err, &ce) && ce.Track == leaver; refused != (!c.seal && !c.kill) || (!refused && err != nil) {
			t.Errorf("%s: the barrier after the leaver's release returned %v", c.name, err)
		}
		if reads := raw.Stats().ReadOps - before; reads != 0 {
			t.Errorf("%s: the barrier after the leaver's release read %d times", c.name, reads)
		}
		if err == nil {
			checkInvariants(t, s)
			checkTrack(t, s, stays, B)
		}
	}
}

// TestRebuildInsideARound: readPhys rebuilds a rotted track of a round
// while the round is still being read, so the rebuild's reads, which
// readRaw schedules, must not disturb the rounds readPhys is working
// through. A list of three rows, whose first round holds the rotted
// track first, is read whole: every track its own pattern, the round
// re-issued without the rotted track, two degraded operations (the
// stripe's parity and the rest of its members) and nothing else.
func TestRebuildInsideARound(t *testing.T) {
	const D, B, rows = 4, 8, 3
	dir := t.TempDir()
	raw, err := disk.OpenFile(dir, disk.Config{D: D, B: B}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	s, err := Wrap(raw)
	if err != nil {
		t.Fatal(err)
	}
	addrs := writeTracks(t, s, D, B, rows)
	flushChecked(t, s)
	if err := raw.Sync(); err != nil {
		t.Fatal(err)
	}
	// By drive, then track: round r reads each drive's r-th row.
	slices.SortFunc(addrs, func(a, b disk.Addr) int { return cmp.Or(a.Disk-b.Disk, a.Track-b.Track) })
	var reads []disk.ReadReq
	for _, a := range addrs {
		reads = append(reads, disk.ReadReq{Disk: a.Disk, Track: a.Track, Dst: make([]uint64, B)})
	}
	victim := disk.Addr{Disk: reads[0].Disk, Track: reads[0].Track}
	rotSlot(t, dir, B, victim)
	before, c0 := raw.Stats(), s.Counters()
	n, err := s.readPhys(reads)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, B)
	for _, r := range reads {
		if pattern(want, r.Disk, r.Track); !slices.Equal(r.Dst, want) {
			t.Errorf("drive %d track %d: read %#x, want %#x", r.Disk, r.Track, r.Dst, want)
		}
	}
	c := s.Counters()
	if ops := raw.Stats().Ops - before.Ops; n != rows || ops != rows+2 || c.ChecksumFailures-c0.ChecksumFailures != 1 ||
		c.ReconstructedBlocks-c0.ReconstructedBlocks != 1 || c.DegradedOps-c0.DegradedOps != 2 {
		t.Errorf("reading %d rows with %v rotted: %d operations of the list's, %d on the store, counters %+v → %+v; want %d, %d, and one checksum failure, one reconstruction, two degraded operations",
			rows, victim, n, ops, c0, c, rows, rows+2)
	}
}
