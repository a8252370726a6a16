package redundancy

import (
	"slices"
	"testing"

	"embsp/internal/disk"
	"embsp/internal/prng"
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

func TestRewriteReleaseAndDeath(t *testing.T) {
	const D, B = 3, 8
	s, _ := mkStore(t, D, B)
	addrs := writeTracks(t, s, D, B, 4)
	if err := s.FlushParity(); err != nil {
		t.Fatalf("FlushParity: %v", err)
	}
	// Rewrite some striped tracks (small-write path) and release others.
	buf := make([]uint64, B)
	for i, a := range addrs {
		switch i % 3 {
		case 0:
			pattern(buf, a.Disk, a.Track+1000)
			if err := s.WriteOp([]disk.WriteReq{{Disk: a.Disk, Track: a.Track, Src: append([]uint64(nil), buf...)}}); err != nil {
				t.Fatalf("rewrite: %v", err)
			}
		case 1:
			if err := s.Release(a.Disk, a.Track); err != nil {
				t.Fatalf("release: %v", err)
			}
		}
	}
	if err := s.FlushParity(); err != nil {
		t.Fatalf("FlushParity: %v", err)
	}
	s.DriveDied(1)
	for i, a := range addrs {
		want := make([]uint64, B)
		switch i % 3 {
		case 0:
			pattern(want, a.Disk, a.Track+1000)
		case 1:
			continue // released
		case 2:
			pattern(want, a.Disk, a.Track)
		}
		got := make([]uint64, B)
		if err := s.ReadOp([]disk.ReadReq{{Disk: a.Disk, Track: a.Track, Dst: got}}); err != nil {
			t.Fatalf("read drive %d track %d: %v", a.Disk, a.Track, err)
		}
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("drive %d track %d word %d: got %#x want %#x", a.Disk, a.Track, w, got[w], want[w])
			}
		}
	}
	if s.Counters().ParityOps == 0 {
		t.Error("no parity maintenance ops recorded")
	}
}

// TestScrubCompleteness is the scrub property test: latent corruption
// seeded at random committed tracks is fully found and repaired by one
// scrub cycle, with exactly one detected checksum failure per injected
// instance.
func TestScrubCompleteness(t *testing.T) {
	const D, B = 4, 16
	for _, seed := range []uint64{1, 7, 42} {
		s, raw := mkStore(t, D, B)
		addrs := writeTracks(t, s, D, B, 6)
		flushChecked(t, s)
		// Corrupt random committed tracks (data and parity alike)
		// directly on the raw store, beneath the layer — at most one
		// per stripe, since single XOR parity by construction cannot
		// repair two bad tracks in one group.
		rng := prng.New(prng.Derive(seed, 0x5c52))
		summed := s.summedTracks()
		injected := map[disk.Addr]bool{}
		hitStripes := map[int]bool{}
		garbage := make([]uint64, B)
		for len(injected) < 5 {
			a := summed[rng.Intn(len(summed))]
			if injected[a] {
				continue
			}
			sid, ok := s.stripeID(a)
			if !ok || hitStripes[sid] {
				continue
			}
			hitStripes[sid] = true
			injected[a] = true
			for i := range garbage {
				garbage[i] = rng.Uint64()
			}
			if err := raw.WriteOp([]disk.WriteReq{{Disk: a.Disk, Track: a.Track, Src: append([]uint64(nil), garbage...)}}); err != nil {
				t.Fatalf("inject: %v", err)
			}
		}
		// One full scrub cycle.
		for {
			wrapped, err := s.Scrub(2 * D)
			if err != nil {
				t.Fatalf("seed %d: Scrub: %v", seed, err)
			}
			if wrapped {
				break
			}
		}
		c := s.Counters()
		if c.ChecksumFailures != int64(len(injected)) {
			t.Errorf("seed %d: ChecksumFailures = %d, want %d", seed, c.ChecksumFailures, len(injected))
		}
		if c.ScrubRepairs != c.ChecksumFailures {
			t.Errorf("seed %d: ScrubRepairs = %d, ChecksumFailures = %d — scrub must repair every instance it finds", seed, c.ScrubRepairs, c.ChecksumFailures)
		}
		// Everything reads back clean afterwards (no further failures).
		for _, a := range addrs {
			checkTrack(t, s, a, B)
		}
		if c2 := s.Counters(); c2.ChecksumFailures != c.ChecksumFailures {
			t.Errorf("seed %d: reads after a full scrub still detect corruption", seed)
		}
	}
}

// summedTracks returns the physical tracks with recorded checksums, in
// deterministic order (test helper).
func (s *Store) summedTracks() []disk.Addr {
	var out []disk.Addr
	next := s.inner.State().Next
	for d := 0; d < s.D; d++ {
		for t := 0; t < next[d]; t++ {
			if _, ok := s.sums[disk.Addr{Disk: d, Track: t}]; ok {
				out = append(out, disk.Addr{Disk: d, Track: t})
			}
		}
	}
	return out
}

// stripeID maps a physical track to its parity group (test helper).
func (s *Store) stripeID(a disk.Addr) (int, bool) {
	k := a
	if sid, ok := s.parityAt[k]; ok {
		return sid, true
	}
	if l, ok := s.rrmap[k]; ok {
		k = l
	}
	sid, ok := s.stripeOf[k]
	return sid, ok
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
			if pattern(want, a.Disk, a.Track); cp.Disk != next(a.Disk) || !slices.Equal(raw.PeekTrack(cp.Disk, cp.Track), want) {
				t.Errorf("the copy of %v is at %v holding %x, want drive %d holding its words", a, cp, raw.PeekTrack(cp.Disk, cp.Track), next(a.Disk))
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
	mark := s.State()
	sn := s.Snapshot()
	// Mutate under the engines' checkpoint discipline: committed tracks
	// are never rewritten in place and their frees are deferred to the
	// barrier commit, so speculative work is fresh allocations only
	// (plus frees of those same fresh tracks).
	fresh := writeTracks(t, s, D, B, 2)
	if err := s.Release(fresh[0].Disk, fresh[0].Track); err != nil {
		t.Fatalf("release: %v", err)
	}
	flushChecked(t, s)
	// Roll back (the engine's replay path: allocator first, then layer).
	if err := disk.Rollback(s, mark); err != nil {
		t.Fatal(err)
	}
	s.Restore(sn)
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
	if _, err := s.Scrub(5); err != nil { // partial scrub
		t.Fatalf("Scrub: %v", err)
	}
	enc := words.NewEncoder(nil)
	s.EncodeState(enc)

	// A resumed process: a fresh layer over the same (durable) store.
	s2, err := Wrap(raw)
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	dec := words.NewDecoder(enc.Words())
	if err := s2.DecodeState(dec); err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if dec.Remaining() != 0 {
		t.Fatalf("decode left %d words", dec.Remaining())
	}
	if s2.Counters() != s.Counters() {
		t.Errorf("counters differ after decode:\n  %+v\n  %+v", s2.Counters(), s.Counters())
	}
	if s2.scrubD != s.scrubD || s2.scrubT != s.scrubT || !slices.Equal(s2.dead, s.dead) {
		t.Errorf("resumed layer scrubs from (%d, %d) with dead drives %v, want (%d, %d) and %v", s2.scrubD, s2.scrubT, s2.dead, s.scrubD, s.scrubT, s.dead)
	}
	for _, a := range addrs {
		checkTrack(t, s2, a, B)
	}
}

// crashPattern is the deterministic content a superstep's in-place
// rewrite produces — distinct from pattern so stale parity is
// detectable.
func crashPattern(buf []uint64, d, t int) {
	pattern(buf, d, t)
	delta := 0xdeadbeefcafef00d * uint64(31*d+7*t+1)
	for i := range buf {
		buf[i] ^= delta
	}
}

// resumeFrom models a crash-resume: the allocator metadata is restored
// from the manifest, track contents stay as the crashed process left
// them, and a fresh layer (empty rmwOld) decodes the manifest.
func resumeFrom(t *testing.T, raw disk.Store, allocSt disk.StoreState, manifest []uint64) *Store {
	t.Helper()
	if err := raw.AdoptState(allocSt); err != nil {
		t.Fatalf("AdoptState: %v", err)
	}
	s, err := Wrap(raw)
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	dec := words.NewDecoder(manifest)
	if err := s.DecodeState(dec); err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if err := s.Reconcile(); err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	return s
}

// TestReconcileMidSuperstepCrash is the RAID write hole under the
// checkpoint discipline: a superstep rewrites striped tracks in place,
// the process dies before the barrier, and the resumed replay's parity
// arithmetic must not trust the crashed attempt's on-disk data as the
// barrier content the stored parity encodes. After the replayed
// barrier, a drive death must still reconstruct every track bitwise.
func TestReconcileMidSuperstepCrash(t *testing.T) {
	const D, B = 4, 8
	s, raw := mkStore(t, D, B)
	addrs := writeTracks(t, s, D, B, 4)
	if err := s.FlushParity(); err != nil {
		t.Fatalf("FlushParity: %v", err)
	}
	enc := words.NewEncoder(nil)
	s.EncodeState(enc)
	manifest := append([]uint64(nil), enc.Words()...)
	allocSt := raw.State()

	// The deterministic superstep: rewrite a third of the striped
	// tracks in place. Run once by the crashed attempt (no barrier),
	// then identically by the resumed replay.
	superstep := func(s *Store) {
		buf := make([]uint64, B)
		for i, a := range addrs {
			if i%3 != 0 {
				continue
			}
			crashPattern(buf, a.Disk, a.Track)
			if err := s.WriteOp([]disk.WriteReq{{Disk: a.Disk, Track: a.Track, Src: append([]uint64(nil), buf...)}}); err != nil {
				t.Fatalf("WriteOp: %v", err)
			}
		}
	}
	superstep(s) // crashed attempt: writes land, no FlushParity, SIGKILL

	s2 := resumeFrom(t, raw, allocSt, manifest)
	superstep(s2) // replay
	if err := s2.FlushParity(); err != nil {
		t.Fatalf("replayed FlushParity: %v", err)
	}

	// Now lose a drive: every member must reconstruct bitwise.
	s2.DriveDied(1)
	want := make([]uint64, B)
	got := make([]uint64, B)
	for i, a := range addrs {
		if err := s2.ReadOp([]disk.ReadReq{{Disk: a.Disk, Track: a.Track, Dst: got}}); err != nil {
			t.Fatalf("ReadOp drive %d track %d: %v", a.Disk, a.Track, err)
		}
		if i%3 == 0 {
			crashPattern(want, a.Disk, a.Track)
		} else {
			pattern(want, a.Disk, a.Track)
		}
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("drive %d track %d word %d: got %#x want %#x", a.Disk, a.Track, w, got[w], want[w])
			}
		}
	}
}

// TestReconcilePostFlushCrash is the other window: the crash lands
// after FlushParity rewrote the parity tracks but before the journal
// commit, so the resumed manifest's checksums predate everything the
// barrier wrote. Without reconciliation the replay hard-fails with
// "member fails its checksum" while repairing the "stale" parity.
func TestReconcilePostFlushCrash(t *testing.T) {
	const D, B = 4, 8
	s, raw := mkStore(t, D, B)
	addrs := writeTracks(t, s, D, B, 4)
	if err := s.FlushParity(); err != nil {
		t.Fatalf("FlushParity: %v", err)
	}
	enc := words.NewEncoder(nil)
	s.EncodeState(enc)
	manifest := append([]uint64(nil), enc.Words()...)
	allocSt := raw.State()

	superstep := func(s *Store) {
		buf := make([]uint64, B)
		for i, a := range addrs {
			if i%2 != 0 {
				continue
			}
			crashPattern(buf, a.Disk, a.Track)
			if err := s.WriteOp([]disk.WriteReq{{Disk: a.Disk, Track: a.Track, Src: append([]uint64(nil), buf...)}}); err != nil {
				t.Fatalf("WriteOp: %v", err)
			}
		}
	}
	superstep(s)
	if err := s.FlushParity(); err != nil { // barrier completed ...
		t.Fatalf("FlushParity: %v", err)
	}
	// ... but the journal commit never landed: resume from the OLD manifest.

	s2 := resumeFrom(t, raw, allocSt, manifest)
	superstep(s2)
	if err := s2.FlushParity(); err != nil {
		t.Fatalf("replayed FlushParity: %v", err)
	}
	s2.DriveDied(2)
	want := make([]uint64, B)
	got := make([]uint64, B)
	for i, a := range addrs {
		if err := s2.ReadOp([]disk.ReadReq{{Disk: a.Disk, Track: a.Track, Dst: got}}); err != nil {
			t.Fatalf("ReadOp drive %d track %d: %v", a.Disk, a.Track, err)
		}
		if i%2 == 0 {
			crashPattern(want, a.Disk, a.Track)
		} else {
			pattern(want, a.Disk, a.Track)
		}
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("drive %d track %d word %d: got %#x want %#x", a.Disk, a.Track, w, got[w], want[w])
			}
		}
	}
}

// TestPhysOpsFollowFullestDrive: readPhys and writePhys schedule a list
// by its per-drive queues, so n requests sorted by (drive, track) — the
// order FlushParity's read-back arrives in, which cut at every repeated
// drive cost one operation a request — cost their fullest drive's count;
// also once a dead drive's tracks share a survivor with that drive's own.
func TestPhysOpsFollowFullestDrive(t *testing.T) {
	const D, B, rows = 4, 8, 6
	s, raw := mkStore(t, D, B)
	sorted := func(addrs []disk.Addr) (reads []disk.ReadReq, fullest int) {
		set := make(map[disk.Addr]struct{})
		for _, a := range addrs {
			set[a] = struct{}{}
		}
		perDrive := make(map[int]int)
		for _, a := range disk.SortedAddrs(set) {
			p, live := s.physOf(a)
			if !live {
				t.Fatalf("track %v has no physical copy", a)
			}
			reads = append(reads, disk.ReadReq{Disk: p.Disk, Track: p.Track, Dst: make([]uint64, B)})
			perDrive[p.Disk]++
			fullest = max(fullest, perDrive[p.Disk])
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

	// Drive 1 dies; what is written to it from now on lands on spares,
	// beside those drives' own tracks.
	s.DriveDied(1)
	after := writeTracks(t, s, D, B, rows)
	if err := s.FlushParity(); err != nil {
		t.Fatal(err)
	}
	_, fullest := sorted(after)
	if fullest <= rows {
		t.Fatalf("the remap put at most %d of %d tracks on one drive; the case wants two logical drives sharing one", fullest, len(after))
	}
	check("two logical drives on one physical", after, fullest)
}

// TestSealKeepsStripesApart: a track written after Seal shares no stripe
// with one written before, so when the earlier one leaves alone its
// stripe drops whole, and the barrier reads nothing back. Without the
// seal the two share a stripe, and the barrier reads the leaver and the
// parity to fold the leaver out.
func TestSealKeepsStripesApart(t *testing.T) {
	const D, B = 4, 16
	for _, seal := range []bool{false, true} {
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
		if seal {
			s.Seal()
		}
		stays := write(2) // drive 1 holds the first stripe's parity
		flushChecked(t, s)
		if err := s.Release(leaver.Disk, leaver.Track); err != nil {
			t.Fatal(err)
		}
		before := raw.Stats().ReadOps
		flushChecked(t, s)
		if reads := raw.Stats().ReadOps - before; (reads == 0) != seal {
			t.Errorf("seal=%v: the barrier after the leaver's release read %d times", seal, reads)
		}
		checkTrack(t, s, stays, B)
	}
}
