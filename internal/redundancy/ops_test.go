package redundancy

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"embsp/internal/disk"
	"embsp/internal/prng"
	"embsp/internal/words"
)

// checkInvariants holds the layer to what every barrier promises, right
// after a FlushParity: no stripe is open, no leaver or held release is
// pending and nothing is cached; every stripe's stored parity is the XOR
// of its members' current content, so each member is what the degraded
// path reconstructs from the rest — one drive at a time, whichever dies,
// and after a death the member on the dead drive (nothing rebuilds it:
// its stripe stays one failure short until its members leave); and every
// checksummed track reads back through the layer. A stripe whose parity
// drive is dead is exempt from the parity clauses. The checker's own I/O and counts are taken back, so
// a test can count around it.
func checkInvariants(t *testing.T, s *Store) {
	t.Helper()
	ctr, st := s.ctr, s.inner.State()
	defer func() {
		s.ctr = ctr
		if err := s.inner.AdoptState(st); err != nil {
			t.Fatalf("checker: AdoptState: %v", err)
		}
	}()
	if len(s.open)+len(s.filled)+len(s.left)+len(s.held)+len(s.pval)+len(s.pdirty) != 0 {
		t.Fatalf("after a flush: open %v, filled %v, %d leavers, %d held releases, %d cached and %d dirty parity blocks — want none",
			s.open, s.filled, len(s.left), len(s.held), len(s.pval), len(s.pdirty))
	}
	raw := func(p disk.Addr) []uint64 {
		buf := make([]uint64, s.B)
		if err := s.inner.ReadOp([]disk.ReadReq{{Disk: p.Disk, Track: p.Track, Dst: buf}}); err != nil {
			t.Fatalf("checker: raw read of %v: %v", p, err)
		}
		return buf
	}
	sids := make([]int, 0, len(s.stripes))
	for sid := range s.stripes {
		sids = append(sids, sid)
	}
	sort.Ints(sids)
	striped := 0
	for _, sid := range sids {
		st := s.stripes[sid]
		if got, ok := s.parityAt[st.parity]; !ok || got != sid {
			t.Fatalf("stripe %d: parity track %v is listed under stripe %d (%v)", sid, st.parity, got, ok)
		}
		var members []disk.Addr
		for d, tr := range st.members {
			if tr >= 0 {
				k := disk.Addr{Disk: d, Track: tr}
				if s.stripeOf[k] != sid {
					t.Fatalf("stripe %d: member %v is listed under stripe %d", sid, k, s.stripeOf[k])
				}
				members = append(members, k)
			}
		}
		striped += len(members)
		if len(members) != st.count || st.count == 0 || st.count > s.width {
			t.Fatalf("stripe %d: %d members, count %d, width %d", sid, len(members), st.count, s.width)
		}
		if !s.parityUsable(st) {
			continue
		}
		xor := raw(st.parity)
		lost := 0
		for _, k := range members {
			if s.dead[k.Disk] {
				lost++
				continue
			}
			for w, x := range raw(k) {
				xor[w] ^= x
			}
		}
		if lost > 1 {
			t.Fatalf("stripe %d: %d members on dead drives", sid, lost)
		}
		if lost == 0 && slices.ContainsFunc(xor, func(x uint64) bool { return x != 0 }) {
			t.Fatalf("stripe %d (parity %v, members %v): stored parity is not the XOR of its members", sid, st.parity, members)
		}
		for _, k := range members {
			live := !s.dead[k.Disk]
			if live && lost > 0 {
				continue
			}
			got := make([]uint64, s.B)
			if _, err := s.rebuild(k, got); err != nil {
				t.Fatalf("stripe %d: rebuilding %v: %v", sid, k, err)
			}
			if live && !slices.Equal(got, raw(k)) {
				t.Fatalf("stripe %d: %v rebuilds to other bytes than it holds", sid, k)
			}
		}
	}
	if striped != len(s.stripeOf) || int64(striped) != s.ctr.StripedBlocks || int64(len(sids)) != s.ctr.ParityBlocks {
		t.Fatalf("directories disagree: %d members in %d stripes, stripeOf has %d, StripedBlocks %d, ParityBlocks %d",
			striped, len(sids), len(s.stripeOf), s.ctr.StripedBlocks, s.ctr.ParityBlocks)
	}
	buf := make([]uint64, s.B)
	for _, p := range disk.SortedAddrs(nil, s.sums) {
		if _, parity := s.parityAt[p]; parity || s.dead[p.Disk] {
			continue
		}
		if err := s.ReadOp([]disk.ReadReq{{Disk: p.Disk, Track: p.Track, Dst: buf}}); err != nil {
			t.Fatalf("reading %v back through the layer: %v", p, err)
		}
	}
}

// flushChecked is FlushParity followed by the invariant checker.
func flushChecked(t *testing.T, s *Store) {
	t.Helper()
	if err := s.FlushParity(); err != nil {
		t.Fatalf("FlushParity: %v", err)
	}
	checkInvariants(t, s)
}

// opModel drives a Store through a sequence of operations chosen by
// pick, the way an engine run does: a superstep writes fresh tracks,
// rewrites some of them (as the fault layer re-issues a write), seals the
// ones that leave together into groups and releases whole groups; the
// barrier flushes and takes a record, which a failed attempt returns to.
// Like the engines, it writes nothing to a dead drive. Beside the Store
// it keeps what every track must hold.
type opModel struct {
	t    *testing.T
	s    *Store
	D, B int
	pick func(n int) int // a choice in [0, n)
	live map[disk.Addr][]uint64
	// groups are the tracks written between two seals (a barrier seals
	// too), which leave together; the last one is open. since is the
	// tracks written since the barrier, the only ones a write may repeat.
	groups [][]disk.Addr
	since  []disk.Addr
	dead   int // the dead drive, -1 while none has died
	stamp  uint64
	// The last barrier: the layer's record, the allocator's state, and
	// what the model held.
	rec      []uint64
	mark     disk.StoreState
	atLive   map[disk.Addr][]uint64
	atGroups [][]disk.Addr
}

func (m *opModel) content() []uint64 {
	buf := make([]uint64, m.B)
	for i := range buf {
		m.stamp++
		buf[i] = m.stamp * 0x9e3779b97f4a7c15
	}
	return buf
}

func (m *opModel) write(addrs []disk.Addr) {
	reqs := make([]disk.WriteReq, len(addrs))
	for i, a := range addrs {
		reqs[i] = disk.WriteReq{Disk: a.Disk, Track: a.Track, Src: m.content()}
	}
	m.t.Logf("  write %v", addrs)
	if err := m.s.WriteOp(reqs); err != nil {
		m.t.Fatalf("WriteOp %v: %v", addrs, err)
	}
	for i, a := range addrs {
		m.live[a] = reqs[i].Src
	}
}

func (m *opModel) writeFresh() {
	var addrs []disk.Addr
	for d, n := m.pick(m.D), 1+m.pick(m.D); n > 0; d, n = (d+1)%m.D, n-1 {
		if d != m.dead {
			addrs = append(addrs, disk.Addr{Disk: d, Track: m.s.Alloc(d)})
		}
	}
	if len(addrs) == 0 {
		return
	}
	m.write(addrs)
	last := len(m.groups) - 1
	m.groups[last] = append(m.groups[last], addrs...)
	m.since = append(m.since, addrs...)
}

// rewrite repeats writes of this superstep's tracks, one a live drive.
func (m *opModel) rewrite() {
	var addrs []disk.Addr
	used := make(map[int]bool)
	for n := 1 + m.pick(m.D); n > 0 && len(m.since) > 0; n-- {
		a := m.since[m.pick(len(m.since))]
		if _, ok := m.live[a]; ok && !used[a.Disk] && a.Disk != m.dead {
			used[a.Disk] = true
			addrs = append(addrs, a)
		}
	}
	if len(addrs) > 0 {
		m.write(addrs)
	}
}

// seal closes the open group: what is written next shares no stripe
// with it.
func (m *opModel) seal() {
	m.s.Seal()
	if len(m.groups[len(m.groups)-1]) > 0 {
		m.groups = append(m.groups, nil)
	}
}

// release frees every track of a closed group, without I/O.
func (m *opModel) release() {
	closed := len(m.groups) - 1
	if closed == 0 {
		return
	}
	i := m.pick(closed)
	for _, a := range m.groups[i] {
		m.releaseTrack(a)
	}
	m.groups = slices.Delete(m.groups, i, i+1)
}

func (m *opModel) releaseTrack(a disk.Addr) {
	m.t.Logf("  release %v", a)
	before := m.s.inner.Stats().Ops
	if err := m.s.Release(a.Disk, a.Track); err != nil {
		m.t.Fatalf("Release %v: %v", a, err)
	}
	if got := m.s.inner.Stats().Ops; got != before {
		m.t.Fatalf("Release %v issued %d operations", a, got-before)
	}
	delete(m.live, a)
}

// read checks one live track, wherever the superstep is.
func (m *opModel) read() {
	all := disk.SortedAddrs(nil, m.live)
	if len(all) == 0 {
		return
	}
	a := all[m.pick(len(all))]
	got := make([]uint64, m.B)
	if err := m.s.ReadOp([]disk.ReadReq{{Disk: a.Disk, Track: a.Track, Dst: got}}); err != nil {
		m.t.Fatalf("ReadOp %v: %v", a, err)
	}
	if !slices.Equal(got, m.live[a]) {
		m.t.Fatalf("track %v reads %x, want %x", a, got, m.live[a])
	}
}

// flush is the barrier: flush, check the invariants and every live
// track's content, and take the record.
func (m *opModel) flush() {
	if err := m.s.FlushParity(); err != nil {
		m.t.Fatalf("FlushParity: %v", err)
	}
	checkInvariants(m.t, m.s)
	got := make([]uint64, m.B)
	for _, a := range disk.SortedAddrs(nil, m.live) {
		if err := m.s.ReadOp([]disk.ReadReq{{Disk: a.Disk, Track: a.Track, Dst: got}}); err != nil {
			m.t.Fatalf("ReadOp %v: %v", a, err)
		}
		if !slices.Equal(got, m.live[a]) {
			m.t.Fatalf("after a flush track %v reads %x, want %x", a, got, m.live[a])
		}
	}
	m.barrier()
}

// barrier takes the record a failed attempt returns to, as the engines
// take it: the allocator's state and the layer's EncodeState.
func (m *opModel) barrier() {
	enc := words.NewEncoder(nil)
	m.mark = m.s.State()
	m.s.EncodeState(enc)
	m.rec = enc.Words()
	if len(m.groups) == 0 || len(m.groups[len(m.groups)-1]) > 0 {
		m.groups = append(m.groups, nil)
	}
	m.since = nil
	m.atLive, m.atGroups = maps.Clone(m.live), slices.Clone(m.groups)
}

// rollback is a superstep attempt that fails: the allocator and the
// layer go back to the barrier's record as the engines return them
// (disk.Rollback, then DecodeState in replay mode), and the tracks the
// attempt wrote are blank again as far as anyone knows.
func (m *opModel) rollback() {
	m.t.Logf("  rollback")
	if err := disk.Rollback(m.s, m.mark); err != nil {
		m.t.Fatal(err)
	}
	if err := m.s.DecodeState(words.NewDecoder(m.rec), true); err != nil {
		m.t.Fatal(err)
	}
	m.live, m.groups = maps.Clone(m.atLive), slices.Clone(m.atGroups)
	m.since = nil
}

func (m *opModel) step(op int) {
	m.t.Logf("op %d (%d live)", op, len(m.live))
	switch op {
	case 0:
		m.writeFresh()
	case 1:
		m.rewrite()
	case 2:
		m.seal()
	case 3:
		m.release()
	case 4:
		m.read()
	case 5:
		m.flush()
	case 6:
		m.rollback()
	case 7:
		if m.dead < 0 {
			m.dead = m.pick(m.D)
			m.s.DriveDied(m.dead)
		}
	}
}

// runOps runs one sequence to its end: everything released, and nothing
// left behind.
func runOps(t *testing.T, mode Mode, D int, steps func() bool, pick func(n int) int) {
	const B = 4
	s, _ := mkMode(t, mode, D, B)
	m := &opModel{t: t, s: s, D: D, B: B, pick: pick, live: make(map[disk.Addr][]uint64), dead: -1}
	m.barrier()
	for steps() {
		// Writes are the common operation, a death the rare one.
		m.step([]int{0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7}[pick(15)])
	}
	m.flush()
	for _, a := range disk.SortedAddrs(nil, m.live) {
		m.releaseTrack(a)
	}
	m.flush()
	if c := s.Counters(); len(s.stripes) != 0 || c.StripedBlocks != 0 || c.ParityBlocks != 0 || len(s.sums) != 0 {
		t.Fatalf("everything released, yet %d stripes, StripedBlocks %d, ParityBlocks %d, %d checksums remain", len(s.stripes), c.StripedBlocks, c.ParityBlocks, len(s.sums))
	}
}

// TestRandomOps: 2,000 seeded sequences of fresh writes, repeated writes
// of this superstep's tracks, seals, releases of whole groups, reads,
// flushes, rolled-back attempts and one drive death, the invariants
// checked at every flush; and 600 more under mirror, whose stripes are
// one member wide.
func TestRandomOps(t *testing.T) {
	for _, mode := range []Mode{Parity, Mirror} {
		for _, D := range []int{2, 3, 4, 8} {
			seeds, prefix := uint64(500), ""
			if mode == Mirror {
				if D == 2 {
					continue // parity's stripes are one member wide there too
				}
				seeds, prefix = 200, "mirror/"
			}
			for seed := uint64(0); seed < seeds; seed++ {
				rng := prng.New(prng.Derive(seed, 0x0b5, uint64(D)))
				n := 10 + rng.Intn(60)
				ok := t.Run(fmt.Sprintf("%sD%d/seed%d", prefix, D, seed), func(t *testing.T) {
					runOps(t, mode, D, func() bool { n--; return n >= 0 }, rng.Intn)
				})
				if !ok {
					return
				}
			}
		}
	}
}

// FuzzParityOps is TestRandomOps with the choices read from the input:
// the first byte picks D and the width — one member under mirror, D-1
// under parity — every later one a choice.
func FuzzParityOps(f *testing.F) {
	f.Add([]byte{2, 0, 0, 5, 3, 0, 5, 2, 0, 5})
	f.Add([]byte{1, 0, 0, 0, 11, 14, 0, 0, 1, 0, 13, 2, 0, 1, 11})
	f.Add(bytes.Repeat([]byte{3, 0, 7, 12, 1}, 20))
	f.Add([]byte{6, 0, 0, 1, 4, 5, 0, 14, 0, 2, 5, 0, 13, 1, 0, 5})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		D, mode := []int{2, 3, 4, 8}[int(in[0])%4], []Mode{Parity, Mirror}[int(in[0])/4%2]
		in = in[1:]
		if len(in) > 400 {
			in = in[:400]
		}
		pick := func(n int) int {
			if len(in) == 0 {
				return 0
			}
			b := int(in[0])
			in = in[1:]
			return b % n
		}
		runOps(t, mode, D, func() bool { return len(in) > 0 }, pick)
	})
}

// TestReleaseLeavesStripe pins what leaving a stripe costs (TestDiscard
// until PR 23, when the engine's stale contexts became released tracks and
// Discard, the leaver that kept its track, went). A stripe released whole
// is dropped at the flush with no operation and gives its parity track
// back; a stripe that only part of its members have left is refused; a
// released track
// allocated and written after the flush is a fresh write.
func TestReleaseLeavesStripe(t *testing.T) {
	const D, B, rows = 4, 8, 6
	s, raw := mkStore(t, D, B)
	addrs := writeTracks(t, s, D, B, rows)
	flushChecked(t, s)
	bySid := make(map[int][]disk.Addr)
	for _, a := range addrs {
		bySid[s.stripeOf[a]] = append(bySid[s.stripeOf[a]], a)
	}
	if ideal := rows * D / (D - 1); len(bySid) > ideal+D {
		t.Fatalf("%d tracks form %d stripes, want about %d", len(addrs), len(bySid), ideal)
	}
	release := func(as ...disk.Addr) {
		t.Helper()
		before := raw.Stats().Ops
		for _, a := range as {
			if err := s.Release(a.Disk, a.Track); err != nil {
				t.Fatalf("Release %v: %v", a, err)
			}
		}
		if got := raw.Stats().Ops - before; got != 0 {
			t.Fatalf("Release issued %d operations", got)
		}
	}
	flushOps := func() (ops, reads int64) {
		t.Helper()
		b := raw.Stats()
		flushChecked(t, s)
		a := raw.Stats()
		return a.Ops - b.Ops, a.ReadOps - b.ReadOps
	}
	freed := func(a disk.Addr) bool { return slices.Contains(raw.State().Free[a.Disk], a.Track) }

	// An unstriped track leaves no stripe; a member leaves at once, and
	// neither goes back to the allocator before the flush.
	blank := disk.Addr{Disk: 0, Track: s.Alloc(0)}
	c0 := s.Counters()
	whole := bySid[s.stripeOf[addrs[0]]]
	release(blank, whole[0])
	if c := s.Counters(); c.StripedBlocks != c0.StripedBlocks-1 || len(s.left) != 1 || freed(blank) || freed(whole[0]) {
		t.Fatalf("one member and one unstriped track released: StripedBlocks %d → %d, %d leavers, handed over early: %v, %v",
			c0.StripedBlocks, c.StripedBlocks, len(s.left), freed(blank), freed(whole[0]))
	}

	// A survivor of a stripe with a pending leaver still rebuilds.
	got, want := make([]uint64, B), make([]uint64, B)
	if _, err := s.rebuild(whole[1], got); err != nil {
		t.Fatalf("rebuild beside a leaver: %v", err)
	}
	if pattern(want, whole[1].Disk, whole[1].Track); !slices.Equal(got, want) {
		t.Fatalf("survivor %v rebuilds wrongly between Release and the flush", whole[1])
	}

	// The whole stripe: no operation, and the parity track comes back with
	// the members'.
	release(whole[1:]...)
	parity := s.stripes[s.stripeOf[whole[0]]].parity
	pb := s.Counters().ParityBlocks
	if ops, _ := flushOps(); ops != 0 {
		t.Errorf("flush after a whole stripe was released took %d operations, want 0", ops)
	}
	if c := s.Counters(); c.ParityBlocks != pb-1 {
		t.Errorf("ParityBlocks %d → %d, want one fewer", pb, c.ParityBlocks)
	}
	for _, a := range append([]disk.Addr{parity, blank}, whole...) {
		if !freed(a) {
			t.Errorf("track %v of the dropped stripe (or beside it) was not freed at the flush", a)
		}
	}

	// One member each of three stripes: the flush refuses the first before
	// it changes anything, and takes the three once the rest of their
	// members have left too — without an operation.
	var part, rest []disk.Addr
	for _, a := range addrs {
		if sid, ok := s.stripeOf[a]; ok && len(part) < 3 && !slices.ContainsFunc(part, func(b disk.Addr) bool { return s.stripeOf[b] == sid }) {
			part = append(part, a)
		}
	}
	for _, a := range addrs {
		if sid, ok := s.stripeOf[a]; ok && !slices.Contains(part, a) && slices.ContainsFunc(part, func(b disk.Addr) bool { return s.stripeOf[b] == sid }) {
			rest = append(rest, a)
		}
	}
	release(part...)
	b, c1 := raw.Stats(), s.Counters()
	var ce *ContractError
	if err := s.FlushParity(); !errors.As(err, &ce) || ce.Op != "FlushParity" || !slices.Contains(part, ce.Track) {
		t.Fatalf("flush with one member each of 3 stripes left: %v, want a *ContractError naming one of %v", err, part)
	}
	if a, c := raw.Stats(), s.Counters(); a.Ops != b.Ops || c != c1 || len(s.left) != len(part) || len(s.held) != len(part) {
		t.Fatalf("the refused flush took %d operations, moved the counters (%+v → %+v) or settled leavers (%d left, %d held)", a.Ops-b.Ops, c1, c, len(s.left), len(s.held))
	}
	release(rest...)
	pb = s.Counters().ParityBlocks
	if ops, _ := flushOps(); ops != 0 || s.Counters().ParityBlocks != pb-3 {
		t.Errorf("the 3 stripes left whole took %d operations and ParityBlocks %d → %d, want none and 3 fewer", ops, pb, s.Counters().ParityBlocks)
	}

	// Release, flush, allocate, write: a fresh write, nothing read.
	b = raw.Stats()
	again := disk.Addr{Disk: part[0].Disk, Track: s.Alloc(part[0].Disk)}
	buf := make([]uint64, B)
	pattern(buf, again.Disk, again.Track)
	if err := s.WriteOp([]disk.WriteReq{{Disk: again.Disk, Track: again.Track, Src: buf}}); err != nil {
		t.Fatal(err)
	}
	if a := raw.Stats(); !slices.Contains(append(part, rest...), again) || a.ReadOps != b.ReadOps || a.WriteOps != b.WriteOps+1 {
		t.Errorf("the drive's next allocation is %v (released: %v); writing it took %d reads and %d writes, want 0 and 1", again, append(part, rest...), a.ReadOps-b.ReadOps, a.WriteOps-b.WriteOps)
	}
	flushChecked(t, s)
	checkTrack(t, s, again, B)

	// A replay of the barrier's record after a release brings the member
	// back, and the release is no longer held for the flush.
	rec := words.NewEncoder(nil)
	s.EncodeState(rec)
	release(again)
	if err := s.DecodeState(words.NewDecoder(rec.Words()), true); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.stripeOf[again]; !ok || len(s.left)+len(s.held) != 0 {
		t.Fatalf("the replay left %v out of its stripe (%d leavers, %d held releases)", again, len(s.left), len(s.held))
	}
	flushChecked(t, s)
	s.DriveDied(again.Disk)
	checkTrack(t, s, again, B)
}

// TestReleasedTracksSurviveUntilTheRecord is the post-commit crash
// window: a barrier releases the input it consumed, flushes, and the
// process dies before the decision record lands. The last record still
// names the released tracks, so nothing the flush does — no parity track
// it allocates, no wipe — may touch them: the resumed run reads them.
// Over drive files, because the in-memory array wipes at Release.
func TestReleasedTracksSurviveUntilTheRecord(t *testing.T) {
	const D, B = 4, 8
	cfg := disk.Config{D: D, B: B}
	dir := t.TempDir()
	raw, err := disk.OpenFile(dir, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Wrap(raw)
	if err != nil {
		t.Fatal(err)
	}
	old := writeTracks(t, s, D, B, 4)
	flushChecked(t, s)
	enc := words.NewEncoder(nil)
	s.EncodeState(enc)
	manifest, allocSt := slices.Clone(enc.Words()), raw.State()
	if err := raw.Sync(); err != nil {
		t.Fatal(err)
	}
	// The next superstep: two rounds written, the first four released.
	writeTracks(t, s, D, B, 2)
	for _, a := range old {
		if err := s.Release(a.Disk, a.Track); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FlushParity(); err != nil {
		t.Fatal(err)
	}
	if err := raw.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := raw.Close(); err != nil { // SIGKILL before the record
		t.Fatal(err)
	}

	raw2, err := disk.OpenFile(dir, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	defer raw2.Close()
	s2, err := resumeFrom(t, raw2, allocSt, manifest)
	if err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	for _, a := range old {
		checkTrack(t, s2, a, B)
	}
	flushChecked(t, s2)
}
