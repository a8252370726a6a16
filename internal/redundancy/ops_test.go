package redundancy

import (
	"bytes"
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
// drive is dead or that awaits a post-crash recomputation is exempt from
// the parity clauses. The checker's own I/O and counts are taken back, so
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
	if len(s.open)+len(s.filled)+len(s.left)+len(s.held)+len(s.pval)+len(s.pdirty)+len(s.rmwOld)+len(s.wrote) != 0 {
		t.Fatalf("after a flush: open %v, filled %v, %d leavers, %d held releases, %d cached and %d dirty parity blocks, %d barrier values, %d written marks — want none",
			s.open, s.filled, len(s.left), len(s.held), len(s.pval), len(s.pdirty), len(s.rmwOld), len(s.wrote))
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
		if !s.parityActive(sid) {
			continue
		}
		xor := raw(st.parity)
		lost := 0
		for _, k := range members {
			p, live := s.physOf(k)
			if !live {
				lost++
				continue
			}
			for w, x := range raw(p) {
				xor[w] ^= x
			}
		}
		if lost > 1 {
			t.Fatalf("stripe %d: %d members without a physical copy", sid, lost)
		}
		if lost == 0 && slices.ContainsFunc(xor, func(x uint64) bool { return x != 0 }) {
			t.Fatalf("stripe %d (parity %v, members %v): stored parity is not the XOR of its members", sid, st.parity, members)
		}
		for _, k := range members {
			p, live := s.physOf(k)
			if live && lost > 0 {
				continue
			}
			got := make([]uint64, s.B)
			if _, err := s.reconstruct(sid, k, got); err != nil {
				t.Fatalf("stripe %d: reconstructing %v: %v", sid, k, err)
			}
			if live && !slices.Equal(got, raw(p)) {
				t.Fatalf("stripe %d: %v reconstructs to other bytes than it holds", sid, k)
			}
		}
	}
	if striped != len(s.stripeOf) || int64(striped) != s.ctr.StripedBlocks || int64(len(sids)) != s.ctr.ParityBlocks {
		t.Fatalf("directories disagree: %d members in %d stripes, stripeOf has %d, StripedBlocks %d, ParityBlocks %d",
			striped, len(sids), len(s.stripeOf), s.ctr.StripedBlocks, s.ctr.ParityBlocks)
	}
	buf := make([]uint64, s.B)
	for _, p := range disk.SortedAddrs(s.sums) {
		if _, parity := s.parityAt[p]; parity || s.dead[p.Disk] {
			continue
		}
		k := p
		if l, ok := s.rrmap[p]; ok {
			k = l
		}
		if err := s.ReadOp([]disk.ReadReq{{Disk: k.Disk, Track: k.Track, Dst: buf}}); err != nil {
			t.Fatalf("reading %v back through the layer: %v", k, err)
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
// pick, keeping beside it what every track must hold.
type opModel struct {
	t    *testing.T
	s    *Store
	D, B int
	pick func(n int) int // a choice in [0, n)
	live map[disk.Addr][]uint64
	died bool
	// inPlace collects, during an attempt that will be rolled back, the
	// tracks it overwrote: a replay must write them again.
	inPlace map[disk.Addr]bool
	stamp   uint64
}

func (m *opModel) content() []uint64 {
	buf := make([]uint64, m.B)
	for i := range buf {
		m.stamp++
		buf[i] = m.stamp * 0x9e3779b97f4a7c15
	}
	return buf
}

// tracks returns the allocated tracks in order.
func (m *opModel) tracks() []disk.Addr { return disk.SortedAddrs(m.live) }

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
		if m.inPlace != nil {
			m.inPlace[a] = true
		}
	}
}

func (m *opModel) writeFresh() {
	var addrs []disk.Addr
	for d, n := m.pick(m.D), 1+m.pick(m.D); n > 0; d, n = (d+1)%m.D, n-1 {
		addrs = append(addrs, disk.Addr{Disk: d, Track: m.s.Alloc(d)})
	}
	m.write(addrs)
}

func (m *opModel) rewrite() {
	all := m.tracks()
	if len(all) == 0 {
		return
	}
	var addrs []disk.Addr
	used := make(map[int]bool)
	for n := 1 + m.pick(m.D); n > 0; n-- {
		if a := all[m.pick(len(all))]; !used[a.Disk] {
			used[a.Disk] = true
			addrs = append(addrs, a)
		}
	}
	m.write(addrs)
}

func (m *opModel) release() {
	if all := m.tracks(); len(all) > 0 {
		m.releaseTrack(all[m.pick(len(all))])
	}
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
	all := disk.SortedAddrs(m.live)
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
// track's content.
func (m *opModel) flush() {
	if err := m.s.FlushParity(); err != nil {
		m.t.Fatalf("FlushParity: %v", err)
	}
	checkInvariants(m.t, m.s)
	got := make([]uint64, m.B)
	for _, a := range disk.SortedAddrs(m.live) {
		if err := m.s.ReadOp([]disk.ReadReq{{Disk: a.Disk, Track: a.Track, Dst: got}}); err != nil {
			m.t.Fatalf("ReadOp %v: %v", a, err)
		}
		if !slices.Equal(got, m.live[a]) {
			m.t.Fatalf("after a flush track %v reads %x, want %x", a, got, m.live[a])
		}
	}
}

// rollback is a superstep attempt that fails: from a barrier, a few
// operations, then the allocator and the layer restored as the engines
// restore them — and, as a deterministic replay would, the tracks the
// attempt overwrote in place written again. (Or, now and then, released
// with the aborted attempt's bytes still in them: parity encodes their
// barrier value, which only the layer's cache holds.)
func (m *opModel) rollback() {
	m.flush()
	mark, sn := m.s.State(), m.s.Snapshot()
	live := maps.Clone(m.live)
	m.inPlace = make(map[disk.Addr]bool)
	for n := 1 + m.pick(6); n > 0; n-- {
		m.step(m.pick(5))
	}
	again := m.inPlace
	m.inPlace = nil
	if err := disk.Rollback(m.s, mark); err != nil {
		m.t.Fatal(err)
	}
	m.s.Restore(sn)
	m.live = live
	for _, a := range disk.SortedAddrs(again) {
		if _, ok := m.live[a]; !ok {
			continue
		}
		if m.pick(4) == 0 {
			m.releaseTrack(a)
		} else {
			m.write([]disk.Addr{a})
		}
	}
}

func (m *opModel) step(op int) {
	m.t.Logf("op %d (%d live)", op, len(m.live))
	switch op {
	case 0:
		m.writeFresh()
	case 1:
		m.rewrite()
	case 2, 3: // 3 was Discard, a leaver that kept its track, until PR 23
		m.release()
	case 4:
		m.read()
	case 5:
		m.flush()
	case 6:
		if m.inPlace == nil {
			m.rollback()
		}
	case 7:
		if !m.died && m.inPlace == nil {
			m.died = true
			m.s.DriveDied(m.pick(m.D))
		}
	}
}

// runOps runs one sequence to its end: everything released, and nothing
// left behind.
func runOps(t *testing.T, mode Mode, D int, steps func() bool, pick func(n int) int) {
	const B = 4
	s, _ := mkMode(t, mode, D, B)
	m := &opModel{t: t, s: s, D: D, B: B, pick: pick, live: make(map[disk.Addr][]uint64)}
	for steps() {
		// Writes are the common operation, a death the rare one.
		m.step([]int{0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7}[pick(15)])
	}
	m.flush()
	for _, a := range m.tracks() {
		if err := s.Release(a.Disk, a.Track); err != nil {
			t.Fatalf("Release %v: %v", a, err)
		}
	}
	m.live = nil
	m.flush()
	if c := s.Counters(); len(s.stripes) != 0 || c.StripedBlocks != 0 || c.ParityBlocks != 0 || len(s.remap) != 0 {
		t.Fatalf("everything released, yet %d stripes, StripedBlocks %d, ParityBlocks %d, %d remaps remain", len(s.stripes), c.StripedBlocks, c.ParityBlocks, len(s.remap))
	}
}

// TestRandomOps: 2,000 seeded sequences of fresh writes, rewrites,
// releases, reads, flushes, rolled-back attempts and one drive death, the
// invariants checked at every flush; and 600 more under mirror, whose
// stripes are one member wide.
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
// back; part of a stripe costs one batched fold, whatever the number of
// stripes; a released track allocated and written after the flush is a
// fresh write.
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

	// A survivor of a stripe with a pending leaver still reconstructs.
	got, want := make([]uint64, B), make([]uint64, B)
	if _, err := s.reconstruct(s.stripeOf[whole[1]], whole[1], got); err != nil {
		t.Fatalf("reconstruct beside a leaver: %v", err)
	}
	if pattern(want, whole[1].Disk, whole[1].Track); !slices.Equal(got, want) {
		t.Fatalf("survivor %v reconstructs wrongly between Release and the flush", whole[1])
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

	// One member each of three stripes: one batched fold — parity and
	// leaver of every stripe in a read or two, the parity written back.
	var part []disk.Addr
	for _, a := range addrs {
		if sid, ok := s.stripeOf[a]; ok && len(part) < 3 && !slices.ContainsFunc(part, func(b disk.Addr) bool { return s.stripeOf[b] == sid }) {
			part = append(part, a)
		}
	}
	readsOn, writesOn := make([]int64, D), make([]int64, D)
	for _, a := range part {
		parity := s.stripes[s.stripeOf[a]].parity
		readsOn[a.Disk]++
		readsOn[parity.Disk]++
		writesOn[parity.Disk]++
	}
	release(part...)
	c1 := s.Counters()
	ops, reads := flushOps()
	if wantR, wantW := slices.Max(readsOn), slices.Max(writesOn); reads != wantR || ops != wantR+wantW {
		t.Errorf("folding one leaver out of each of 3 stripes took %d reads and %d writes, want one batch: its fullest drive's %d and %d", reads, ops-reads, wantR, wantW)
	}
	if c := s.Counters(); c.ParityOps-c1.ParityOps != ops || c.ParityReadOps-c1.ParityReadOps != reads {
		t.Errorf("the fold's %d operations (%d reads) are counted as ParityOps +%d, ParityReadOps +%d", ops, reads, c.ParityOps-c1.ParityOps, c.ParityReadOps-c1.ParityReadOps)
	}

	// Release, flush, allocate, write: a fresh write, nothing read.
	b := raw.Stats()
	again := disk.Addr{Disk: part[0].Disk, Track: s.Alloc(part[0].Disk)}
	buf := make([]uint64, B)
	pattern(buf, again.Disk, again.Track)
	if err := s.WriteOp([]disk.WriteReq{{Disk: again.Disk, Track: again.Track, Src: buf}}); err != nil {
		t.Fatal(err)
	}
	if a := raw.Stats(); !slices.Contains(part, again) || a.ReadOps != b.ReadOps || a.WriteOps != b.WriteOps+1 {
		t.Errorf("the drive's next allocation is %v (released: %v); writing it took %d reads and %d writes, want 0 and 1", again, part, a.ReadOps-b.ReadOps, a.WriteOps-b.WriteOps)
	}
	flushChecked(t, s)
	checkTrack(t, s, again, B)

	// Restore after a release brings the member back, and the release is
	// no longer held for the flush.
	sn := s.Snapshot()
	release(again)
	s.Restore(sn)
	if _, ok := s.stripeOf[again]; !ok || len(s.left)+len(s.held) != 0 {
		t.Fatalf("Restore left %v out of its stripe (%d leavers, %d held releases)", again, len(s.left), len(s.held))
	}
	flushChecked(t, s)
	s.DriveDied(again.Disk)
	checkTrack(t, s, again, B)
}

// TestFoldVerifiesLeavers: the barrier folds no unverified bytes out of
// parity. A leaver whose bytes rotted since it was written, or a stored
// parity that did, turns the fold of that stripe into a recomputation
// from its verified members.
func TestFoldVerifiesLeavers(t *testing.T) {
	const D, B = 4, 8
	for _, rot := range []string{"leaver", "parity"} {
		t.Run(rot, func(t *testing.T) {
			s, raw := mkStore(t, D, B)
			addrs := writeTracks(t, s, D, B, 3)
			flushChecked(t, s)
			victim := addrs[0]
			sid := s.stripeOf[victim]
			if err := s.Release(victim.Disk, victim.Track); err != nil {
				t.Fatal(err)
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
			flushChecked(t, s)
			if c := s.Counters(); c.ChecksumFailures != 1 {
				t.Errorf("ChecksumFailures = %d, want 1", c.ChecksumFailures)
			}
			if _, ok := s.stripes[sid]; !ok || len(s.recompute) != 0 {
				t.Fatalf("stripe %d gone (%v) or still awaiting recomputation (%v)", sid, !ok, s.recompute)
			}
			s.DriveDied(addrs[1].Disk)
			for _, a := range addrs[1:] {
				checkTrack(t, s, a, B)
			}
		})
	}
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
	s2 := resumeFrom(t, raw2, allocSt, manifest)
	for _, a := range old {
		checkTrack(t, s2, a, B)
	}
	flushChecked(t, s2)
}
