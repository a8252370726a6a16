package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"embsp/internal/core"
	"embsp/internal/disk"
	"embsp/internal/fault"
	"embsp/internal/redundancy"
	"embsp/internal/words"
	"embsp/internal/workload"
)

// Contexts live on allocated tracks (DESIGN.md §22): a batch's save takes
// exactly the tracks its packed records fill and the context directory —
// barrier state, one list a batch — says where they are. These tests hold
// what that buys (a disk footprint that is a count of tracks in use) and
// what it needs (a directory every restore of a barrier restores, and a
// record that is checked before it is believed).

// marksAtFinal records the allocators' bump marks when the run is over.
type marksAtFinal struct {
	core.Transport
	marks [][]int
}

func (m *marksAtFinal) Final() ([]*core.NodeReport, error) {
	m.marks = core.AllocatorMarks(m.Transport)
	return m.Transport.Final()
}

// TestLiveBlocksAreDriveFiles: LiveBlocksPerDrive is the most tracks any
// drive had allocated at once — the allocator reuses a released track
// before it extends a drive, so that is the largest bump mark — and a
// durable run's drive files are exactly that long: bump mark × slot bytes
// on the file store, the mapping that holds it on the mapped one. For a
// program that declares
// µ = 10 blocks and saves a word it is the handful of tracks three
// one-block batches need, not the 120/D the declaration would reserve.
func TestLiveBlocksAreDriveFiles(t *testing.T) {
	for _, spec := range []workload.Spec{{Alg: "sort", N: 8192, V: 16, Seed: 7}, {Alg: "listrank", N: 2048, V: 8, Seed: 7}} {
		for _, p := range []int{1, 2} {
			for _, mapped := range []bool{false, true} {
				inst, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				cfg := workload.Machine(inst.Program, p, 4, 64, 6, 1000)
				dir := t.TempDir()
				var m *marksAtFinal
				res, err := core.RunOver(func(inner core.Transport) core.Transport {
					m = &marksAtFinal{Transport: inner}
					return m
				}, inst.Program, cfg, core.Options{Seed: 7, StateDir: dir, MappedStore: mapped})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s P=%d mapped=%v", spec.Alg, p, mapped)
				largest := 0
				for proc, marks := range m.marks {
					for d, mark := range marks {
						largest = max(largest, mark)
						fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("proc-%02d", proc), fmt.Sprintf("drive-%03d.dat", d)))
						if err != nil {
							t.Fatal(err)
						}
						// The mapped store maps whole tracks in powers of two
						// from 64: its file is the mapping, the first that
						// holds the mark.
						tracks := mark
						if mapped {
							for tracks = 64; tracks < mark; tracks *= 2 {
							}
						}
						if want := int64(tracks * (cfg.B + 2) * 8); fi.Size() != want {
							t.Errorf("%s: drive %d of processor %d is %d bytes, want %d: %d tracks of [magic, checksum, B words] for a bump mark of %d", label, d, proc, fi.Size(), want, tracks, mark)
						}
					}
				}
				if res.EM.LiveBlocksPerDrive != int64(largest) || largest == 0 {
					t.Errorf("%s: LiveBlocksPerDrive = %d, the largest bump mark is %d", label, res.EM.LiveBlocksPerDrive, largest)
				}
			}
		}
	}

	// Three batches of one block each, two of them on disk and the
	// turnaround batch in memory. The block writer holds both blocks a
	// superstep writes until its last flush, by when in place both loads
	// have released their tracks, which the flush takes back: one track a
	// drive (2 while each save allocated its track at once, and the batch
	// held across the barrier was saved before any load had released
	// one). A checkpointed run holds the generation it would roll back to
	// beside the one it writes.
	prog := &oneWord{v: 12, mu: 160, steps: 3}
	cfg := parMachine(1, 4, 16, 640)
	for _, row := range []struct {
		durable bool
		want    int64
	}{{false, 1}, {true, 2}} {
		opts := core.Options{Seed: 1}
		if row.durable {
			opts.StateDir = t.TempDir()
		}
		res, err := core.Run(prog, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.EM.CtxBlocksPerVP != 11 || res.EM.LiveBlocksPerDrive != row.want {
			t.Errorf("durable=%v: a VP may hold %d blocks and LiveBlocksPerDrive = %d, want 11 and %d", row.durable, res.EM.CtxBlocksPerVP, res.EM.LiveBlocksPerDrive, row.want)
		}
	}
}

// savedContexts is what every VP of a result saves.
func savedContexts(res *core.Result) [][]uint64 {
	var all [][]uint64
	for _, vp := range res.VPs {
		enc := words.NewEncoder(nil)
		vp.Save(enc)
		all = append(all, enc.Words())
	}
	return all
}

// setupMeter also reads the replay count as the set-up returns.
type setupMeter struct {
	marksAtFinal
	setupReplays int64
}

func (m *setupMeter) Setup() ([]disk.Stats, error) {
	stats, err := m.Transport.Setup()
	m.setupReplays = core.Replays(m.Transport)
	return stats, err
}

// TestSetupReplayLeaksNoTracks: the set-up allocates the tracks it
// writes, so a replay of it starts from the allocator the set-up found —
// and the parity and fault layers' directories with it. With retries off
// and a write-error rate that fails the first attempts, the run ends with
// the bump marks of the run no fault touched, and the same result.
func TestSetupReplayLeaksNoTracks(t *testing.T) {
	inst, err := workload.Spec{Alg: "sort", N: 8192, V: 16, Seed: 7}.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		for _, mode := range []redundancy.Mode{redundancy.None, redundancy.Parity} {
			cfg := workload.Machine(inst.Program, p, 4, 64, 6, 1000)
			run := func(plan *fault.Plan) (*core.Result, *setupMeter) {
				var m *setupMeter
				res, err := core.RunOver(func(inner core.Transport) core.Transport {
					m = &setupMeter{marksAtFinal: marksAtFinal{Transport: inner}}
					return m
				}, inst.Program, cfg, core.Options{Seed: 7, StateDir: t.TempDir(), Redundancy: mode, FaultPlan: plan, MaxRetries: -1})
				if err != nil {
					t.Fatal(err)
				}
				return res, m
			}
			clean, cm := run(nil)
			faulty, fm := run(&fault.Plan{Seed: 1, WriteErrorRate: 0.003})
			label := fmt.Sprintf("P=%d %v", p, mode)
			if fm.setupReplays == 0 {
				t.Fatalf("%s: the set-up was not replayed (%d replays in all); pick another plan seed", label, faulty.EM.Replays)
			}
			if !reflect.DeepEqual(cm.marks, fm.marks) {
				t.Errorf("%s: bump marks %v after %d set-up replays, %v in the clean run: a replay leaked tracks", label, fm.marks, fm.setupReplays, cm.marks)
			}
			if !reflect.DeepEqual(savedContexts(clean), savedContexts(faulty)) || !reflect.DeepEqual(clean.Costs, faulty.Costs) {
				t.Errorf("%s: the replayed run's result differs from the clean run's", label)
			}
		}
	}
}

// recordAt takes the processors' records as barrier `at` is committed.
type recordAt struct {
	core.Transport
	at   int
	recs []core.ProcRecord
}

func (m *recordAt) Commit(step int) error {
	if step == m.at {
		m.recs = core.ProcRecords(m.Transport)
	}
	return m.Transport.Commit(step)
}

// procRecordSeeds are real processor records of a barrier that holds an
// input, contexts on tracks and the turnaround batch's in memory, and has
// just released the ones before them: of a file run, of a file run under
// parity and faults, and of a cluster node. M = 24 words is k = 6 of the
// program's µ = 4: three batches a processor at P = 1, two at P = 2.
func procRecordSeeds(t testing.TB) []core.ProcRecord {
	t.Helper()
	prog, cfg := testProgram(), parMachine(1, 3, 8, 24)
	var seeds []core.ProcRecord
	for _, opts := range []core.Options{
		{Seed: 3},
		{Seed: 3, Redundancy: redundancy.Parity, FaultPlan: &fault.Plan{Seed: 11, ReadErrorRate: 0.01, WriteErrorRate: 0.01, CorruptRate: 0.01}},
	} {
		opts.StateDir = t.TempDir()
		var m *recordAt
		_, err := core.RunOver(func(inner core.Transport) core.Transport {
			m = &recordAt{Transport: inner, at: 1}
			return m
		}, prog, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, m.recs[0])
	}
	rig := openRig(t, prog, parMachine(2, 3, 8, 24), core.Options{Seed: 3}, t.TempDir(), false)
	rig.fail = func(point string, step int) error {
		if point == "decided" && step == 1 {
			seeds = append(seeds, rig.nodes[0].ProcRecord())
		}
		return nil
	}
	rig.run(t)
	rig.close()
	for i, rec := range seeds {
		if len(rec.Input) == 0 || len(rec.Contexts) < 2 || rec.HeldVPs == 0 {
			t.Fatalf("seed record %d names %d input and %d context tracks and holds %d VPs' records", i, len(rec.Input), len(rec.Contexts), rec.HeldVPs)
		}
	}
	return seeds
}

// TestResumeRefusesForgedContextDirectory: the context directory a record
// carries is read from and freed through, like the input's, so a record
// that names as contexts a track the allocator state beside it never
// handed out, holds free, or that is named already — as contexts or as
// input — is refused with the engine's typed error before the store has
// adopted anything; damage a record's checksum does not see, because it
// was there when the record was written.
func TestResumeRefusesForgedContextDirectory(t *testing.T) {
	for i, rec := range procRecordSeeds(t) {
		err, _, named, st, _ := rec.Decode(rec.Words)
		if err != nil || len(named) != len(rec.Input)+len(rec.Contexts) {
			t.Fatalf("seed %d: the record as written decodes to %v, naming %d tracks of %d", i, err, len(named), len(rec.Input)+len(rec.Contexts))
		}
		D := len(st.Next)
		input, contexts := named[:len(rec.Input)], named[len(rec.Input):]
		free := slices.IndexFunc(st.Free, func(f []int) bool { return len(f) > 0 })
		if free < 0 {
			t.Fatalf("seed %d: the barrier left no free track", i)
		}
		word := func(d, tr int) uint64 { return uint64(tr*D + d) }
		for _, forge := range []struct {
			at   int
			with uint64
			want string
		}{
			{rec.Contexts[0], word(contexts[0].Disk, st.Next[contexts[0].Disk]), "beyond the allocator's mark"},
			{rec.Contexts[0], word(free, st.Free[free][0]), "on the free list"},
			{rec.Contexts[0], rec.Words[rec.Contexts[1]], "already named as contexts"},
			{rec.Contexts[0], word(input[0].Disk, input[0].Track), "already named as input"},
			{rec.Input[0], uint64(st.Next[input[0].Disk]), "beyond the allocator's mark"},
			{rec.Input[0], ^uint64(0), "beyond the allocator's mark"},
		} {
			forged := slices.Clone(rec.Words)
			forged[forge.at] = forge.with
			err, untouched, _, _, _ := rec.Decode(forged)
			if !core.IsEngineError(err) || !strings.Contains(err.Error(), forge.want) || !untouched {
				t.Errorf("seed %d, word %d forged to %d: got %v (store untouched: %v), want the typed refusal of a track %s", i, forge.at, forge.with, err, untouched, forge.want)
			}
		}
	}
}

// TestResumeRefusesMalformedRecord: a record's lengths are checked
// before they are trusted. Every case below was a panic — an index past a
// short list, a read past the record's end — or an allocation sized by a
// forged count at the commit before (PR 23); each is refused now with the
// engine's typed error and the store untouched, and so is every record
// that ends before its allocator state does. So is a held section (PR 25)
// whose batch is not the one the next round 0 simulates, whether past the
// batches or not, whose record count is not that batch's VP count, or one
// of whose records is longer than µ + 1 words. And so is a record whose
// allocator state lists as fresh (modelRules 11) a track it names as input
// or as contexts: that track would read zeros. And so is one whose sleep
// bits (modelRules 13) are not one word per 64 VPs, or that sets a bit
// past its VPs.
func TestResumeRefusesMalformedRecord(t *testing.T) {
	const huge = 1 << 40
	for i, rec := range procRecordSeeds(t) {
		_, _, named, st, _ := rec.Decode(rec.Words)
		D := len(st.Next)
		// The allocator state opens with the statistics: a list of five
		// totals, a drive count, a list of four counts a drive; then a drive
		// count again and per drive two marks, the free list and the fresh
		// list.
		perDrive, alloc := rec.Store+6, rec.Store+7+5*D
		freshAt := func(d int) int {
			at := alloc + 1
			for dd := 0; dd < d; dd++ {
				at += 4 + len(st.Free[dd])
			}
			return at + 3 + len(st.Free[d])
		}
		for _, forge := range []struct {
			name string
			at   int
			with uint64
			want string
		}{
			{"two totals", rec.Store, 2, "holds 2 totals, want 5"},
			{"forged drive count of the statistics", perDrive, huge, "drives' statistics"},
			{"one count of a drive", perDrive + 1, 1, "holds 1 counts of a drive, want 4"},
			{"forged drive count of the allocator", alloc, huge, "drives' allocators"},
			{"forged free list length", alloc + 3, huge, "free tracks"},
			{"forged fresh list length", freshAt(0), huge, "fresh tracks"},
			{"forged batch count of the input", rec.Dir, 1 << 30, "batches of input"},
			{"forged input list length", rec.Dir + 1, huge, "input tracks"},
			{"forged context list length", rec.Contexts[0] - 1, ^uint64(0), "context tracks"},
			{"held batch past the batches", rec.Held, 1 << 20, "holds the contexts of batch 1048576 in memory"},
			{"held batch not the next round 0's", rec.Held, rec.Words[rec.Held] ^ 1, "in memory, want"},
			{"no held batch", rec.Held, ^uint64(0), "holds the contexts of batch -1 in memory"},
			{"held records a VP short", rec.Held + 1, uint64(rec.HeldVPs - 1), "held contexts, want"},
			{"held records a VP over", rec.Held + 1, uint64(rec.HeldVPs + 1), "held contexts, want"},
			{"held record over µ + 1 words", rec.Held + 2, uint64(rec.Mu + 1), "over µ + 1"},
			{"held record past the record", rec.Held + 2, huge, "context record of"},
			{"forged count of sleep words", rec.Sleep, huge, "words of sleep bits"},
			{"sleep bit past the VPs", rec.Sleep + 1, 1 << 63, "sleep bits past its"},
		} {
			forged := slices.Clone(rec.Words)
			forged[forge.at] = forge.with
			err, untouched, _, _, _ := rec.Decode(forged)
			if !core.IsEngineError(err) || !strings.Contains(err.Error(), forge.want) || !untouched {
				t.Errorf("seed %d, %s: got %v (store untouched: %v), want the typed refusal naming the %s", i, forge.name, err, untouched, forge.want)
			}
		}
		for n := 0; n < rec.Layers; n++ {
			if err, untouched, _, _, _ := rec.Decode(rec.Words[:n:n]); !core.IsEngineError(err) || !untouched {
				t.Fatalf("seed %d cut to %d of its %d words: got %v (store untouched: %v), want the typed refusal", i, n, len(rec.Words), err, untouched)
			}
		}
		for _, c := range []struct {
			as string
			a  disk.Addr
		}{{"input", named[0]}, {"contexts", named[len(rec.Input)]}} {
			at := freshAt(c.a.Disk)
			if rec.Words[at] != 0 {
				t.Fatalf("seed %d: drive %d lists %d fresh tracks at its barrier, want none", i, c.a.Disk, rec.Words[at])
			}
			forged := slices.Concat(rec.Words[:at], []uint64{1, uint64(c.a.Track)}, rec.Words[at+1:])
			err, untouched, _, _, _ := rec.Decode(forged)
			if !core.IsEngineError(err) || !strings.Contains(err.Error(), "as "+c.as) || !strings.Contains(err.Error(), "fresh") || !untouched {
				t.Errorf("seed %d, track %v listed fresh: got %v (store untouched: %v), want the typed refusal of a fresh track named as %s", i, c.a, err, untouched, c.as)
			}
		}
	}
}

// FuzzProcManifest forges real processor records, in any word up to and
// including the allocator state (the layers' own sections are theirs to
// check) — nudged, or copied from one another — and holds the decoder to
// this: it refuses with the engine's typed error and the store untouched,
// or the store adopts the record's allocator state and every track the
// directories name is allocated in it, not fresh (it would read zeros) and
// named once, so the releases a commit makes through them cannot free a
// track twice or one it never had.
func FuzzProcManifest(f *testing.F) {
	seeds := procRecordSeeds(f)
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0, 0, 67})
	f.Add(uint8(2), []byte{0, 1, 200, 1, 0, 3, 0, 9, 129})
	f.Fuzz(func(t *testing.T, kind uint8, edits []byte) {
		rec := seeds[int(kind)%len(seeds)]
		ws := slices.Clone(rec.Words)
		for ; len(edits) >= 3; edits = edits[3:] {
			i := (int(edits[0])<<8 | int(edits[1])) % rec.Layers
			if b := int(edits[2]); b < 128 {
				ws[i] += uint64(int64(b - 64))
			} else {
				ws[i] = ws[(i+b-128)%rec.Layers]
			}
		}
		err, untouched, named, st, held := rec.Decode(ws)
		if untouched {
			if !core.IsEngineError(err) {
				t.Fatalf("refused with %v, want the typed error", err)
			}
			return
		}
		// Accepted — if not by a layer, whose section a forged length
		// moved: the store adopted the state the directories were checked
		// against either way.
		seen := make(map[disk.Addr]bool)
		for _, a := range named {
			if a.Disk < 0 || a.Disk >= len(st.Next) || a.Track < 0 || a.Track >= st.Next[a.Disk] || slices.Contains(st.Free[a.Disk], a.Track) || seen[a] {
				t.Fatalf("accepted a record naming %v: out of range, free or named twice", a)
			}
			if st.Fresh != nil && slices.Contains(st.Fresh[a.Disk], a.Track) {
				t.Fatalf("accepted a record naming %v, which its allocator state lists fresh", a)
			}
			seen[a] = true
		}
		// And the held records it adopted are the next round 0's batch: one
		// a VP, none over µ + 1 words.
		if len(held) != 0 && len(held) != rec.HeldVPs {
			t.Fatalf("accepted %d held records for a batch of %d VPs", len(held), rec.HeldVPs)
		}
		for _, n := range held {
			if n > rec.Mu+1 {
				t.Fatalf("accepted a held record of %d words, over µ + 1 = %d", n, rec.Mu+1)
			}
		}
	})
}
