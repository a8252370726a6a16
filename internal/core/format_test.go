package core_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"embsp/internal/core"
	"embsp/internal/disk"
	"embsp/internal/fault"
	"embsp/internal/journal"
	"embsp/internal/redundancy"
	"embsp/internal/workload"
)

// TestManifestFormatsPinned: the journal records are formats other
// binaries resume from, so they cannot move silently. The checksums of
// the first two committed records (the setup barrier's and superstep
// 0's) of one tiny fixed run, per manifest kind, were computed at the
// commit before the superstep driver was written once (PR 16); a change
// that moves one must bump modelRules or the kind tag and say why.
//
// modelRules 2 → 3 (PR 18, packed message blocks) moved all of them: the
// layout of every record is unchanged, but each carries the fingerprint,
// which folds modelRules in, and superstep 0's carries the allocator and
// operation counts of a superstep that now writes fewer message blocks.
//
// modelRules 3 → 4 (PR 20, packed contexts and load-cut buckets) moved
// all of them again, and changed the layout: every processor section
// carries, after each of its two context areas, that area's table of
// blocks in use per batch (encodeProcManifest). Record 0 differs by the
// fingerprint, the tables and the setup's allocator state (an area now
// takes only the tracks its blocks occupy); record 1 also by the counts
// of a superstep that moves the context blocks in use and routes through
// D equal buckets.
//
// modelRules 4 → 5 (PR 21, blocks read where their writer put them)
// moved all of them once more, and the layout again: every processor
// section ends, after the store chain's state, with the unrouted input's
// directory — a batch count, then per batch and drive the list of tracks
// (encodeDirectory); 0 in record 0, which has no input yet. Record 0
// differs by the fingerprint (modelRules, and the routing override it
// now folds in) and that word; record 1 also by superstep 0's
// directory in place of its routed regions and areas, and by the
// allocator and operation counts of a superstep that routes nothing —
// under parity, also of a flush that reads back in full operations.
//
// modelRules 5 → 6 (PR 22, parity folded at write) moved all of them by
// the fingerprint word, and the layout of none but the parity section,
// whose counter list gained ParityReadOps. The two parity rows differ by
// more. file+parity+faults: record 0 holds the stripes the setup's writes
// formed in write order (parity tracks allocated between the context
// blocks, not after them) and a setup that read nothing back; record 1 a
// directory of superstep 0's stripes alone — the setup's left whole at
// the commit, their checksums with them — and the counts of a barrier
// with no read. mapped+tier+parity: the same two moves on each of two
// processors. The mirror row, and the RUN, NODE and CORD rows without a
// layer, hold what they held.
//
// modelRules 6 → 7 (PR 23, contexts on allocated tracks) moved all of
// them by the fingerprint word, and — as they would have with modelRules
// held at 6 — every RUN and NODE row by the layout of the processor
// section too; the two CORD rows, which have none, by the fingerprint
// alone. A section no longer carries the area cursor, two context areas
// with their used-block tables, or the peak-live count; it carries the
// context directory (per batch one list, a word a block, encodeContexts)
// and, so that both directories can be checked against the allocator
// state before the store adopts it (claimTracks), the input directory and
// the context directory now come before the store chain's state instead
// of after it. Record 0 also holds an allocator that handed out only the
// tracks the initial contexts fill, record 1 one whose free lists hold the
// generation superstep 0 read; the parity and mirror rows in addition the
// stripes, checksums and mirror copies of other tracks, and the faulted
// row other fault draws (they follow the drive a block goes to).
//
// modelRules 7 → 8 (PR 24, every input is the directory its writer
// filled) moved all of them by the fingerprint word — modelRules, and the
// routing override no longer folded in — and the two CORD rows by that
// word alone. Every RUN and NODE row also moved by the layout of the
// processor section, which lost the six words that described a routed
// input and its cost: the input's block count (the directory's lists say
// it), the region count and the area count (0 and 0 in every record a
// default run ever wrote) and the two-word list of routing and ragged-slot totals
// (0, 0). Nothing else in a record moved: the allocator states, the
// directories, the layers' sections and every count are the parent's.
//
// modelRules 8 → 9 (PR 25, the turnaround batch held in internal memory)
// moved all of them by the fingerprint word, and every RUN and NODE row by
// the layout of the processor section too: after the context directory it
// carries the held batch — its index (-1: none) and, for a batch, its VP
// count and each VP's record [length, words…] — before the store chain's
// state. On this machine (k = 64 of v/P ≤ 16 VPs) a processor owns one
// batch, the turnaround batch of every barrier, so that section holds all
// of its contexts: record 0 also holds a set-up that wrote nothing (an
// empty context directory, an allocator that handed out no track, no
// operation in the statistics), record 1 a superstep that read and wrote
// message blocks alone (other placements, other fault draws); the two
// CORD rows moved by the
// fingerprint and the counts of those barriers. The journal no longer
// keeps record 0 beside record 1: the test reads each as it is committed.
//
// modelRules 9 → 10 (a mirror is a one-member stripe of the redundancy
// layer, and the fault layer only injects) moved all of them by the
// fingerprint word — modelRules, and no FaultPlan.Mirror word — and the
// RUN, NODE and CORD rows without a layer by that word alone (checked
// against the commit before with only that word changed). The two parity rows also
// moved by their layer sections, and by nothing else: the fault section
// lost the MirrorOps counter and the empty mirror directory's count, the
// parity section the three rebuild cursors and the RebuiltBlocks counter.
// The mirror row moved by its new chain besides: the copies are the
// redundancy layer's stripes of one member, allocated beside the tracks
// they copy and listed in a parity section of their own, and the fault
// section holds no mirror directory.
//
// modelRules 10 → 11 (a track allocated and not written since reads blank
// by the allocator state, which journals such fresh tracks) moved all of
// them by the fingerprint word, and every RUN and NODE row by the layout
// of the store state too: after each drive's free list comes its fresh
// list, in the form of PutInts. Checked word by word against the commit
// before: every record differs by the fingerprint word and by one 0 per
// drive of each store state (no track is fresh at a barrier of this run),
// and by nothing else; the two CORD rows, which carry no store state, by
// the fingerprint alone.
//
// modelRules 11 → 12 (one stream per sending processor and cell a
// superstep, its tail blocks open across the processor's rounds, and a
// block header that carries its own fill and a last-chunk flag in place
// of the stream's total, DESIGN.md §21) moved all of them by the
// fingerprint word, and every record 1 but the CORD row's by more: on
// this machine a processor runs one batch, so it writes as many message
// blocks as before, but they leave in another order — full blocks as
// they fill, the last blocks at the close — and land on other drives,
// so the directory and the allocator state differ. Checked against the
// commit before with modelRules held at 11: every record 0 and both CORD
// records are the commit before's, word for word.
//
// modelRules 12 → 13 (a VP that votes halt sleeps until a message arrives
// for it, and a batch of sleepers with no input is skipped, DESIGN.md §24)
// moved all of them by the fingerprint word, and every RUN and NODE record
// by the layout as well: after the held section each processor section
// carries its sleep bits, ⌈owned VPs/64⌉ words in the form of PutUints.
// Checked against the commit before with modelRules held at 12 and the
// sleep section left out: every record is the commit before's, word for
// word (no superstep 0 skips a batch: nobody sleeps before it). Old → new:
//
//	RUN P=1               0xaa0d1ef0e506bfaa 0x68c894131e493cef → 0x4303eec25158f41e 0x53caae8153ac4249
//	RUN P=2               0xc56ab23e60f7c17a 0x6afedc9fa51822e3 → 0xf97d6db633989417 0xffb0fe68b6a18fee
//	file+parity+faults    0x6557e9c18c74be4  0x205bd92c3b7fe182 → 0x1d13ed27ef4a0712 0xed3239aded2ea9e6
//	file+mirror+death     0x3e7de635096eb1eb 0x38bb7a6252a16cd6 → 0x2cae7ed17c7426c5 0xaa94a1a75cd65c32
//	mapped+tier+parity    0xe20d3888b266690a 0x8cdac9a400f3c8ab → 0x6edd28deb65f4815 0x90e28bf00d7b7c3c
//	NODE 0                0x505f95cba6547422 0x85ef7ce3067ae11e → 0xceca95a024ffa704 0x85875495b3dd4c32
//	NODE 1                0x3832818a119b19eb 0x537bb68023e2574c → 0x49384a77d013c694 0x6b7874a4a4481cf3
//	CORD                  0xffb9e98955f1b80a 0xa8efc5d4285b0112 → 0x61692876554f1871 0x0a839ca00ec5588f
//
// modelRules 13 → 14 (every message block goes to the processor that
// owns its destination VP, DESIGN.md §5) moved all of them by the
// fingerprint word, and the P = 2 rows' record 1 by more: the blocks of
// superstep 0 land on their owners, so the directory, the allocator state
// and the counts of a RUN P = 2, mapped+tier+parity and NODE record 1
// differ, and the CORD record 1 by the model's communication and I/O
// counts. The layout of none moved. Checked against the commit before
// with modelRules held at 13: every record 0 and every P = 1 record is
// the commit before's, word for word. Old → new:
//
//	RUN P=1               0x4303eec25158f41e 0x53caae8153ac4249 → 0xc9aa3ca14089c335 0x0ef9b7caf932f7e8
//	RUN P=2               0xf97d6db633989417 0xffb0fe68b6a18fee → 0x357537e9fe335758 0x36765290e0807490
//	file+parity+faults    0x1d13ed27ef4a0712 0xed3239aded2ea9e6 → 0xaf3fe319c01ab715 0xed318660451872a3
//	file+mirror+death     0x2cae7ed17c7426c5 0xaa94a1a75cd65c32 → 0x0163e7366db330e6 0x9435d010fb0dd773
//	mapped+tier+parity    0x6edd28deb65f4815 0x90e28bf00d7b7c3c → 0xa14c4b9f2d02ecae 0x43043199e074ce7b
//	NODE 0                0xceca95a024ffa704 0x85875495b3dd4c32 → 0x41118726def2b46c 0xaa8cb0187672e7fe
//	NODE 1                0x49384a77d013c694 0x6b7874a4a4481cf3 → 0xa75e4621b95bebef 0x3b6dfbb6f2156815
//	CORD                  0x61692876554f1871 0x0a839ca00ec5588f → 0x77539dc3019ab030 0x5bc7a8969ef6d100
//
// Charging a batch's contexts for the blocks they fill instead of k·µ
// (DESIGN.md §22.2) moved every RUN and NODE record 0 by its memHigh
// word, the only accounting a processor section carries, and nothing
// else: modelRules stays at 14, no I/O moved. The set-up grabs the words
// of its largest batch, here ⌈2k/B⌉·B for k·B; by the barrier of
// superstep 0 the high-water mark is set by the message words, as
// before, so every record 1 and both CORD records are unchanged. Old →
// new:
//
//	RUN P=1               0xc9aa3ca14089c335 → 0x1c8121b544722315
//	RUN P=2               0x357537e9fe335758 → 0x8aa1fbfc7d0fad78
//	file+parity+faults    0xaf3fe319c01ab715 → 0xcaa74a5e384b0875
//	file+mirror+death     0x0163e7366db330e6 → 0xc35696be893c8446
//	mapped+tier+parity    0xa14c4b9f2d02ecae → 0x3e6f1b9abef5d32e
//	NODE 0                0x41118726def2b46c → 0x03a052e5ef2b685c
//	NODE 1                0xa75e4621b95bebef → 0xe4cf7a62a92337ff
//
// modelRules 14 → 15 (the redundancy layer's record lost its scrub
// cursor, its remap table and three counters, and Options its scrub bit,
// DESIGN.md §10) moved all of them by the fingerprint word, and the three
// layered rows by the layer's shorter record too. Checked against the
// commit before with modelRules held at 14 and the scrub bit's slot kept:
// every RUN P = 1 and P = 2, NODE and CORD record is the commit before's,
// word for word. Old → new:
//
//	RUN P=1               0x1c8121b544722315 0x0ef9b7caf932f7e8 → 0xaf5a671068a545ca 0x53a4eae16c25060d
//	RUN P=2               0x8aa1fbfc7d0fad78 0x36765290e0807490 → 0x27327aab1982eed5 0xaba08820f3163011
//	file+parity+faults    0xcaa74a5e384b0875 0xed318660451872a3 → 0x37606fb669332527 0x8481542182ab25bf
//	file+mirror+death     0xc35696be893c8446 0x9435d010fb0dd773 → 0x50d123027c0548e8 0xbbe0c2b41f3841b1
//	mapped+tier+parity    0x3e6f1b9abef5d32e 0x43043199e074ce7b → 0x6a98813bd4f7c457 0x816278927de7f5fc
//	NODE 0                0x03a052e5ef2b685c 0xaa8cb0187672e7fe → 0x483d9f857dc4af9a 0xdfcbbff0cb7768ec
//	NODE 1                0xe4cf7a62a92337ff 0x3b6dfbb6f2156815 → 0x46eaf5aae2292dc8 0x910885e9fef97c06
//	CORD                  0x77539dc3019ab030 0x5bc7a8969ef6d100 → 0x5ea236e10a68ed73 0x48dae754ab7cf201
//
// The mapped+parity row was mapped+tier+parity while the engine could
// stack a store tier (DESIGN.md §17). A tier never entered a record, so
// the row kept its words when the tier left it.
func TestManifestFormatsPinned(t *testing.T) {
	prog := clusterProgram()
	opts := core.Options{Seed: 7}
	// The journal keeps the last record alone (PR 25), so the first two are
	// read as they are committed: in process when OnCommit reports them, on
	// the cluster rig at the next superstep's first vote, when every node
	// has committed its own.
	sums := func(dir string, into *[]uint64) {
		last, n, err := journal.Read(dir)
		if err != nil {
			t.Fatal(err)
		}
		if n == len(*into)+1 && n <= 2 {
			*into = append(*into, disk.Checksum(last))
		}
	}
	check := func(kind string, got []uint64, want [2]uint64) {
		t.Helper()
		if len(got) != 2 || [2]uint64(got) != want {
			t.Errorf("%s records 0 and 1: checksums %#x, want %#x", kind, got, want)
		}
	}
	run := func(kind string, p int, o core.Options, want [2]uint64) {
		t.Helper()
		o.StateDir = t.TempDir()
		var got []uint64
		o.OnCommit = func(int) { sums(o.StateDir, &got) }
		if _, err := core.Run(prog, parMachine(p, 2, 8, 256), o); err != nil {
			t.Fatal(err)
		}
		check(kind, got, want)
	}
	for p, want := range map[int][2]uint64{
		1: {0xaf5a671068a545ca, 0x53a4eae16c25060d},
		2: {0x27327aab1982eed5, 0xaba08820f3163011},
	} {
		run("RUN", p, opts, want)
	}
	// Layered chains, whose records carry the optional fault and parity
	// sections after the store state; first computed at the commit before
	// the layers became links of one chain (PR 17).
	for _, row := range []struct {
		name string
		p    int
		with func(*core.Options)
		want [2]uint64
	}{
		{"file+parity+faults", 1, func(o *core.Options) {
			o.Redundancy = redundancy.Parity
			o.FaultPlan = &fault.Plan{Seed: 11, ReadErrorRate: 0.01, WriteErrorRate: 0.01, CorruptRate: 0.01}
		}, [2]uint64{0x37606fb669332527, 0x8481542182ab25bf}},
		{"file+mirror+drive death", 1, func(o *core.Options) {
			o.Redundancy = redundancy.Mirror
			o.FaultPlan = &fault.Plan{Seed: 11, FailDriveOp: 12, FailDrive: 1}
		}, [2]uint64{0x50d123027c0548e8, 0xbbe0c2b41f3841b1}},
		{"mapped+parity", 2, func(o *core.Options) {
			o.MappedStore = true
			o.Redundancy = redundancy.Parity
		}, [2]uint64{0x6a98813bd4f7c457, 0x816278927de7f5fc}},
	} {
		o := opts
		row.with(&o)
		run("RUN "+row.name, row.p, o, row.want)
	}
	root := t.TempDir()
	rig := openRig(t, prog, parMachine(2, 2, 8, 256), opts, root, false)
	var node0, node1, coord []uint64
	rig.fail = func(point string, step int) error {
		if point == "batches" {
			sums(filepath.Join(root, "node-0"), &node0)
			sums(filepath.Join(root, "node-1"), &node1)
			sums(filepath.Join(root, "coord"), &coord)
		}
		return nil
	}
	rig.run(t)
	rig.close()
	check("NODE 0", node0, [2]uint64{0x483d9f857dc4af9a, 0xdfcbbff0cb7768ec})
	check("NODE 1", node1, [2]uint64{0x46eaf5aae2292dc8, 0x910885e9fef97c06})
	check("CORD", coord, [2]uint64{0x5ea236e10a68ed73, 0x48dae754ab7cf201})
}

// TestGoldenRowsOverTheWire runs the P > 1 instances of the root
// package's golden table (golden_test.go: same programs, machine and
// seed) a second time through the NodeEngine transport, with every
// BlockBatch encoded and decoded between phases, and requires the
// table's numbers. Nodes are always durable, so the
// table's fingerprints — which also hash how each store classifies a
// drive's accesses as sequential or random — are replaced by the
// fingerprint of the in-process run on the same file store. Re-pinned
// with the table (PR 21: every node leaves its blocks where its writer
// put them, so routeOps is 0 and runOps falls by Algorithm 2's share;
// PR 25: the turnaround batch never leaves a node's memory, and where a
// node owns one batch no context moves at all; listrank again when the
// Ranker came to splice local maxima, in 18 supersteps for 23: 438 → 368
// and 474 → 400; and when a Ranker context came to hold only what its
// phase reads, which shrank µ and the notifications' blocks: 368 → 304,
// MemHigh 76864 → 72768, and 400 → 328, 57728 → 54656; and when a
// processor came to keep one stream a cell for the superstep: sort's two
// batches a processor at P = 2 write fewer message blocks, 409 → 406,
// MemHigh 26688 → 26624; and when every block came to be delivered to
// the processor that owns its destination VP, which moves placement:
// sort 406 → 404 and 168 → 164, listrank 304 → 296 and 328 → 320; and
// when a batch came to hold the words its contexts fill instead of k·µ,
// which moved MemHigh alone: sort 26624 → 13824 and 26688 → 13952,
// listrank 72768 → 9673 and 54656 → 7417).
func TestGoldenRowsOverTheWire(t *testing.T) {
	sort := workload.Spec{Alg: "sort", N: 8192, V: 16, Seed: 7}
	listrank := workload.Spec{Alg: "listrank", N: 2048, V: 8, Seed: 7}
	for _, row := range []struct {
		spec                                   workload.Spec
		p                                      int
		runOps, setupOps, routeOps, memHighWds int64
	}{
		{sort, 2, 404, 50, 0, 13824},
		{listrank, 2, 296, 0, 0, 9673},
		{sort, 3, 164, 0, 0, 13952},
		{listrank, 3, 320, 0, 0, 7417},
	} {
		inst, err := row.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := workload.Machine(inst.Program, row.p, 4, 64, 6, 1000)
		rig := openRig(t, inst.Program, cfg, core.Options{Seed: 7}, t.TempDir(), false)
		rig.wire = true
		res := rig.run(t)
		rig.close()
		label := fmt.Sprintf("%s p=%d", row.spec.Alg, row.p)
		want := [4]int64{row.runOps, row.setupOps, row.routeOps, row.memHighWds}
		if got := [4]int64{res.EM.Run.Ops, res.EM.Setup.Ops, res.EM.RouteOps, res.EM.MemHigh}; got != want {
			t.Errorf("%s: run, setup and route ops and MemHigh are %v, want %v", label, got, want)
		}
		oracle, err := core.Run(inst.Program, cfg, core.Options{Seed: 7, StateDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := workload.Fingerprint(res), workload.Fingerprint(oracle); got != want {
			t.Errorf("%s: fingerprint %#x over the wire, %#x in process", label, got, want)
		}
	}
}

// fillMeter watches a run's supersteps on their way to the engine: the
// words its messages encode to (a record is the counted words of a
// message, payload + 1, and 3 more) and the message blocks written.
type fillMeter struct {
	core.Transport
	encoded                int
	words, blocks, streams []int // per superstep
}

func (m *fillMeter) Compute(j, step int) ([]*core.BatchOut, error) {
	outs, err := m.Transport.Compute(j, step)
	for _, bo := range outs {
		for _, t := range bo.Traffic {
			m.encoded += t.SendWords + 3*t.Messages
		}
	}
	return outs, err
}

func (m *fillMeter) Totals() ([]core.StepTotals, error) {
	blocks, streams := core.MessageBlocks(m.Transport)
	m.words, m.blocks, m.streams = append(m.words, m.encoded), append(m.blocks, blocks), append(m.streams, streams)
	m.encoded = 0
	return m.Transport.Totals()
}

// TestMessageBlockFill: Theorem 1 counts full blocks, so a superstep
// writes no more message blocks than its encoded words fill, plus one
// partial last block per stream. The counts are pinned: before streams
// were packed every message had a block of its own — the last row wrote
// 4,224 blocks in its all-to-all superstep for 4,096 messages of 32
// words — and a change that pads blocks again must show here. Re-pinned
// when cells became whole batches (PR 20): a batch's messages for one
// destination batch are one stream where they were one per Step 1(d)
// bucket range, so there are fewer partial last blocks. Re-pinned when
// the Ranker came to splice local maxima (DESIGN.md §23): listrank takes
// 18 supersteps for 23; a splice round sends a third more splices (a
// third of the nodes, not a quarter) in about as many blocks, at 8 words
// a splice where there were 11; and later rounds find fewer nodes left.
// Re-pinned when a splice record lost its weight word (a subscriber adds
// its own, DESIGN.md §23.1), 7 words a splice, and an expansion step came
// to send its rank notifications one message a destination VP: the
// splice rounds write about a tenth fewer blocks and the expansion steps
// about half.
//
// A stream is one per (sending processor, destination cell) a
// superstep, so there are at most P × cells of them. Re-pinned when a
// processor came to keep one stream a cell for the whole superstep, its
// tails open across its rounds (DESIGN.md §21.7), where each sending
// batch ended a stream of its own: every row where a processor runs more
// than one batch writes fewer blocks, the benchmark's sort_mem 387 → 337
// and listrank_par 765 → 440.
func TestMessageBlockFill(t *testing.T) {
	sort := workload.Spec{Alg: "sort", N: 8192, V: 16, Seed: 7}
	listrank := workload.Spec{Alg: "listrank", N: 2048, V: 8, Seed: 7}
	for _, row := range []struct {
		spec   workload.Spec
		p, b   int
		seed   uint64
		blocks []int // per superstep
	}{
		// The golden sort's all-to-all sends 256 messages of 64 words,
		// which at B = 64 took two blocks each (512; 303 with cells cut
		// by bucket range; 298 in 9 streams with a stream a sending
		// batch; now 296 in 3).
		{sort, 1, 64, 7, []int{10, 11, 296, 0}},
		{sort, 2, 64, 7, []int{10, 12, 300, 0}},
		{listrank, 1, 64, 7, []int{111, 89, 60, 42, 31, 23, 18, 13, 7, 8, 27, 37, 31, 18, 8, 2, 2, 0}},
		// One batch a processor: nothing to merge.
		{listrank, 2, 64, 7, []int{113, 90, 61, 43, 32, 23, 18, 15, 8, 8, 28, 39, 33, 20, 10, 3, 3, 0}},
		// The benchmark's sort_mem instance: 147,456 encoded words in
		// 11 streams (121 with a stream a sending batch, 343 blocks).
		{workload.Spec{Alg: "sort", N: 65536, V: 64, Seed: 1}, 1, 512, 7, []int{17, 22, 298, 0}},
		// The benchmark's listrank_par instance: 154,859 encoded words in
		// 440 blocks and 236 streams (765 blocks in 674 streams with a
		// stream a sending batch).
		{workload.Spec{Alg: "listrank", N: 8192, V: 32, Seed: 1}, 2, 512, 1,
			[]int{64, 52, 42, 32, 24, 20, 13, 12, 12, 12, 12, 2, 6, 12, 22, 25, 24, 18, 12, 12, 11, 1, 0, 0}},
	} {
		inst, err := row.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		var m *fillMeter
		res, err := core.RunOver(func(inner core.Transport) core.Transport {
			m = &fillMeter{Transport: inner}
			return m
		}, inst.Program, workload.Machine(inst.Program, row.p, 4, row.b, 6, 1000), core.Options{Seed: row.seed})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%s n=%d v=%d B=%d P=%d", row.spec.Alg, row.spec.N, row.spec.V, row.b, row.p)
		c, cells := row.b-5, row.p*res.EM.Groups
		for step, blocks := range m.blocks {
			if bound := (m.words[step]+c-1)/c + m.streams[step]; blocks > bound {
				t.Errorf("%s superstep %d: %d message blocks for %d encoded words in %d streams, want <= %d",
					label, step, blocks, m.words[step], m.streams[step], bound)
			}
			if m.streams[step] > row.p*cells {
				t.Errorf("%s superstep %d: %d streams, want <= %d (sending processors × cells)", label, step, m.streams[step], row.p*cells)
			}
		}
		if !slices.Equal(m.blocks, row.blocks) {
			t.Errorf("%s: message blocks per superstep are %v (for %v encoded words in %v streams), want %v", label, m.blocks, m.words, m.streams, row.blocks)
		}
	}
}
