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
// carries its sleep bits, a count word and ⌈owned VPs/64⌉ words.
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
//
// modelRules 15 → 16 (the block writer matches an operation's blocks to
// drives, DESIGN.md §7) moved all of them by the fingerprint word alone.
// Checked against the commit before with modelRules held at 15: every
// record is the commit before's, word for word. Old → new:
//
//	RUN P=1               0xaf5a671068a545ca 0x53a4eae16c25060d → 0x6ab8f4114f8bf3c3 0x945bc531e116902e
//	RUN P=2               0x27327aab1982eed5 0xaba08820f3163011 → 0x015ea963880642a8 0x101888efdf3e7b00
//	file+parity+faults    0x37606fb669332527 0x8481542182ab25bf → 0x0cc2ce42a37c5090 0x1178ea5107664a26
//	file+mirror+death     0x50d123027c0548e8 0xbbe0c2b41f3841b1 → 0x608e5e6a78af6443 0x239927f8397ca5fc
//	mapped+parity         0x6a98813bd4f7c457 0x816278927de7f5fc → 0xdec028df14c5a742 0x2b5dfc933ab7b40f
//	NODE 0                0x483d9f857dc4af9a 0xdfcbbff0cb7768ec → 0x902be5df60ef8a15 0x9bfab3ab21373b15
//	NODE 1                0x46eaf5aae2292dc8 0x910885e9fef97c06 → 0x59dbc75a258164f3 0x15b7571e5552de09
//	CORD                  0x5ea236e10a68ed73 0x48dae754ab7cf201 → 0x729ca9c0b3cba7b8 0xeb4d77b1a0c83f38
//
// modelRules 16 → 17 (contexts go through the block writer and are read
// with their batch's messages, DESIGN.md §22.1) moved all of them by the
// fingerprint word. Checked against the commit before with modelRules
// held at 16: record 0 of every RUN and NODE row moved too, by the
// set-up's placement of the contexts, and record 1 of the two parity
// rows, by the order the redundancy layer fills its stripes in (the
// writer requests an operation's blocks in drive order); every other
// record 1 and both CORD records are the commit before's, word for word.
// Old → new:
//
//	RUN P=1               0x6ab8f4114f8bf3c3 0x945bc531e116902e → 0x8b76ba7ecfae012c 0xc8c9580fbf4a3577
//	RUN P=2               0x015ea963880642a8 0x101888efdf3e7b00 → 0x2505e669df264e37 0x5a48a1d78c19a16f
//	file+parity+faults    0x0cc2ce42a37c5090 0x1178ea5107664a26 → 0x02e5c7e0cb13711d 0x92e6ed263659ca6d
//	file+mirror+death     0x608e5e6a78af6443 0x239927f8397ca5fc → 0x9ede93df83782bfe 0x21c947c3c0eb1c27
//	mapped+parity         0xdec028df14c5a742 0x2b5dfc933ab7b40f → 0xb1f8a493540a6ced 0x151793ccf28969fc
//	NODE 0                0x902be5df60ef8a15 0x9bfab3ab21373b15 → 0xf12448bcaad8a3ec 0xcb29f5f3200fe29e
//	NODE 1                0x59dbc75a258164f3 0x15b7571e5552de09 → 0x90f49318c6e74e26 0xc42ada97bcf29864
//	CORD                  0x729ca9c0b3cba7b8 0xeb4d77b1a0c83f38 → 0xd990ce51b68ab7f5 0x4fa56ecfc9ec92ff
//
// modelRules 17 → 18 (a message record's header is two words, and the
// tails of a superstep's last round share blocks, DESIGN.md §21.1) moved
// all of them by the fingerprint word, and every record 1 by more:
// superstep 0 writes fewer message blocks, so the directory, the
// allocator state and the counts differ, and the CORD record 1 by the
// model's communication and I/O counts. The layout of none moved.
// Checked against the commit before with modelRules held at 17: every
// record 0 is the commit before's, word for word (the set-up writes no
// message). Old → new:
//
//	RUN P=1               0x8b76ba7ecfae012c 0xc8c9580fbf4a3577 → 0xbd4f909cd506fe65 0x301cb9d6b296caa2
//	RUN P=2               0x2505e669df264e37 0x5a48a1d78c19a16f → 0x2dd9e4aca7de145a 0x22a51f1679884374
//	file+parity+faults    0x02e5c7e0cb13711d 0x92e6ed263659ca6d → 0x16fa4ea5c5f445a6 0x913cd87ce7cbd911
//	file+mirror+death     0x9ede93df83782bfe 0x21c947c3c0eb1c27 → 0xa285d32dd989ed21 0x11084d06572a41a3
//	mapped+parity         0xb1f8a493540a6ced 0x151793ccf28969fc → 0xac7406045d447878 0xc745cb1350b54475
//	NODE 0                0xf12448bcaad8a3ec 0xcb29f5f3200fe29e → 0x4a069db255c068c3 0xc2446d0c02bb69db
//	NODE 1                0x90f49318c6e74e26 0xc42ada97bcf29864 → 0x481eb524de684326 0x5c65e12b4af2e069
//	CORD                  0xd990ce51b68ab7f5 0x4fa56ecfc9ec92ff → 0x0572a70fcd8e897a 0x1dc7b14e000c88f9
//
// modelRules 18 → 19 (PutUints writes an array whose values all fit in
// half a word two values a word, DESIGN.md §23.2) moved all of them by
// the fingerprint word alone. Checked against the commit before with
// modelRules held at 18: every record is the commit before's, word for
// word. Old → new:
//
//	RUN P=1               0xbd4f909cd506fe65 0x301cb9d6b296caa2 → 0x4139de6247c832be 0xd5619d68569152dd
//	RUN P=2               0x2dd9e4aca7de145a 0x22a51f1679884374 → 0xf61e469a5f880921 0x3862b18954e643a1
//	file+parity+faults    0x16fa4ea5c5f445a6 0x913cd87ce7cbd911 → 0xc363640f5ef895e3 0x82070e52238358f8
//	file+mirror+death     0xa285d32dd989ed21 0x11084d06572a41a3 → 0x0d0928422f2c927c 0xfea5254ac3ccd5d2
//	mapped+parity         0xac7406045d447878 0xc745cb1350b54475 → 0x680e5943acbd65f3 0x28300bd4427c7324
//	NODE 0                0x4a069db255c068c3 0xc2446d0c02bb69db → 0x96e5a34071756a54 0xb3dea214d7a5ad18
//	NODE 1                0x481eb524de684326 0x5c65e12b4af2e069 → 0x4e552abb6119ec5c 0x6ea5da355e1c23ff
//	CORD                  0x0572a70fcd8e897a 0x1dc7b14e000c88f9 → 0x6998f4ef4ffb1a27 0x7546de5dfe2f9aea
//
// modelRules 19 → 20 (the fault layer keeps no per-track checksums, and
// the fingerprint lost its two placeholder slots) moved all of them by
// the fingerprint word, and the two rows with a fault plan by the layout
// of the fault section too, which lost the checksum directory — its count
// and three words a track — and the second copy of the drive count, before
// the dead drives. Checked word by word against the commit before: every
// other word of every record is the commit before's. Old → new:
//
//	RUN P=1               0x4139de6247c832be 0xd5619d68569152dd → 0x3957fb914129c8a4 0x4dbcd014c334f6bf
//	RUN P=2               0xf61e469a5f880921 0x3862b18954e643a1 → 0x34d5e46846d9ff83 0x67325541bcca561f
//	file+parity+faults    0xc363640f5ef895e3 0x82070e52238358f8 → 0xd1ec82dd119dd463 0x2cdcb71a01dc60cb
//	file+mirror+death     0x0d0928422f2c927c 0xfea5254ac3ccd5d2 → 0xd175bf83e9b5ccb0 0x33c26801ad8dd966
//	mapped+parity         0x680e5943acbd65f3 0x28300bd4427c7324 → 0xe366f0cef04dbd89 0xe4cf2352528672aa
//	NODE 0                0x96e5a34071756a54 0xb3dea214d7a5ad18 → 0x67c89ec5f206867f 0x334255733675f2c7
//	NODE 1                0x4e552abb6119ec5c 0x6ea5da355e1c23ff → 0xabe8d0f50e1ce7cc 0x0486e277509a406f
//	CORD                  0x6998f4ef4ffb1a27 0x7546de5dfe2f9aea → 0x13df696ca2fd3531 0x702d4c75e012b9d4
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
		1: {0x3957fb914129c8a4, 0x4dbcd014c334f6bf},
		2: {0x34d5e46846d9ff83, 0x67325541bcca561f},
	} {
		run(fmt.Sprintf("RUN P=%d", p), p, opts, want)
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
		}, [2]uint64{0xd1ec82dd119dd463, 0x2cdcb71a01dc60cb}},
		{"file+mirror+drive death", 1, func(o *core.Options) {
			o.Redundancy = redundancy.Mirror
			o.FaultPlan = &fault.Plan{Seed: 11, FailDriveOp: 12, FailDrive: 1}
		}, [2]uint64{0xd175bf83e9b5ccb0, 0x33c26801ad8dd966}},
		{"mapped+parity", 2, func(o *core.Options) {
			o.MappedStore = true
			o.Redundancy = redundancy.Parity
		}, [2]uint64{0xe366f0cef04dbd89, 0xe4cf2352528672aa}},
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
	check("NODE 0", node0, [2]uint64{0x67c89ec5f206867f, 0x334255733675f2c7})
	check("NODE 1", node1, [2]uint64{0xabe8d0f50e1ce7cc, 0x486e277509a406f})
	check("CORD", coord, [2]uint64{0x13df696ca2fd3531, 0x702d4c75e012b9d4})
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
// listrank 72768 → 9673 and 54656 → 7417; and when the sort stopped
// storing an index word a record, breaking ties by place: sort 404 → 223
// with setup 50 → 26 and MemHigh 13824 → 7360, and 164 → 94 with MemHigh
// 13952 → 7488; and when a batch's contexts came to share parallel
// operations with its messages, read and write: sort 223 → 218, where
// the others hold one batch a processor, whose contexts never move; and
// when message records lost two header words, last-round tails came to
// share blocks and the sort stopped saving its splitters: sort 218 → 210
// and 94 → 90, listrank 296 → 274 and 320 → 298, MemHigh 7360 → 6976,
// 9673 → 9545, 7488 → 7040 and 7417 → 7289; and when the Ranker came to
// pack its arrays two values a word: listrank MemHigh 9545 → 8009 and
// 7289 → 6137, its operations equal — one batch a processor, whose
// contexts never move).
func TestGoldenRowsOverTheWire(t *testing.T) {
	sort := workload.Spec{Alg: "sort", N: 8192, V: 16, Seed: 7}
	listrank := workload.Spec{Alg: "listrank", N: 2048, V: 8, Seed: 7}
	for _, row := range []struct {
		spec                                   workload.Spec
		p                                      int
		runOps, setupOps, routeOps, memHighWds int64
	}{
		{sort, 2, 210, 26, 0, 6976},
		{listrank, 2, 274, 0, 0, 8009},
		{sort, 3, 90, 0, 0, 7040},
		{listrank, 3, 298, 0, 0, 6137},
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
// message, payload + 1, and 1 more), the message blocks written, the
// streams sent and the tails that went into another's shared block.
type fillMeter struct {
	core.Transport
	encoded, joinedNow                      int
	words, blocks, streams, evicted, joined []int // per superstep
}

func (m *fillMeter) Compute(j, step int) ([]*core.BatchOut, error) {
	outs, err := m.Transport.Compute(j, step)
	for _, bo := range outs {
		for _, t := range bo.Traffic {
			m.encoded += t.SendWords + t.Messages
		}
	}
	return outs, err
}

func (m *fillMeter) Write(j, step int, outs []*core.BatchOut) error {
	m.joinedNow += core.JoinedTails(m.Transport, j, step, outs)
	return m.Transport.Write(j, step, outs)
}

func (m *fillMeter) Totals() ([]core.StepTotals, error) {
	blocks, streams := core.MessageBlocks(m.Transport)
	m.words, m.blocks, m.streams = append(m.words, m.encoded), append(m.blocks, blocks), append(m.streams, streams)
	m.evicted, m.joined = append(m.evicted, core.EvictedStreams(m.Transport)), append(m.joined, m.joinedNow)
	m.encoded, m.joinedNow = 0, 0
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
// superstep, and one more per eviction: a packer holds at most
// ⌈(µ+1)/B⌉ tails open and evicts the fullest when all are taken, and
// the evicted cell's next record starts a new stream (DESIGN.md §21.7).
// So there are at most P × cells streams and the evictions, which the
// meter counts and the rows pin. Re-pinned when a
// processor came to keep one stream a cell for the whole superstep, its
// tails open across its rounds (DESIGN.md §21.7), where each sending
// batch ended a stream of its own: every row where a processor runs more
// than one batch writes fewer blocks, the benchmark's sort_mem 387 → 337
// and listrank_par 765 → 440. Re-pinned when the sort stopped storing an
// index word a record (ties are broken by place, DESIGN.md §5): its
// all-to-all carries half the words, and sort_mem's µ fell from 6,403
// to 3,267 words, so 7 tails serve its 11 cells and 51 evictions start
// streams (62 in its all-to-all superstep).
//
// Re-pinned when a record's header became two words (dst<<32|src,
// seq<<32|len) and the tails of a superstep's last round came to share
// blocks per cell (DESIGN.md §21.1). A message of w counted words is a
// record of w + 1, so every row writes fewer blocks: the golden sort's
// all-to-all 158 → 149, the benchmark's listrank_par 440 → 322 over its
// run, of which 48 went with the shorter headers and 70 are tails that
// went into another's block. A shared tail is a block the
// one-partial-block-a-stream bound allows and sharing saved, so the bound
// is checked on the blocks and those tails together, and the rows pin
// them. The streams are counted by their senders' packers, since a
// shared block is listed under its first segment alone, and the shared
// tails by the meter, which packs each last writing phase's tails as
// that phase will (JoinedTails).
func TestMessageBlockFill(t *testing.T) {
	sort := workload.Spec{Alg: "sort", N: 8192, V: 16, Seed: 7}
	listrank := workload.Spec{Alg: "listrank", N: 2048, V: 8, Seed: 7}
	for _, row := range []struct {
		spec    workload.Spec
		p, b    int
		seed    uint64
		blocks  []int // per superstep
		evicted int   // the streams an eviction started, over the run
		joined  int   // the tails written into another's shared block, over the run
	}{
		// The golden sort's all-to-all sends 256 messages of 64 words,
		// which at B = 64 took two blocks each (512; 303 with cells cut
		// by bucket range; 298 in 9 streams with a stream a sending
		// batch; 296 in 3; 158 at 32 words a message; now 149).
		{sort, 1, 64, 7, []int{10, 11, 149, 0}, 0, 0},
		{sort, 2, 64, 7, []int{10, 12, 149, 0}, 0, 3},
		{listrank, 1, 64, 7, []int{108, 86, 57, 40, 29, 20, 15, 11, 7, 7, 25, 35, 29, 17, 7, 2, 2, 0}, 0, 0},
		// One batch a processor, two cells: each cell's tails from the two
		// senders share a block where they fit, 13 times over the run.
		{listrank, 2, 64, 7, []int{109, 86, 57, 40, 29, 20, 14, 11, 7, 7, 24, 36, 29, 16, 6, 2, 2, 0}, 0, 13},
		// The benchmark's sort_mem instance: 73,728 encoded words in 66
		// streams in its all-to-all (81,920 in 62 with four-word record
		// headers, 147,456 in 11 with an index word a record). Its
		// streams end where a tail is evicted or in the one round that
		// runs: no tail is left to share with another sender's.
		{workload.Spec{Alg: "sort", N: 65536, V: 64, Seed: 1}, 1, 512, 7, []int{17, 22, 170, 0}, 55, 0},
		// The benchmark's listrank_par instance: 131,097 encoded words in
		// 322 blocks and 236 streams, 70 of whose tails share a block (392
		// blocks with none shared; 154,859 words in 440 blocks with
		// four-word record headers; 765 blocks in 674 streams with a
		// stream a sending batch).
		{workload.Spec{Alg: "listrank", N: 8192, V: 32, Seed: 1}, 2, 512, 1,
			[]int{55, 46, 32, 23, 17, 13, 11, 7, 6, 6, 6, 2, 6, 10, 16, 19, 16, 12, 6, 6, 6, 1, 0, 0}, 0, 70},
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
		evicted, joined := 0, 0
		for step, blocks := range m.blocks {
			// A tail that joined another's block is a block the bound
			// allows and sharing saved.
			if bound := (m.words[step]+c-1)/c + m.streams[step]; blocks+m.joined[step] > bound {
				t.Errorf("%s superstep %d: %d message blocks and %d shared tails for %d encoded words in %d streams, want <= %d",
					label, step, blocks, m.joined[step], m.words[step], m.streams[step], bound)
			}
			if bound := row.p*cells + m.evicted[step]; m.streams[step] > bound {
				t.Errorf("%s superstep %d: %d streams, want <= %d (sending processors × cells, and %d evictions)", label, step, m.streams[step], bound, m.evicted[step])
			}
			evicted, joined = evicted+m.evicted[step], joined+m.joined[step]
		}
		if !slices.Equal(m.blocks, row.blocks) || evicted != row.evicted || joined != row.joined {
			t.Errorf("%s: message blocks per superstep are %v (for %v encoded words in %v streams, %v started by an eviction, %v tails shared), want %v blocks, %d evictions and %d shared tails",
				label, m.blocks, m.words, m.streams, m.evicted, m.joined, row.blocks, row.evicted, row.joined)
		}
	}
}
