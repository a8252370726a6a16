package embsp_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"embsp"
	"embsp/internal/disk"
	"embsp/internal/workload"
)

// goldenRow pins the seed-deterministic model numbers of one run: the
// result fingerprint (final contexts, BSP costs, full EMStats), the
// parallel I/O operation counts of the run and setup phases, the
// routing share, the engine memory high-water mark, and the most tracks
// any drive had allocated at once. A change that moves one must update
// the table and say why.
//
// Recorded before the stores were folded onto one EM-model core
// (PR 13); re-recorded when P=1 became a driver of the one step machine
// (PR 15), when a batch's messages were packed into shared blocks
// (PR 18), when its contexts were, and buckets cut by load (PR 20), and
// when blocks came to be read where their writer put them (PR 21), each
// moved column for the reason beside its rows; the two parity rows again
// when parity came to be folded at write (PR 22); the liveBlocks column
// added, and every fingerprint moved with it, when contexts went to
// allocated tracks (PR 23); and every row when the turnaround batch came
// to stay in internal memory (PR 25).
//
// Packed contexts: the Ranker, the Euler tour and CC pack their arrays
// two values a word (DESIGN.md §23.1), so only Group C rows move, each
// fingerprint with them. listrank P=1 runOps 827 → 553, setupOps 13 → 7,
// MemHigh 12919 → 10039, liveBlocks 68 → 59 and 74 → 62; at P = 2 and 3
// one batch a processor holds its contexts, so only MemHigh moves, 9545
// → 8009 and 7289 → 6137. euler P=1 8717 → 5194, MemHigh 21407 → 19634,
// liveBlocks 217 → 159, at P = 3 MemHigh 22050 → 19762; cc P=1 12068 →
// 8047, setupOps 67 → 34, MemHigh 35624 → 31208, liveBlocks 350 → 318,
// at P = 3 MemHigh 35688 → 31272. The faulted listrank rows drew their
// faults over fewer operations: under parity and faults runOps 1059 →
// 709, setupOps 18 → 10, parity operations 188 → 130, read-backs 31 →
// 21 and cache peak 7 → 9 blocks; under forced replays runOps 1437 →
// 777, setupOps 18 → 10, parity operations 215 → 119, and at P = 2 MemHigh
// 9545 → 8009.
// The listrank rows were re-recorded when the Ranker came to splice
// local maxima (DESIGN.md §23).
//
// Half words in the codec: PutUints itself writes any array whose
// values all fit in half a word two values a word (DESIGN.md §23.2), so
// every program gets the form. The Group C, sort, listrank, transpose,
// rectunion and envelope rows hold no such array or packed them already
// and are unchanged. Every other row's fingerprint moves with its
// contexts. nn P=1 runOps 903 → 772, MemHigh 9536 → 7552, liveBlocks
// 90 → 73, at P = 3 MemHigh 9536 → 7552; nextelement P=1 runOps 943 →
// 936; dominance P=1 runOps 607 → 601; permute P=1 runOps 58 → 51,
// setupOps 7 → 4, MemHigh 3008 → 2624, liveBlocks 28 → 24, at P = 3
// MemHigh 3008 → 2624. hull and maxima move only their fingerprints.
type goldenRow struct {
	alg, store          string
	p                   int
	fingerprint         uint64
	runOps, setupOps    int64
	routeOps, memHighWd int64
	liveBlocks          int64 // EMStats.LiveBlocksPerDrive
}

// PR 21 moved every row: a superstep's message blocks are read where
// the writer put them unless routing would be cheaper (DESIGN.md §7) —
// on these four-drive machines it never is, so routeOps is 0 and runOps
// fell by Algorithm 2's operations and a little more (per row, below).
//
// PR 23 (contexts on allocated tracks, DESIGN.md §22) moved no operation,
// block, packet or skew count of a row without faults: runOps, setupOps,
// routeOps and MemHigh are PR 21's. What moved is liveBlocks — the column
// is new; the figure had been a formula, v/p·⌈(µ+1)/B⌉ + message blocks
// over D, whatever the contexts held and with the checkpoint discipline's
// second area left out, and is now the largest bump mark — and with it
// every fingerprint, which hashes LiveBlocksPerDrive and how each drive's
// accesses split into sequential and random (tracks have other addresses).
// An instance's array and durable rows no longer hash alike, and should
// not: a run that can roll back holds the context generation it would
// roll back to beside the one it writes. The two faulted rows also moved
// in their counts, PR 22 → PR 23: their fault draws follow the drive a
// block goes to, and their stripes the order tracks are first written in.
//
// PR 25 (the turnaround batch, DESIGN.md §22.7) moved every row. The
// rounds of a superstep run in snake order and the last batch of every
// barrier keeps its contexts in internal memory for the next superstep's
// first round, or the finish phase: the set-up writes all batches but its
// last, and a superstep saves and loads all but one. runOps and setupOps
// fell by those operations (and by a few more or less where the block
// writer's PRNG, drawn in round order, breaks ties otherwise); MemHigh did
// not move — the held words are the ones the grab of the next round 0
// would have taken. liveBlocks fell by the held batch's tracks. Where a
// processor owns one batch (k ≥ v/p: sort at P = 3, listrank at P = 2 and
// 3) no context moves at all: setupOps is 0, runOps is message blocks
// alone, and listrank's array and durable rows hash alike again — with no
// context on disk there is no generation to hold beside the other.
//
// The Ranker's local-maximum rule and its R + 1 expansion steps
// (DESIGN.md §23) moved every listrank row and no sort row. The rule
// splices about a third of the active nodes a round where the coin rule
// spliced a quarter, so n = 2048 at v = 8 is ranked in 18 supersteps
// instead of 23, and runOps fell by the context sweeps and message blocks
// of the five supersteps gone. A splice sends 8 words where it sent 11.
// setupOps, routeOps and MemHigh did not move (µ, γ and k are unchanged),
// and neither did liveBlocks but at P = 1 in place (105 → 104). Every
// listrank fingerprint moved with the costs it hashes.
//
// A Ranker context that holds only what its phase reads (DESIGN.md
// §23.1) moved every listrank row and no sort row. The declared µ fell
// with the context, so MemHigh fell (115008 → 108864 at P = 1, 76864 →
// 72768 at P = 2, 57728 → 54656 at P = 3) and liveBlocks with it. A
// splice record lost its weight word and the notifications of a step go
// one message a destination VP, so the message blocks fell too: runOps
// fell at P = 2 and 3 as well, where no context moves.
//
// One redundancy layer (a mirror is a stripe of one member, DESIGN.md
// §10) moved every fingerprint and nothing else: EMStats lost MirrorOps
// and RebuiltBlocks, whose names and zeros the fingerprint hashed.
// Hashing the commit before's runs with those two fields cut from the
// text gives this table's fingerprints, row for row.
//
// One stream per (sending processor, cell) a superstep (DESIGN.md §21:
// a processor's tail blocks stay open across its rounds) moved every
// fingerprint. Where a processor runs more than one batch, its message
// blocks fell, and runOps with them: sort 450 → 448 at P = 1 and 409 →
// 406 at P = 2, listrank 862 → 857 at P = 1; MemHigh fell with the
// largest batch input (sort 26688 → 26624 at P = 1 and 2). Where it runs
// one (sort at P = 3, listrank at P = 2 and 3) no count moved, only the
// order its blocks leave in — full blocks as they fill, last blocks at
// the close — and so the drives they are placed on. liveBlocks moved by
// a few tracks either way.
//
// The sleep rule (DESIGN.md §24: a VP that votes halt sleeps until a
// message arrives, and a batch of sleepers with no input is skipped)
// moved the three sort rows at P = 1 and no other. The sort's VPs but
// VP 0 sleep through its phase 1, and of its three batches the one in
// the middle — neither held nor the superstep's last — is skipped in
// superstep 1, neither read nor written: runOps 448 → 398, the parity row
// 565 → 501 (other fault draws), and every fingerprint with the costs it
// hashes. liveBlocks did not move. At P = 2 a processor's two batches are
// the held one and the last, and at P = 3 it has one: nothing is skipped.
//
// Delivering every message block to the processor that owns its
// destination VP (DESIGN.md §5) moved every row at P = 2 and 3 and none
// at P = 1. A processor's input is now the blocks its own VPs receive,
// wherever they were sent from, so the drives they land on and the
// operations that read them moved: runOps sort 406 → 404 at P = 2 and
// 168 → 164 at P = 3, listrank 304 → 296 and 328 → 320; liveBlocks by a
// few tracks either way; every fingerprint with the costs it hashes —
// the model's communication among them, about half of what it was.
//
// Charging a batch's contexts for the blocks they fill, not for k
// contexts at the µ bound (DESIGN.md §22.2), moved every row's MemHigh
// and, with it, its fingerprint, which hashes EMStats; no operation,
// block or track moved. The fall is largest where µ is a worst case the
// contexts never reach: euler 233600 → 21407 at P = 1, listrank 108864
// → 13047; sort, whose contexts fill about half their bound, 26624 →
// 13888.
//
// Deleting the redundancy layer's scrub (DESIGN.md §10) moved every
// fingerprint and nothing else: EMStats lost its two scrub counters,
// whose names and zeros the fingerprint hashed. Hashing the commit
// before's runs with those two fields cut from the text gives this
// table's fingerprints, row for row.
//
// Deleting the engine's store tier (DESIGN.md §17) did the same with
// EMStats's backend name and tier counters, whose empty values every
// fingerprint hashed; the commit before's runs, hashed with the two
// fields cut, give this table row for row. The two P = 2 file rows were
// its file+tier rows: a tier never entered a count, so they read as
// before on the file store alone.
//
// The sort stopping to store an index word a record — ties broken by
// place, DESIGN.md §5 — halved what every sort row moves: runOps 398 →
// 217 at P = 1 (file too), 404 → 223 at P = 2, 164 → 94 at P = 3, 501 →
// 272 under faults, 838 → 358 and 1050 → 487 with forced replays;
// setupOps 50 → 26 (69 → 35, 67 → 35 and 68 → 36 under parity); MemHigh
// 13888 → 7424, 13824 → 7360 and 13952 → 7488; liveBlocks 124 → 66,
// 128 → 70, 66 → 35, 67 → 36, 30 → 17, 170 → 94 and 89 → 48; and the
// parity counts with them. The block writer's matching (§7), in the same
// change, moved the rows whose operations put one batch's blocks where
// another's were light: runOps cc 12267 → 12264, euler 8909 → 8903, nn
// 976 → 975, nextelement 984 → 983, rectunion 535 → 534 at P = 1, and
// the per-drive counts, so the fingerprints, of envelope, dominance and
// maxima there.
//
// Two changes moved every fingerprint at once. The fingerprint hashes a
// fixed list of identity fields as (tag, value) words, a zero left out
// (workload.Fingerprint), where it hashed the statistics' printed text,
// field names included: hashing the commit before's runs so gives a new
// fingerprint to every row and moves no count, and from here on a field
// that reads zero can go without moving one. And a batch's contexts came
// to share parallel operations with its messages (DESIGN.md §22.1): every
// block a processor writes goes through its one block writer, and a
// batch's contexts and messages are read in one scattered read. Where a
// processor owns one batch (P = 3, listrank at P = 2) no context moves
// and the rows hold the first change's fingerprint and every count. The
// others fell: runOps sort 217 → 214 at P = 1 (file too) and 223 → 218
// at P = 2, listrank 857 → 842, cc 12264 → 12137, euler 8903 → 8837, nn
// 975 → 955, envelope 750 → 737, dominance 664 → 654, hull 207 → 194,
// rectunion 534 → 525, nextelement 983 → 971, maxima 272 → 264, permute
// and transpose 66 → 62; setupOps by one where the set-up's batches
// share an operation (sort 26 → 25, euler 2 → 1); liveBlocks by a track
// or two either way. The faulted rows drew other faults: sort 272 → 274
// and listrank 1100 → 1060 under parity and faults, with forced replays
// sort 358 → 357 and 487 → 489, listrank 1560 → 1317 and 401 → 397.
// MaxBucketSkew, which the fingerprint hashes, now observes what a
// batch's fetch reads, its contexts with its messages: it moved the
// fingerprints of the sort rows at P = 1 and of hull at P = 1 again.
//
// Two changes moved every row at once, and neither a VP's result nor a
// model cost. A message record's header became two words and the tails
// of a superstep's last round came to share blocks (DESIGN.md §21.1):
// fewer message blocks, so runOps, MemHigh (the largest batch input) and
// liveBlocks fell, and the fingerprints with them. And the Sorter stopped
// saving its splitters past phase 2, which moved the saved contexts, so
// the fingerprints, of every row that sorts (sort, maxima, dominance,
// rectunion, hull, envelope, nextelement, nn) and its context blocks.
// Hashing this table's runs with their contexts and costs alone gives
// the commit before's on every row but those that sort, whose contexts
// moved by the splitters alone. runOps sort 214 → 206 at P = 1, 218 → 210
// at P = 2, 94 → 90 at P = 3; listrank 842 → 827, 296 → 274, 320 → 298;
// euler 8837 → 8717, cc 12137 → 12068; hull 194 → 168 and nn 955 → 903,
// where the splitters were most of a context. The faulted rows drew other
// faults: listrank under forced replays replays 17 supersteps where it
// replayed 15, so its runOps rose 1317 → 1437 and its parity operations
// 199 → 215; and listrank under parity and faults drew 49 faults where
// it drew 55 but more of them on writes the layer re-issues, so its
// parity operations rose 171 → 188 and its read-backs 18 → 31, while its
// runOps fell 1060 → 1059. The other faulted rows fell.
var goldenTable = []goldenRow{
	// Clean P=1. sort: runOps 903 → 572, routeOps 328 → 0 (PR 21);
	// liveBlocks 277 → 141 in place, 146 checkpointed. PR 25: runOps 572 →
	// 450, setupOps 67 → 50, liveBlocks 141 → 124 and 146 → 129. One
	// stream a processor: runOps 450 → 448, liveBlocks 129 → 128. Sleep:
	// runOps 448 → 398.
	{"sort", "array", 1, 0xa25cb8eeb09cf7, 206, 25, 0, 6976, 62},
	{"sort", "file", 1, 0xac0fd79d03876ad3, 206, 25, 0, 6976, 66},
	// listrank: runOps 4193 → 3306, routeOps 866 → 0 (PR 21); liveBlocks
	// 623 → 111 and 168: its µ is sized for a worst-case subscription
	// table a seventh of which is ever filled. PR 25: two batches, one held
	// — runOps 3306 → 1856, setupOps 18 → 13, liveBlocks 111 → 105 and
	// 168 → 112. Local maxima: runOps 1856 → 1482, liveBlocks 105 → 104.
	// Context words: runOps 1482 → 862, liveBlocks 104 → 70 and 112 → 77.
	// One stream a processor: runOps 862 → 857, liveBlocks 77 → 76.
	{"listrank", "array", 1, 0xca5820e1ff826574, 553, 7, 0, 10039, 59},
	{"listrank", "file", 1, 0xa8ff15ce12c1fa39, 553, 7, 0, 10039, 62},
	// Faulted P=1 (parity, 1% faults). PR 22 folded parity at write: sort
	// runOps 1385 → 737, setupOps 172 → 102; listrank 10248 → 4248, 44 →
	// 25 (TestParityReadsNothingBack). PR 23: sort 737 → 720 and 102 → 98,
	// listrank 4248 → 4237 — other draws, and a set-up whose replays start
	// from the allocator it found; liveBlocks 277 → 194 and 623 → 223,
	// parity tracks and held releases included. PR 25: sort 720 → 567 and
	// 98 → 69, listrank 4237 → 2361 and 25 → 18, liveBlocks 194 → 172 and
	// 223 → 148 — fewer blocks, fewer stripes, other draws. Local maxima:
	// listrank 2361 → 1883. Context words: listrank 1883 → 1105,
	// liveBlocks 148 → 101. One stream a processor: sort 567 → 565 and
	// liveBlocks 172 → 170, listrank 1105 → 1100. Sleep: sort 565 → 501.
	{"sort", "mapped+parity+faults", 1, 0x7583f16085c81652, 266, 34, 0, 6976, 88},
	{"listrank", "mapped+parity+faults", 1, 0xe501a785ce207c44, 709, 10, 0, 10039, 82},
	// P=2, every processor deciding for its own directory. sort runOps
	// 936 → 586, routeOps 346 → 0; listrank 4224 → 3316, 908 → 0 (PR 21).
	// liveBlocks: sort 141 → 76 and 78, listrank 316 → 61 and 90. PR 25:
	// sort 586 → 409, 68 → 50, liveBlocks 76 → 67 and 78 → 68; listrank,
	// one batch a processor, 3316 → 438, 18 → 0, liveBlocks 61 and 90 → 32.
	// Local maxima: listrank 438 → 368. Context words: listrank 368 → 304,
	// liveBlocks 32 → 30. One stream a processor: sort 409 → 406,
	// liveBlocks 67 → 69 and 68 → 71. Blocks to their owners: sort 406 →
	// 404, liveBlocks 69 → 66 and 71 → 67; listrank 304 → 296, liveBlocks
	// 30 → 27.
	{"sort", "array", 2, 0xfb3698b5f998209, 210, 26, 0, 6976, 32},
	{"sort", "file", 2, 0xe128cb913ae92bdd, 210, 26, 0, 6976, 34},
	{"listrank", "array", 2, 0x342ac4dc4fe51fd8, 274, 0, 0, 8009, 25},
	{"listrank", "file", 2, 0x342ac4dc4fe51fd8, 274, 0, 0, 8009, 25},
	// P=3: ragged ownership — the last processor owns 4 of sort's 16 VPs
	// and 2 of listrank's 8 — where ⌈v/p⌉ does not divide v. sort runOps
	// 917 → 577, routeOps 340 → 0; listrank 4376 → 3386, 990 → 0 (PR 21).
	// liveBlocks 102 → 52 and 236 → 44. PR 25, one batch a processor:
	// sort 577 → 168, 67 → 0, liveBlocks 52 → 28; listrank 3386 → 474,
	// 19 → 0, 44 → 23. Local maxima: listrank 474 → 400. Context words:
	// listrank 400 → 328, liveBlocks 23 → 22. Blocks to their owners:
	// sort 168 → 164, liveBlocks 28 → 30; listrank 328 → 320, liveBlocks
	// 22 → 20.
	{"sort", "array", 3, 0xe68bde34d502e48, 90, 0, 0, 7040, 16},
	{"listrank", "array", 3, 0x64f570f2f59ee133, 298, 0, 0, 6137, 19},
	// The other eleven Table 1 workloads, in place at P = 1 and 3, pinned
	// when the registry became the one place a Table 1 program is built.
	// permute, maxima, hull, nn, euler and cc draw their inputs as they
	// did before, and their rows read the same on the commit before; the
	// other five draw the inputs the paper's experiments always ran.
	{"permute", "array", 1, 0x6089f2e896e15be4, 51, 4, 0, 2624, 24},
	{"permute", "array", 3, 0x536af67a3f49773d, 42, 0, 0, 2624, 8},
	{"transpose", "array", 1, 0x9ec8755f78b3b25c, 59, 7, 0, 3008, 27},
	{"transpose", "array", 3, 0xc99e8b68de3d888c, 42, 0, 0, 3008, 8},
	{"maxima", "array", 1, 0xcdc103dd0ceef272, 245, 25, 0, 7455, 65},
	{"maxima", "array", 3, 0x54c1adfe43e9f3fc, 150, 0, 0, 7839, 24},
	{"dominance", "array", 1, 0x596c602766cecc6a, 601, 25, 0, 8704, 97},
	{"dominance", "array", 3, 0x7da1838e4f71f655, 302, 0, 0, 10432, 25},
	{"rectunion", "array", 1, 0xc8659a70cff19d33, 503, 37, 0, 8704, 85},
	{"rectunion", "array", 3, 0x937694b34a3b8770, 196, 0, 0, 8716, 28},
	{"hull", "array", 1, 0x86a82f4b9f6d584b, 168, 19, 0, 3520, 33},
	{"hull", "array", 3, 0xe7f90043d760e5a, 96, 0, 0, 4448, 14},
	{"envelope", "array", 1, 0x73917066db5cf934, 713, 43, 0, 17792, 167},
	{"envelope", "array", 3, 0x86947331a64768e5, 364, 0, 0, 17831, 63},
	{"nextelement", "array", 1, 0x9ced722e648f56d2, 936, 61, 0, 17792, 193},
	{"nextelement", "array", 3, 0x8d12e5ec5e39452, 430, 0, 0, 20150, 69},
	{"nn", "array", 1, 0x143c8e664fcec409, 772, 19, 0, 7552, 73},
	{"nn", "array", 3, 0x149b56b1d85d0bce, 184, 0, 0, 7552, 14},
	{"euler", "array", 1, 0x83c2ec0a70d1748b, 5194, 1, 0, 19634, 159},
	{"euler", "array", 3, 0x40fcdde3d48f20c, 1586, 0, 0, 19762, 67},
	{"cc", "array", 1, 0xf4adff8c890151f8, 8047, 34, 0, 31208, 318},
	{"cc", "array", 3, 0x4a69eceed899318c, 3926, 0, 0, 31272, 137},
	// Forced replays: parity under read, write and corrupt faults with
	// retries off, so every fault replays its superstep (or the set-up)
	// from the barrier's record. Recorded while the replay still restored a
	// hand-built snapshot, which these rows pin it to: sort 10 replays at
	// P = 1 and 8 at P = 2, listrank 18 and 4.
	{"sort", "array+parity+replays", 1, 0xa147bb4826064f27, 347, 34, 0, 6976, 88},
	{"sort", "array+parity+replays", 2, 0xed28890aa4484505, 361, 36, 0, 6976, 47},
	{"listrank", "array+parity+replays", 1, 0x58cb0f5609dcb515, 777, 10, 0, 10039, 82},
	{"listrank", "array+parity+replays", 2, 0x45bf20d77b937823, 363, 0, 0, 8009, 34},
}

// goldenParity pins what the redundancy layer counts on the rows that
// have one, keyed like the subtests: EMStats.ParityOps and the
// parity_read_ops and parity_cache_peak_blocks the layer publishes. An
// engine run writes each stripe within one superstep and releases it whole
// (DESIGN.md §10), so its only parity reads are those of a write the fault
// layer re-issues to a member of this superstep's stripe: the old data read
// back, and the parity loaded again when it had gone to disk. With retries
// off (the replay rows) nothing is re-issued and nothing is read.
type parityCounts struct{ ops, reads, cachePeak int64 }

var goldenParity = map[string]parityCounts{
	"sort/p1/mapped+parity+faults":     {56, 8, 6},
	"listrank/p1/mapped+parity+faults": {130, 21, 9},
	"sort/p1/array+parity+replays":     {60, 0, 6},
	"sort/p2/array+parity+replays":     {61, 0, 7},
	"listrank/p1/array+parity+replays": {119, 0, 6},
	"listrank/p2/array+parity+replays": {68, 0, 6},
}

// goldenSpec is the fixed-seed instance of each golden workload.
func goldenSpec(alg string) workload.Spec {
	switch alg {
	case "sort":
		return workload.Spec{Alg: alg, N: 8192, V: 16, Seed: 7}
	case "listrank":
		return workload.Spec{Alg: alg, N: 2048, V: 8, Seed: 7}
	}
	return workload.Spec{Alg: alg, N: 2048, V: 16, Seed: 7}
}

func goldenOptions(t *testing.T, store string) embsp.Options {
	opts := embsp.Options{Seed: 7}
	switch store {
	case "array":
	case "file":
		opts.StateDir = t.TempDir()
	case "mapped+parity+faults":
		opts.StateDir = t.TempDir()
		opts.MappedStore = true
		opts.Redundancy = embsp.RedundancyParity
		opts.FaultPlan = &embsp.FaultPlan{Seed: 7, ReadErrorRate: 0.01, WriteErrorRate: 0.01, CorruptRate: 0.01}
	case "array+parity+replays":
		opts.Redundancy = embsp.RedundancyParity
		opts.FaultPlan = &embsp.FaultPlan{Seed: 7, ReadErrorRate: 0.002, WriteErrorRate: 0.002, CorruptRate: 0.002}
		opts.MaxRetries = -1
	default:
		t.Fatalf("unknown golden store %q", store)
	}
	return opts
}

// TestGoldenModelNumbers checks the committed model numbers exactly.
// Everything in a row is a function of (workload, seed, machine, store
// chain) alone, on any host and under any physical schedule. Every
// Table 1 workload has a row in place at P = 1 and P = 3. A row with
// forced replays must replay at least once, so a change to what a replay
// restores moves a pinned number rather than passing for want of one.
func TestGoldenModelNumbers(t *testing.T) {
	for _, name := range workload.Table1Names() {
		for _, p := range []int{1, 3} {
			if !slices.ContainsFunc(goldenTable, func(r goldenRow) bool { return r.alg == name && r.store == "array" && r.p == p }) {
				t.Errorf("%s: no golden row in place at P=%d", name, p)
			}
		}
	}
	for _, want := range goldenTable {
		name := fmt.Sprintf("%s/p%d/%s", want.alg, want.p, want.store)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			inst, err := goldenSpec(want.alg).Build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := workload.Machine(inst.Program, want.p, 4, 64, 6, 1000)
			opts := goldenOptions(t, want.store)
			wantParity, parity := goldenParity[name]
			if parity {
				opts.Metrics = embsp.NewMetricsRegistry()
			}
			res, err := embsp.Run(inst.Program, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if parity {
				reg := opts.Metrics
				got := parityCounts{res.EM.ParityOps, reg.Counter("parity_read_ops").Value(), reg.Counter("parity_cache_peak_blocks").Value()}
				if got != wantParity {
					t.Errorf("parity counts moved: got %+v, want %+v", got, wantParity)
				}
			} else if strings.Contains(want.store, "parity") {
				t.Errorf("no pinned parity counts for %s", name)
			}
			if strings.HasSuffix(want.store, "+replays") && res.EM.Replays == 0 {
				t.Errorf("no superstep replay: the row pins nothing of the replay path")
			}
			got := goldenRow{want.alg, want.store, want.p, workload.Fingerprint(res),
				res.EM.Run.Ops, res.EM.Setup.Ops, res.EM.RouteOps, res.EM.MemHigh, res.EM.LiveBlocksPerDrive}
			if got != want {
				t.Errorf("model numbers moved:\n got {%q, %q, %d, %#x, %d, %d, %d, %d, %d},\nwant {%q, %q, %d, %#x, %d, %d, %d, %d, %d},",
					got.alg, got.store, got.p, got.fingerprint, got.runOps, got.setupOps, got.routeOps, got.memHighWd, got.liveBlocks,
					want.alg, want.store, want.p, want.fingerprint, want.runOps, want.setupOps, want.routeOps, want.memHighWd, want.liveBlocks)
			}
		})
	}
}

// TestParityReadsNothingBack is PR 22's claim as a model count. A run
// with parity and no fault reads exactly what the same run reads without
// parity: the parity layer folds what a write holds in memory, and every
// stripe leaves whole — at the commit that frees its superstep's blocks
// under the checkpoint discipline, and in place (no StateDir: since PR 23
// a context is saved to fresh tracks there too, never rewritten over a
// striped one) by the barrier after the superstep whose loads and last
// flush release them — so nothing is read back: not at the flush, not
// before a context is overwritten, not at a release. What parity adds is
// its blocks' writes: ⌈parity blocks/D⌉ operations if every one were
// full, one more per barrier for the stripes the flush closes short, and
// the share of the cache bound — D full stripes go to disk as soon as
// there are D, and split in two operations where their parity drives
// collide (measured: one early write in seven; allowed: one in four).
// That bound on the cache is pinned too: the parity blocks the layer
// holds outside M never exceed 3·D.
func TestParityReadsNothingBack(t *testing.T) {
	for _, alg := range []string{"sort", "listrank"} {
		spec := goldenSpec(alg)
		for _, p := range []int{1, 2} {
			for _, durable := range []bool{true, false} {
				run := func(mode embsp.Redundancy) (*embsp.Result, *embsp.MetricsRegistry) {
					inst, err := spec.Build()
					if err != nil {
						t.Fatal(err)
					}
					opts := embsp.Options{Seed: 7, Redundancy: mode, Metrics: embsp.NewMetricsRegistry()}
					if durable {
						opts.StateDir = t.TempDir()
					}
					res, err := embsp.Run(inst.Program, workload.Machine(inst.Program, p, 4, 64, 6, 1000), opts)
					if err != nil {
						t.Fatal(err)
					}
					return res, opts.Metrics
				}
				bare, _ := run(embsp.RedundancyNone)
				res, reg := run(embsp.RedundancyParity)
				label := fmt.Sprintf("%s P=%d durable=%v", alg, p, durable)
				const D = 4
				for _, ph := range []struct {
					name       string
					with, bare disk.Stats
					barriers   int64
				}{
					{"setup", res.EM.Setup, bare.EM.Setup, int64(p)},
					{"run", res.EM.Run, bare.EM.Run, int64(p * res.Costs.Supersteps)},
				} {
					if ph.with.ReadOps != ph.bare.ReadOps || ph.with.BlocksRead != ph.bare.BlocksRead {
						t.Errorf("%s %s: %d read operations (%d blocks) with parity, %d (%d) without: parity reads something back",
							label, ph.name, ph.with.ReadOps, ph.with.BlocksRead, ph.bare.ReadOps, ph.bare.BlocksRead)
					}
					// A phase that writes nothing has nothing to protect: the
					// set-up of a machine whose processors own one batch each,
					// which stays in memory (PR 25).
					blocks, ops := ph.with.BlocksWritten-ph.bare.BlocksWritten, ph.with.WriteOps-ph.bare.WriteOps
					full := (blocks + D - 1) / D
					if bound := full + ph.barriers + full/4; (blocks <= 0) != (ph.bare.BlocksWritten == 0) || ops > bound {
						t.Errorf("%s %s: parity wrote %d blocks in %d operations, want <= %d (%d full, %d barriers, %d for early writes that split)",
							label, ph.name, blocks, ops, bound, full, ph.barriers, full/4)
					}
				}
				if got := reg.Counter("parity_read_ops").Value(); got != 0 {
					t.Errorf("%s: parity_read_ops = %d, want 0", label, got)
				}
				if got := reg.Counter("parity_ops").Value(); got != res.EM.ParityOps || got == 0 {
					t.Errorf("%s: parity_ops = %d, EMStats.ParityOps = %d", label, got, res.EM.ParityOps)
				}
				if peak := reg.Counter("parity_cache_peak_blocks").Value(); peak <= 0 || peak > 3*D {
					t.Errorf("%s: the parity cache peaked at %d blocks, want within (0, 3·D = %d]", label, peak, 3*D)
				}
			}
		}
	}
}
