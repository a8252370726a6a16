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
// The listrank rows were re-recorded when the Ranker came to splice
// local maxima (DESIGN.md §23).
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
var goldenTable = []goldenRow{
	// Clean P=1. sort: runOps 903 → 572, routeOps 328 → 0 (PR 21);
	// liveBlocks 277 → 141 in place, 146 checkpointed. PR 25: runOps 572 →
	// 450, setupOps 67 → 50, liveBlocks 141 → 124 and 146 → 129. One
	// stream a processor: runOps 450 → 448, liveBlocks 129 → 128. Sleep:
	// runOps 448 → 398.
	{"sort", "array", 1, 0x3dab11975302ec4e, 214, 25, 0, 7424, 66},
	{"sort", "file", 1, 0x9797bc8ad4066559, 214, 25, 0, 7424, 69},
	// listrank: runOps 4193 → 3306, routeOps 866 → 0 (PR 21); liveBlocks
	// 623 → 111 and 168: its µ is sized for a worst-case subscription
	// table a seventh of which is ever filled. PR 25: two batches, one held
	// — runOps 3306 → 1856, setupOps 18 → 13, liveBlocks 111 → 105 and
	// 168 → 112. Local maxima: runOps 1856 → 1482, liveBlocks 105 → 104.
	// Context words: runOps 1482 → 862, liveBlocks 104 → 70 and 112 → 77.
	// One stream a processor: runOps 862 → 857, liveBlocks 77 → 76.
	{"listrank", "array", 1, 0x6a0894cf26999692, 842, 13, 0, 13047, 69},
	{"listrank", "file", 1, 0x4d026142dfdd7fc, 842, 13, 0, 13047, 75},
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
	{"sort", "mapped+parity+faults", 1, 0x62678cca2897a6cf, 274, 34, 0, 7424, 93},
	{"listrank", "mapped+parity+faults", 1, 0x2441e1032ad60b18, 1060, 18, 0, 13047, 101},
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
	{"sort", "array", 2, 0x17e8c19fb275303a, 218, 26, 0, 7360, 35},
	{"sort", "file", 2, 0x57a512ae20181e7c, 218, 26, 0, 7360, 35},
	{"listrank", "array", 2, 0x3ac0590dd72f3896, 296, 0, 0, 9673, 27},
	{"listrank", "file", 2, 0x3ac0590dd72f3896, 296, 0, 0, 9673, 27},
	// P=3: ragged ownership — the last processor owns 4 of sort's 16 VPs
	// and 2 of listrank's 8 — where ⌈v/p⌉ does not divide v. sort runOps
	// 917 → 577, routeOps 340 → 0; listrank 4376 → 3386, 990 → 0 (PR 21).
	// liveBlocks 102 → 52 and 236 → 44. PR 25, one batch a processor:
	// sort 577 → 168, 67 → 0, liveBlocks 52 → 28; listrank 3386 → 474,
	// 19 → 0, 44 → 23. Local maxima: listrank 474 → 400. Context words:
	// listrank 400 → 328, liveBlocks 23 → 22. Blocks to their owners:
	// sort 168 → 164, liveBlocks 28 → 30; listrank 328 → 320, liveBlocks
	// 22 → 20.
	{"sort", "array", 3, 0x2db38a7ddabd971f, 94, 0, 0, 7488, 17},
	{"listrank", "array", 3, 0xf604bffd5c48c979, 320, 0, 0, 7417, 20},
	// The other eleven Table 1 workloads, in place at P = 1 and 3, pinned
	// when the registry became the one place a Table 1 program is built.
	// permute, maxima, hull, nn, euler and cc draw their inputs as they
	// did before, and their rows read the same on the commit before; the
	// other five draw the inputs the paper's experiments always ran.
	{"permute", "array", 1, 0xbf2fffa1e32493fa, 62, 7, 0, 3200, 30},
	{"permute", "array", 3, 0xaa5f027e0bd5ddf6, 48, 0, 0, 3264, 9},
	{"transpose", "array", 1, 0x49f0694753f0650f, 62, 7, 0, 3200, 30},
	{"transpose", "array", 3, 0x5f92e58e9561f439, 48, 0, 0, 3264, 9},
	{"maxima", "array", 1, 0xa1d5c813c75057e5, 264, 25, 0, 7647, 71},
	{"maxima", "array", 3, 0x389d271b0ec69c2, 158, 0, 0, 8479, 26},
	{"dominance", "array", 1, 0xaac03622154f399, 654, 25, 0, 9408, 105},
	{"dominance", "array", 3, 0x449c8dc408d99eaf, 328, 0, 0, 11136, 27},
	{"rectunion", "array", 1, 0xb19e3ea8799c6e5b, 525, 37, 0, 8960, 88},
	{"rectunion", "array", 3, 0x82768fe713563b08, 216, 0, 0, 9036, 30},
	{"hull", "array", 1, 0x31ad444f5fa17b84, 194, 19, 0, 3840, 37},
	{"hull", "array", 3, 0xcf879e135f0a79d3, 102, 0, 0, 4576, 14},
	{"envelope", "array", 1, 0xa6698a20aad1cc15, 737, 43, 0, 18176, 171},
	{"envelope", "array", 3, 0xf038b13fcb48a881, 382, 0, 0, 18279, 66},
	{"nextelement", "array", 1, 0x1c67da6abfdcf787, 971, 61, 0, 18240, 200},
	{"nextelement", "array", 3, 0x48e9ea869f7678d7, 458, 0, 0, 20662, 72},
	{"nn", "array", 1, 0xbbcfb14fd3fc45c1, 955, 19, 0, 9984, 96},
	{"nn", "array", 3, 0xe6bbf52c08091132, 204, 0, 0, 10048, 16},
	{"euler", "array", 1, 0x577d1b7a5d227855, 8837, 1, 0, 21407, 222},
	{"euler", "array", 3, 0x9a6a73829433ed71, 1734, 0, 0, 22370, 67},
	{"cc", "array", 1, 0xf3f3816965229087, 12137, 67, 0, 35880, 355},
	{"cc", "array", 3, 0x8c1e5d8030553c01, 4010, 0, 0, 35944, 139},
	// Forced replays: parity under read, write and corrupt faults with
	// retries off, so every fault replays its superstep (or the set-up)
	// from the barrier's record. Recorded while the replay still restored a
	// hand-built snapshot, which these rows pin it to: sort 10 replays at
	// P = 1 and 8 at P = 2, listrank 18 and 4.
	{"sort", "array+parity+replays", 1, 0x681fc7178215fc35, 357, 34, 0, 7424, 93},
	{"sort", "array+parity+replays", 2, 0x2a82c8706eec3c5a, 489, 36, 0, 7360, 49},
	{"listrank", "array+parity+replays", 1, 0x7729f2e682b31834, 1317, 18, 0, 13047, 101},
	{"listrank", "array+parity+replays", 2, 0x171a1b6a348afbe6, 397, 0, 0, 9673, 37},
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
	"sort/p1/mapped+parity+faults":     {57, 8, 6},
	"listrank/p1/mapped+parity+faults": {171, 18, 6},
	"sort/p1/array+parity+replays":     {62, 0, 6},
	"sort/p2/array+parity+replays":     {78, 0, 7},
	"listrank/p1/array+parity+replays": {199, 0, 6},
	"listrank/p2/array+parity+replays": {71, 0, 6},
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
