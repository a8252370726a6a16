package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/core"
	"embsp/internal/disk"
	"embsp/internal/fault"
	"embsp/internal/redundancy"
	"embsp/internal/words"
	"embsp/internal/workload"
)

// Contexts are packed (DESIGN.md §22): a batch's k contexts lie end to
// end as records [length, words…] and only the blocks they fill move.
// These tests vary what nothing else in the battery varies — the size of
// a context from one barrier to the next — and pin what the packing
// buys: context operations that follow use, not the µ bound.

// breathing is a machine shape that hits every edge of the record
// format: µ = 24 is a multiple of B = 8, so the superstep in which every
// VP holds exactly µ words fills a batch's slice to its last block but
// one word per VP (k·(µ+1) words in k·⌈(µ+1)/B⌉ blocks); k = 3 with 13
// VPs leaves a ragged last batch at every P.
func breathing(p int) (*bsptest.BreathingProgram, core.MachineConfig) {
	return &bsptest.BreathingProgram{V: 13, Mu: 24, Steps: 9}, parMachine(p, 3, 8, 72)
}

func sameContexts(t *testing.T, label string, want, got []bsp.VP) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d VPs, want %d", label, len(got), len(want))
	}
	for id := range want {
		if w, g := bsptest.BreathingWords(want[id]), bsptest.BreathingWords(got[id]); !slices.Equal(w, g) {
			t.Fatalf("%s: VP %d ends with %d context words %v, want %d words %v", label, id, len(g), g, len(w), w)
		}
	}
}

// TestBreathingContexts: contexts that go from µ words to none and back
// survive every way a context reaches a Load — the next superstep, from
// disk or from the turnaround batch held in memory; a replay after a
// fault of the set-up, a superstep or the finish phase, with and without
// parity; a resume from every barrier — the set-up's, whose held batch is
// superstep 0's first, and the halting one, whose held batch the finish
// phase decodes — across the two stores; a cluster node's reload after
// an aborted step at every barrier, or its re-materialization from a
// replica snapshot; and the final report, in process and over the wire.
// Each of them reports the uninterrupted run's statistics.
func TestBreathingContexts(t *testing.T) {
	prog, _ := breathing(1)
	ref, err := bsp.Run(prog, bsp.RunOptions{Seed: 5, PktSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	// The run is long enough for every phase of the length schedule,
	// and the schedule is what the comment on breathing says it is.
	if got := [4]int{prog.ContextLen(1, 8), prog.ContextLen(1, 9), prog.ContextLen(0, 10), prog.ContextLen(1, 10)}; prog.Steps < 9 || got != [4]int{prog.Mu, 0, prog.Mu, 0} {
		t.Fatalf("%d supersteps, context lengths %v at barriers 8, 9, 10 (VP 0) and 10 (VP 1)", prog.Steps, got)
	}
	for _, p := range []int{1, 2, 3} {
		prog, cfg := breathing(p)
		label := fmt.Sprintf("P=%d", p)
		res, err := core.Run(prog, cfg, core.Options{Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameContexts(t, label, ref.VPs, res.VPs)
		if res.Costs.Supersteps != ref.Costs.Supersteps {
			t.Errorf("%s: %d supersteps, reference %d", label, res.Costs.Supersteps, ref.Costs.Supersteps)
		}
		clean, err := core.Run(prog, cfg, core.Options{Seed: 5, StateDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s durable: %v", label, err)
		}
		sameStats(t, label+" durable", res, clean)

		// 2% faults; then retries off (at a rate a superstep can still
		// get through clean, see TestFaultReplayPath), so that every fault
		// replays its superstep from the committed context directory and
		// the held records.
		for _, f := range []struct {
			rate    float64
			retries int
		}{{0.02, 0}, {0.004, -1}} {
			label := fmt.Sprintf("%s faults=%g retries=%d", label, f.rate, f.retries)
			faulty, err := core.Run(prog, cfg, core.Options{Seed: 5, MaxRetries: f.retries,
				FaultPlan: &fault.Plan{Seed: 29, ReadErrorRate: f.rate, WriteErrorRate: f.rate, CorruptRate: f.rate}})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameContexts(t, label, ref.VPs, faulty.VPs)
			if faulty.EM.RecoveryOps == 0 || (f.retries < 0 && faulty.EM.Replays == 0) {
				t.Errorf("%s: %d recovery operations, %d replays", label, faulty.EM.RecoveryOps, faulty.EM.Replays)
			}
		}
		for _, mode := range []redundancy.Mode{redundancy.None, redundancy.Parity} {
			phaseReplays(t, fmt.Sprintf("%s %v", label, mode), prog, cfg, mode, ref.VPs)
		}

		// Kill in every superstep, which resumes from the barrier before it
		// (kill@0: the set-up's), and after the halting barrier, on either
		// store; resume on the other.
		for _, mapped := range []bool{false, true} {
			for kill := 0; kill <= ref.Costs.Supersteps; kill++ {
				label := fmt.Sprintf("%s mapped=%v kill@%d", label, mapped, kill)
				opts := core.Options{Seed: 5, StateDir: t.TempDir(), MappedStore: mapped}
				if kill < ref.Costs.Supersteps {
					crashed := &panicProgram{Program: prog, panicStep: kill}
					_, err := core.Run(crashed, cfg, opts)
					crashed.crashed(t, label, err)
				} else if _, err := core.RunOver(func(inner core.Transport) core.Transport { return &finalCrash{inner} }, prog, cfg, opts); !errors.Is(err, errFinalCrash) {
					t.Fatalf("%s: crashed run returned %v, want the crash before the finish phase", label, err)
				}
				opts.Resume, opts.MappedStore = true, !mapped // and across stores
				resumed, err := core.Run(prog, cfg, opts)
				if err != nil {
					t.Fatalf("%s resume: %v", label, err)
				}
				sameContexts(t, label, ref.VPs, resumed.VPs)
				resultsIdentical(t, clean, resumed, label)
			}
		}
		if p == 1 {
			continue
		}
		// Over the cluster transport and the wire, with one step aborted
		// after every node had PREPAREd, or one node re-materialized from
		// its replica snapshot before a superstep begins — at every barrier
		// but the set-up's, which a cluster resets rather than reloads: the
		// reload, or the adoption, restores the context directory and the
		// held records.
		for abortAt := 0; abortAt < ref.Costs.Supersteps; abortAt++ {
			rig := openRig(t, prog, cfg, core.Options{Seed: 5}, t.TempDir(), false)
			rig.wire = true
			aborted := false
			rig.fail = func(point string, step int) error {
				if aborted || step != abortAt || point != "prepared" {
					return nil
				}
				aborted = true
				return errAbort
			}
			over := rig.run(t)
			rig.close()
			label := fmt.Sprintf("%s cluster abort@%d", label, abortAt)
			sameContexts(t, label, ref.VPs, over.VPs)
			if !aborted {
				t.Errorf("%s: never fired", label)
			}
			resultsIdentical(t, clean, over, label)
		}
		for at := 0; at < ref.Costs.Supersteps; at++ {
			rig := openRig(t, prog, cfg, core.Options{Seed: 5}, t.TempDir(), false)
			elsewhere := t.TempDir()
			a := &adoptingRig{clusterRig: rig, t: t, at: at, node: p - 1}
			a.adopt = func(snap *core.NodeSnapshot) *core.NodeEngine {
				n, err := core.AdoptNode(prog, cfg, core.Options{Seed: 5}, p-1, elsewhere, snap)
				if err != nil {
					t.Fatalf("%s adopt@%d: %v", label, at, err)
				}
				return n
			}
			over, err := rig.coord.Run(a)
			if err != nil {
				t.Fatalf("%s adopt@%d: %v", label, at, err)
			}
			rig.close()
			label := fmt.Sprintf("%s cluster adopt@%d", label, at)
			sameContexts(t, label, ref.VPs, over.VPs)
			resultsIdentical(t, clean, over, label)
		}
	}
}

// sameStats holds an in-place run and a checkpointed one of the same
// program to the same results. Their machines differ — what their drives
// hold at the peak, LiveBlocksPerDrive, and the access chains of their
// phases (phaseStats) — so those are set aside first: a comparison across
// two configurations, not part of the identity contract, which core.Diff
// then holds the rest to.
func sameStats(t *testing.T, label string, a, b *core.Result) {
	t.Helper()
	na, nb := *a, *b
	for _, r := range []*core.Result{&na, &nb} {
		ph := phaseStats(r.EM, false)
		r.EM.Setup, r.EM.Run, r.EM.Finish, r.EM.PerProc = ph[0], ph[1], ph[2], nil
		r.EM.LiveBlocksPerDrive = 0
	}
	if d := core.Diff(&na, &nb); d != "" {
		t.Errorf("%s: the results differ: %s", label, d)
	}
}

// finalCrash dies between the halting barrier's commit and the finish
// phase: the journal holds the halting record, whose held batch the
// resumed finish phase decodes.
type finalCrash struct{ core.Transport }

var errFinalCrash = errors.New("injected crash before the finish phase")

func (finalCrash) Final() ([]*core.NodeReport, error) { return nil, errFinalCrash }

// replayMeter counts the replays of the set-up (the rollbacks to the
// state it began from, step -1) and of the finish phase.
type replayMeter struct {
	core.Transport
	setup, finish int64
}

func (m *replayMeter) Rollback(step, attempt int, cause error) (int64, error) {
	aborted, err := m.Transport.Rollback(step, attempt, cause)
	if err == nil && step < 0 {
		m.setup++
	}
	return aborted, err
}

func (m *replayMeter) Final() ([]*core.NodeReport, error) {
	before := core.Replays(m.Transport)
	reports, err := m.Transport.Final()
	m.finish = core.Replays(m.Transport) - before
	return reports, err
}

// attemptMeter measures, at processor 0, each rolled-back attempt's own
// operations — from the start of its set-up or superstep to its
// rollback — and counts the set-up's rollbacks.
type attemptMeter struct {
	core.Transport
	mark, own int64
	setups    int
}

func (m *attemptMeter) Setup() ([]disk.Stats, error) {
	m.mark = core.Ops(m.Transport)
	return m.Transport.Setup()
}

func (m *attemptMeter) Begin(step int) error {
	m.mark = core.Ops(m.Transport)
	return m.Transport.Begin(step)
}

func (m *attemptMeter) Rollback(step, attempt int, cause error) (int64, error) {
	own := core.Ops(m.Transport) - m.mark
	aborted, err := m.Transport.Rollback(step, attempt, cause)
	if err == nil {
		m.own += own
		if step < 0 {
			m.setups++
		}
	}
	return aborted, err
}

// TestSetupRollbackChargesItsAttempt: a run that rolls its set-up back
// twice or more charges each rollback with its own attempt's operations,
// so the recovery operations the driver charges are the sum of the
// rolled-back attempts' own, as they are for supersteps.
func TestSetupRollbackChargesItsAttempt(t *testing.T) {
	prog, cfg := breathing(1)
	for seed := uint64(1); seed <= 256; seed++ {
		var m *attemptMeter
		_, err := core.RunOver(func(inner core.Transport) core.Transport {
			m = &attemptMeter{Transport: inner}
			return m
		}, prog, cfg, core.Options{Seed: 5, MaxRetries: -1,
			FaultPlan: &fault.Plan{Seed: seed, ReadErrorRate: 0.01, WriteErrorRate: 0.01, CorruptRate: 0.005}})
		if err != nil {
			t.Fatalf("plan seed %d: %v", seed, err)
		}
		if m.setups < 2 {
			continue
		}
		if charged := core.RecoveryOps(m.Transport); charged != m.own {
			t.Errorf("plan seed %d: %d set-up rollbacks; the driver charged %d recovery operations, the attempts rolled back performed %d", seed, m.setups, charged, m.own)
		}
		return
	}
	t.Error("no plan seed up to 256 rolls the set-up back twice")
}

// phaseReplays runs prog with retries off under read, write and corrupt
// faults, trying plan seeds until one replays the set-up, a superstep and
// the finish phase, and requires the result of every attempt to be the
// reference's. A replay of a superstep decodes the held records from the
// barrier's record; the finish phase decodes the held batch
// first, from memory, before any read can fail, and its replays read the
// batches left.
func phaseReplays(t *testing.T, label string, prog bsp.Program, cfg core.MachineConfig, mode redundancy.Mode, want []bsp.VP) {
	t.Helper()
	for seed := uint64(1); seed <= 256; seed++ {
		var m *replayMeter
		res, err := core.RunOver(func(inner core.Transport) core.Transport {
			m = &replayMeter{Transport: inner}
			return m
		}, prog, cfg, core.Options{Seed: 5, MaxRetries: -1, Redundancy: mode,
			FaultPlan: &fault.Plan{Seed: seed, ReadErrorRate: 0.01, WriteErrorRate: 0.01, CorruptRate: 0.005}})
		if err != nil {
			t.Fatalf("%s plan seed %d: %v", label, seed, err)
		}
		sameContexts(t, fmt.Sprintf("%s plan seed %d", label, seed), want, res.VPs)
		if m.setup > 0 && m.finish > 0 && res.EM.Replays > m.setup+m.finish {
			return
		}
	}
	t.Errorf("%s: no plan seed up to 256 replays the set-up, a superstep and the finish phase", label)
}

// holdingsMeter records what every barrier leaves a processor holding.
type holdingsMeter struct {
	core.Transport
	at []core.Holdings // processor 0's, per committed superstep
}

func (m *holdingsMeter) Commit(step int) error {
	if step >= 0 {
		m.at = append(m.at, core.HoldingsOf(m.Transport)[0])
	}
	return m.Transport.Commit(step)
}

// TestContextTracksFollowUse (TestContextSlotHoldsFullBatch until the slot
// went, PR 23): a batch holds on disk the tracks its packed records fill
// and no other — and the turnaround batch, the last of the superstep and
// the first of the next (0 after an even superstep, the last after an odd
// one), none: its records stay in internal memory (PR 25). When every VP
// is at exactly µ words, µ a multiple of B, that is ⌈k·(µ+1)/B⌉ — within
// the k·⌈(µ+1)/B⌉ a batch may read — and a barrier later, every context
// empty, one block of k length words; what the allocator has handed out
// at a barrier is those tracks and the next input's blocks, nothing kept
// for a size that may come back. One word more than µ is the error it
// always was.
func TestContextTracksFollowUse(t *testing.T) {
	prog, cfg := breathing(1)
	for _, durable := range []bool{false, true} {
		opts := core.Options{Seed: 5}
		if durable {
			opts.StateDir = t.TempDir()
		}
		var m *holdingsMeter
		res, err := core.RunOver(func(inner core.Transport) core.Transport {
			m = &holdingsMeter{Transport: inner}
			return m
		}, prog, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.EM.CtxBlocksPerVP, prog.Mu/cfg.B+1; got != want {
			t.Errorf("CtxBlocksPerVP = %d, want %d: a batch may not read its length words", got, want)
		}
		k, full, grew := res.EM.K, false, false
		for step, h := range m.at {
			if turnaround := (step % 2) * (len(h.Contexts) - 1); h.Held != turnaround {
				t.Errorf("durable=%v barrier %d: batch %d is held, want the turnaround batch %d", durable, step, h.Held, turnaround)
			}
			onDisk := 0
			for j, tracks := range h.Contexts {
				words := 0
				for id := j * k; id < min((j+1)*k, prog.V); id++ {
					words += 1 + prog.ContextLen(id, step+1)
				}
				want := (words + cfg.B - 1) / cfg.B
				full = full || want == (k*(prog.Mu+1)+cfg.B-1)/cfg.B
				if j == h.Held {
					if want = 0; h.HeldWords != words {
						t.Errorf("durable=%v barrier %d: batch %d holds %d words in memory, want %d", durable, step, j, h.HeldWords, words)
					}
				}
				if tracks != want {
					t.Errorf("durable=%v barrier %d: batch %d holds %d tracks for %d words, want %d", durable, step, j, tracks, words, want)
				}
				onDisk += tracks
			}
			grew = grew || step > 0 && onDisk > 3*len(h.Contexts) && m.at[step-1].Allocated < h.Allocated
			// The halting superstep leaves no next input: in place its own
			// went with the last flush, and under the checkpoint discipline
			// it releases nothing (DESIGN.md §22.3).
			want := onDisk + h.Input
			if step == len(m.at)-1 {
				want = onDisk
			}
			if !(durable && step == len(m.at)-1) && h.Allocated != want {
				t.Errorf("durable=%v barrier %d: %d tracks allocated, want %d: %d of contexts and the input's", durable, step, h.Allocated, want, onDisk)
			}
		}
		if !full || !grew {
			t.Errorf("durable=%v: the run never held a batch at k·(µ+1) words (%v) or never grew back from less (%v)", durable, full, grew)
		}
	}
	_, err := core.Run(&overfull{prog}, cfg, core.Options{Seed: 5})
	if err == nil || !strings.Contains(err.Error(), "exceeding µ=23") {
		t.Fatalf("a context of µ+1 words: got %v, want the µ violation", err)
	}
}

// overfull claims one word less than its program saves.
type overfull struct{ *bsptest.BreathingProgram }

func (p *overfull) MaxContextWords() int { return p.Mu - 1 }

// oneWord declares µ = 10 blocks and saves one word. It sends nothing,
// so every operation of a run is a context operation.
type oneWord struct{ v, mu, steps int }

func (p *oneWord) NumVPs() int          { return p.v }
func (p *oneWord) MaxContextWords() int { return p.mu }
func (p *oneWord) MaxCommWords() int    { return 0 }
func (p *oneWord) NewVP(int) bsp.VP     { return &oneWordVP{p: p} }

type oneWordVP struct {
	p *oneWord
	n uint64
}

func (v *oneWordVP) Step(env *bsp.Env, _ []bsp.Message) (bool, error) {
	v.n++
	return env.Superstep() == v.p.steps, nil
}
func (v *oneWordVP) Save(enc *words.Encoder) { enc.PutUint(v.n) }
func (v *oneWordVP) Load(dec *words.Decoder) { v.n = dec.Uint() }

// contextMeter records, per superstep, the operations its saved
// contexts take to write (and the next superstep to read).
type contextMeter struct {
	core.Transport
	ops []int
}

func (m *contextMeter) Totals() ([]core.StepTotals, error) {
	m.ops = append(m.ops, core.ContextOps(m.Transport))
	return m.Transport.Totals()
}

// TestContextOpsFollowUse: a superstep's context operations are, each
// way, Σ over batches of ⌈used_j/D⌉ for the blocks batch j's records
// fill — not ⌈k·µ/B/D⌉ per batch — over every batch but the turnaround
// batch, whose records stay in internal memory across the barrier (PR 25).
// For a program that declares µ = 10 blocks and saves a word that is one
// read and one write per batch but that one (the k records share a block)
// where padded slots took ⌈10k/D⌉ = 10 of each; on the golden sort and
// listrank instances the sums are pinned. They fell from {67, [67 67 3
// 68]}, {68, [68 68 4 67]}, {18, [58 58 62 …]} and {18, [58 58 62 …]}
// when the hold came in: listrank at P = 2 is one batch a processor
// (k ≥ v/P), whose contexts never move at all. listrank's list is 18
// supersteps long, not 23, since the Ranker splices local maxima and
// stops expanding after R + 1 steps (DESIGN.md §23); its subscription
// lists fill in fewer rounds, so a middle superstep moves up to two
// blocks more. Since a Ranker context holds only what its phase reads —
// the flags as bits, one flat subscription list, pred or Rank (DESIGN.md
// §23.1) — listrank at P = 1 moves about half the blocks it did: 43 → 19
// operations in its last supersteps, 54 → 30 at the peak. Since every
// block a processor writes goes through its one block writer (§22.1),
// the sums are what the contexts would take read apart, and the
// operations they take are shared: oneWord's set-up writes its two
// blocks in one operation, not two, and a superstep its two blocks in
// one write, [2 16 2] → [1 12 2]; sort's set-up at P = 1 writes its
// batches' blocks in 25 operations, not 26.
func TestContextOpsFollowUse(t *testing.T) {
	prog := &oneWord{v: 12, mu: 160, steps: 3}
	cfg := parMachine(1, 4, 16, 640) // k = 4: three batches
	res, err := core.Run(prog, cfg, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const batches, supersteps = 3, 4
	if res.EM.K != 4 || res.EM.Groups != batches || res.Costs.Supersteps != supersteps {
		t.Fatalf("shape: k=%d, %d batches, %d supersteps", res.EM.K, res.EM.Groups, res.Costs.Supersteps)
	}
	// The batches but the held one write their block each in one
	// operation a superstep (D = 4), and read it in one operation each.
	got := [3]int64{res.EM.Setup.Ops, res.EM.Run.Ops, res.EM.Finish.Ops}
	if want := [3]int64{1, batches * supersteps, batches - 1}; got != want {
		t.Errorf("setup, run and finish operations are %v, want %v: one write a superstep, one read per batch and superstep but the held one", got, want)
	}

	sort := workload.Spec{Alg: "sort", N: 8192, V: 16, Seed: 7}
	listrank := workload.Spec{Alg: "listrank", N: 2048, V: 8, Seed: 7}
	for _, row := range []struct {
		spec  workload.Spec
		p     int
		setup int64
		ops   []int // per superstep
	}{
		// sort's contexts hold n/v keys until the splitters are known
		// (superstep 2 saves 2 blocks' worth), then the sorted run. In
		// superstep 1 only VP 0 works and the others sleep: at P = 1 the
		// batch of sleepers between VP 0's and the held one is skipped
		// and only VP 0's is written (50 → 25 since the sleep rule,
		// DESIGN.md §24); at P = 2 a processor's two batches are the one
		// it holds and the superstep's last, neither of which is skipped.
		// A key is one word since the sort stores no index word (§5):
		// every sum about halved, {50, [42 25 2 49]} → {26, [22 13 2 25]}
		// and {50, [18 50 2 48]} → {26, [10 26 2 25]}.
		{sort, 1, 25, []int{22, 13, 2, 25}},
		{sort, 2, 26, []int{10, 26, 2, 25}},
		// listrank declares µ for a worst-case subscription table and
		// fills a seventh of it: 571 operations each way before packing.
		// Its arrays packed two values a word (DESIGN.md §23.1): 302 →
		// 159 in all, {13, [7 19 8 26 9 29 …]} → {7, [4 10 4 13 5 15 …]}.
		{listrank, 1, 7, []int{4, 10, 4, 13, 5, 15, 5, 15, 5, 16, 5, 13, 4, 10, 4, 10, 4, 10}},
		{listrank, 2, 0, []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
	} {
		inst, err := row.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		var m *contextMeter
		res, err := core.RunOver(func(inner core.Transport) core.Transport {
			m = &contextMeter{Transport: inner}
			return m
		}, inst.Program, workload.Machine(inst.Program, row.p, 4, 64, 6, 1000), core.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%s P=%d", row.spec.Alg, row.p)
		if res.EM.Setup.Ops != row.setup || !slices.Equal(m.ops, row.ops) {
			t.Errorf("%s: context operations are %d at setup and %v per superstep, want %d and %v", label, res.EM.Setup.Ops, m.ops, row.setup, row.ops)
		}
		// The finish phase reads what the last superstep wrote, and
		// nothing else; a superstep reads what the one before it wrote.
		total := int(res.EM.Setup.Ops)
		for s, w := range m.ops {
			total += 2 * w
			if s == len(m.ops)-1 {
				total -= w
			}
		}
		if last := int64(m.ops[len(m.ops)-1]); res.EM.Finish.Ops != last {
			t.Errorf("%s: the finish phase took %d operations to read what %d wrote", label, res.EM.Finish.Ops, last)
		}
		if int64(total) > res.EM.Run.Ops {
			t.Errorf("%s: %d context operations in a run of %d", label, total, res.EM.Run.Ops)
		}
	}
}

// roundMeter records the batch of every round the driver runs, and what
// every processor holds in internal memory at each barrier and when the
// finish phase begins.
type roundMeter struct {
	core.Transport
	rounds [][]int // per superstep
	held   [][]int // per barrier, the set-up's first, per processor
	final  []int   // per processor
}

func heldBatches(t core.Transport) (held []int) {
	for _, h := range core.HoldingsOf(t) {
		held = append(held, h.Held)
	}
	return held
}

func (m *roundMeter) Begin(step int) error {
	m.rounds = append(m.rounds, nil)
	return m.Transport.Begin(step)
}

func (m *roundMeter) Compute(j, step int) ([]*core.BatchOut, error) {
	m.rounds[step] = append(m.rounds[step], j)
	return m.Transport.Compute(j, step)
}

func (m *roundMeter) Commit(step int) error {
	m.held = append(m.held, heldBatches(m.Transport))
	return m.Transport.Commit(step)
}

func (m *roundMeter) Final() ([]*core.NodeReport, error) {
	m.final = heldBatches(m.Transport)
	return m.Transport.Final()
}

// TestTurnaroundBatch: the rounds of a superstep visit the batches up when
// it is odd and down when it is even, after a set-up that writes them up,
// so the last batch of every barrier — the turnaround batch — is the first
// of the next superstep and of the finish phase. Every processor holds
// that batch's records in internal memory across the barrier, unless the
// batch has no VPs of the processor's (the last processor's ragged tail at
// P = 3), and nothing else — a superstep never skips its turnaround batch
// (DESIGN.md §24). One batch (listrank at P = 2, k ≥ v/P) is the
// turnaround batch of every barrier.
func TestTurnaroundBatch(t *testing.T) {
	breathe, _ := breathing(1)
	sort := workload.Spec{Alg: "sort", N: 8192, V: 16, Seed: 7}
	listrank := workload.Spec{Alg: "listrank", N: 2048, V: 8, Seed: 7}
	type run struct {
		label string
		prog  bsp.Program
		cfg   core.MachineConfig
	}
	var runs []run
	for _, p := range []int{1, 2, 3} {
		_, cfg := breathing(p)
		runs = append(runs, run{fmt.Sprintf("breathing P=%d", p), breathe, cfg})
	}
	for _, spec := range []workload.Spec{sort, listrank} {
		inst, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2} {
			runs = append(runs, run{fmt.Sprintf("%s P=%d", spec.Alg, p), inst.Program, workload.Machine(inst.Program, p, 4, 64, 6, 1000)})
		}
	}
	for _, r := range runs {
		for _, durable := range []bool{false, true} {
			label := fmt.Sprintf("%s durable=%v", r.label, durable)
			opts := core.Options{Seed: 5}
			if durable {
				opts.StateDir = t.TempDir()
			}
			var m *roundMeter
			res, err := core.RunOver(func(inner core.Transport) core.Transport {
				m = &roundMeter{Transport: inner}
				return m
			}, r.prog, r.cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, k, v := res.EM.Groups, res.EM.K, r.prog.NumVPs()
			vpp := (v + r.cfg.P - 1) / r.cfg.P
			if r.label == "listrank P=2" && b != 1 {
				t.Fatalf("%s: %d batches, want one", label, b)
			}
			// want is what every processor holds at the barrier whose last
			// batch is j.
			want := func(j int) []int {
				held := make([]int, r.cfg.P)
				for p := range held {
					held[p] = -1
					if p*vpp+j*k < min((p+1)*vpp, v) {
						held[p] = j
					}
				}
				return held
			}
			last := b - 1 // the set-up's
			if !slices.Equal(m.held[0], want(last)) {
				t.Errorf("%s: the set-up holds %v, want %v", label, m.held[0], want(last))
			}
			for s, rounds := range m.rounds {
				if len(rounds) != b || rounds[0] != last {
					t.Errorf("%s: superstep %d runs batches %v, first the barrier's last %d", label, s, rounds, last)
					continue
				}
				for i, j := range rounds {
					if up := s%2 == 1; (up && j != i) || (!up && j != b-1-i) {
						t.Errorf("%s: superstep %d runs batches %v, want them in snake order", label, s, rounds)
						break
					}
				}
				last = rounds[b-1]
				if !slices.Equal(m.held[s+1], want(last)) {
					t.Errorf("%s: barrier %d holds %v, want %v", label, s, m.held[s+1], want(last))
				}
			}
			if !slices.Equal(m.final, want(last)) {
				t.Errorf("%s: the finish phase begins holding %v, want %v", label, m.final, want(last))
			}
		}
	}
}

// phaseStats are a run's Setup, Run and Finish statistics; without
// access chains when chains is false (the in-memory array clears a track
// at its release, the file stores at its allocation, so the two see
// different sequential and random runs in the same operations).
func phaseStats(em core.EMStats, chains bool) [3]disk.Stats {
	ph := [3]disk.Stats{em.Setup, em.Run, em.Finish}
	for i := range ph {
		drives := ph[i].PerDrive
		ph[i].PerDrive = nil
		for _, d := range drives {
			if !chains {
				d.SeqAccesses, d.RandAccesses = 0, 0
			}
			ph[i].PerDrive = append(ph[i].PerDrive, d)
		}
	}
	return ph
}

// TestPhaseStatsAcrossRuntimes: the turnaround batch is held the same way
// under both disciplines and on every transport, so on the 13 Table 1
// workloads at P = 1 and P = 3 an in-place run, a file run, a mapped run
// and — at P = 3 — a cluster run over the wire report the
// same Setup, Run and Finish statistics: every operation, block and drive
// (the array's access chains aside).
func TestPhaseStatsAcrossRuntimes(t *testing.T) {
	const seed = 17
	for _, name := range workload.Table1Names() {
		t.Run(name, func(t *testing.T) {
			inst, err := workload.Spec{Alg: name, N: 512, V: 16, Seed: seed}.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 3} {
				cfg := workload.Machine(inst.Program, p, 4, 16, 4, 100)
				run := func(opts core.Options) *core.Result {
					t.Helper()
					opts.Seed = seed
					res, err := core.Run(inst.Program, cfg, opts)
					if err != nil {
						t.Fatalf("P=%d: %v", p, err)
					}
					return res
				}
				file := run(core.Options{StateDir: t.TempDir()})
				want := phaseStats(file.EM, true)
				if p == 1 && file.EM.Groups < 2 {
					t.Fatalf("P=1: %d batches, want a turnaround batch and others", file.EM.Groups)
				}
				got := map[string][3]disk.Stats{
					"mapped": phaseStats(run(core.Options{StateDir: t.TempDir(), MappedStore: true}).EM, true),
				}
				if p > 1 {
					rig := openRig(t, inst.Program, cfg, core.Options{Seed: seed}, t.TempDir(), false)
					rig.wire = true
					got["cluster"] = phaseStats(rig.run(t).EM, true)
					rig.close()
				}
				for label, ph := range got {
					if !reflect.DeepEqual(ph, want) {
						t.Errorf("P=%d %s: setup, run and finish statistics %+v, the file run's %+v", p, label, ph, want)
					}
				}
				if ph := phaseStats(run(core.Options{}).EM, false); !reflect.DeepEqual(ph, phaseStats(file.EM, false)) {
					t.Errorf("P=%d in place: setup, run and finish statistics %+v, the file run's %+v", p, ph, phaseStats(file.EM, false))
				}
			}
		})
	}
}
