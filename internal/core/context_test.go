package core_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/core"
	"embsp/internal/fault"
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
// survive every way a context reaches a Load — the next superstep, a
// replay after a fault, a resume from the journal on either store, a
// cluster node's reload after an aborted step, and the final report, in
// process and over the wire.
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

		// 2% faults; then retries off (at a rate a superstep can still
		// get through clean, see TestFaultReplayPath), so that every fault
		// replays its superstep from the committed context area and its
		// used-block table.
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

		// Kill in each phase of the length schedule, resume on either store.
		for _, mapped := range []bool{false, true} {
			for kill := 1; kill <= 4; kill++ {
				label := fmt.Sprintf("%s mapped=%v kill@%d", label, mapped, kill)
				opts := core.Options{Seed: 5, StateDir: t.TempDir(), MappedStore: mapped}
				_, err := core.Run(&panicProgram{Program: prog, panicStep: kill}, cfg, opts)
				var pe *bsp.ProgramError
				if !errors.As(err, &pe) {
					t.Fatalf("%s: crashed run returned %v, want *bsp.ProgramError", label, err)
				}
				opts.Resume, opts.MappedStore = true, !mapped // and across stores
				resumed, err := core.Run(prog, cfg, opts)
				if err != nil {
					t.Fatalf("%s resume: %v", label, err)
				}
				sameContexts(t, label, ref.VPs, resumed.VPs)
				if resumed.EM.Run.Ops != res.EM.Run.Ops {
					t.Errorf("%s: resumed run took %d operations, a clean one %d", label, resumed.EM.Run.Ops, res.EM.Run.Ops)
				}
			}
		}
		if p == 1 {
			continue
		}
		// Over the cluster transport and the wire, with one step aborted
		// after every node had PREPAREd: the reload restores the table.
		for abortAt := 0; abortAt < 4; abortAt++ {
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
			sameContexts(t, fmt.Sprintf("%s cluster abort@%d", label, abortAt), ref.VPs, over.VPs)
			if !aborted || over.EM.Run.Ops != res.EM.Run.Ops {
				t.Errorf("%s cluster abort@%d: fired=%v, %d operations, in process %d", label, abortAt, aborted, over.EM.Run.Ops, res.EM.Run.Ops)
			}
		}
	}
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
// and no other. When every VP is at exactly µ words, µ a multiple of B,
// that is ⌈k·(µ+1)/B⌉ — within the k·⌈(µ+1)/B⌉ a batch may read — and a
// barrier later, every context empty, one block of k length words; what
// the allocator has handed out at a barrier is those tracks and the next
// input's blocks, nothing kept for a size that may come back. One word
// more than µ is the error it always was.
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
			held := 0
			for j, tracks := range h.Contexts {
				words := 0
				for id := j * k; id < min((j+1)*k, prog.V); id++ {
					words += 1 + prog.ContextLen(id, step+1)
				}
				if want := (words + cfg.B - 1) / cfg.B; tracks != want {
					t.Errorf("durable=%v barrier %d: batch %d holds %d tracks for %d words, want %d", durable, step, j, tracks, words, want)
				}
				full = full || tracks == (k*(prog.Mu+1)+cfg.B-1)/cfg.B
				held += tracks
			}
			grew = grew || step > 0 && held > 3*len(h.Contexts) && m.at[step-1].Allocated < h.Allocated
			// The halting superstep leaves no next input: in place its own
			// went with the last flush, and under the checkpoint discipline
			// it releases nothing (DESIGN.md §22.3).
			want := held + h.Input
			if step == len(m.at)-1 {
				want = held
			}
			if !(durable && step == len(m.at)-1) && h.Allocated != want {
				t.Errorf("durable=%v barrier %d: %d tracks allocated, want %d: %d of contexts and the input's", durable, step, h.Allocated, want, held)
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
// fill — not ⌈k·µ/B/D⌉ per batch. For a program that declares µ = 10
// blocks and saves a word that is one read and one write per batch (the
// k records share a block) where padded slots took ⌈10k/D⌉ = 10 of each;
// on the golden sort and listrank instances the sums are pinned.
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
	got := [3]int64{res.EM.Setup.Ops, res.EM.Run.Ops, res.EM.Finish.Ops}
	if want := [3]int64{batches, 2 * batches * supersteps, batches}; got != want {
		t.Errorf("setup, run and finish operations are %v, want %v: one write and one read per batch and superstep", got, want)
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
		// (superstep 2 saves 3 blocks' worth), then the sorted run.
		{sort, 1, 67, []int{67, 67, 3, 68}},
		{sort, 2, 68, []int{68, 68, 4, 67}},
		// listrank declares µ for a worst-case subscription table and
		// fills a seventh of it: 571 operations each way before packing.
		{listrank, 1, 18, []int{58, 58, 62, 64, 67, 68, 70, 71, 71, 71, 72, 72, 68, 64, 60, 58, 58, 58, 58, 58, 58, 58, 58}},
		{listrank, 2, 18, []int{58, 58, 62, 64, 66, 68, 70, 70, 71, 72, 72, 72, 68, 64, 60, 58, 58, 58, 58, 58, 58, 58, 58}},
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
