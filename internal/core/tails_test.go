package core_test

import (
	"fmt"
	"slices"
	"testing"

	"embsp"
	"embsp/internal/core"
	"embsp/internal/words"
	"embsp/internal/workload"
)

// ownerMeter checks, after every computing phase, that each block a
// processor sends goes to the owner of its destination VP and never to
// the sender itself, and sums the words sent.
type ownerMeter struct {
	core.Transport
	t      *testing.T
	label  string
	vpp, B int
	words  int64
}

func (m *ownerMeter) Compute(j, step int) ([]*core.BatchOut, error) {
	outs, err := m.Transport.Compute(j, step)
	for src, bo := range outs {
		dsts, targets := core.Scattered(bo)
		for i, dst := range dsts {
			if targets[i] != dst/m.vpp || targets[i] == src {
				m.t.Errorf("%s superstep %d batch %d: processor %d sent processor %d a block for VP %d, which processor %d owns", m.label, step, j, src, targets[i], dst, dst/m.vpp)
			}
		}
		m.words += int64(len(dsts) * m.B)
	}
	return outs, err
}

// TestScatterDeliversToOwner: every message block goes to the processor
// that owns its destination VP — a processor's own blocks never leave
// it — so the words the model charges as communication are exactly the
// words of the blocks that cross.
func TestScatterDeliversToOwner(t *testing.T) {
	for _, alg := range []string{"sort", "listrank"} {
		inst, err := workload.Spec{Alg: alg, N: 8192, V: 16, Seed: 7}.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, P := range []int{2, 3} {
			cfg := workload.Machine(inst.Program, P, 4, 64, 6, 1000)
			v := inst.Program.NumVPs()
			m := &ownerMeter{t: t, label: fmt.Sprintf("%s P=%d", alg, P), vpp: (v + P - 1) / P, B: cfg.B}
			res, err := core.RunOver(func(inner core.Transport) core.Transport {
				m.Transport = inner
				return m
			}, inst.Program, cfg, core.Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if m.words == 0 {
				t.Errorf("%s: no block crossed processors", m.label)
			}
			if res.EM.CommWords != m.words {
				t.Errorf("%s: the model charges %d words of communication, the blocks that crossed hold %d", m.label, res.EM.CommWords, m.words)
			}
		}
	}
}

// tailMeter checks the open tails after every computing phase, and
// counts the streams evictions started.
type tailMeter struct {
	core.Transport
	t       *testing.T
	label   string
	evicted int
}

func (m *tailMeter) Compute(j, step int) ([]*core.BatchOut, error) {
	outs, err := m.Transport.Compute(j, step)
	open, slots := core.Tails(m.Transport)
	for p := range open {
		if open[p] > slots[p] {
			m.t.Errorf("%s superstep %d batch %d: processor %d holds %d tails open, at most %d", m.label, step, j, p, open[p], slots[p])
		}
	}
	return outs, err
}

func (m *tailMeter) Totals() ([]core.StepTotals, error) {
	if open, _ := core.Tails(m.Transport); fmt.Sprint(open) != fmt.Sprint(make([]int, len(open))) {
		m.t.Errorf("%s: tails %v open after the last round", m.label, open)
	}
	m.evicted += core.EvictedStreams(m.Transport)
	return m.Transport.Totals()
}

// TestTailsBounded: at Table 1's p=4 shape with k = 1 (v = 32 on p = 4,
// D = 4, M = µ; B = 32 so that M ≥ D·B at this n) — 32 one-VP cells,
// far more than the ⌈(µ+1)/B⌉ tails a processor may hold open — no
// processor holds more open, none is open at a barrier, the accountant
// stays within the engine's budget, and the result is the reference's.
func TestTailsBounded(t *testing.T) {
	evicted := 0
	for _, name := range workload.Table1Names() {
		inst, err := workload.Spec{Alg: name, N: 2048, V: 32, Seed: 17}.Build()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := embsp.RunReference(inst.Program, 17)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		cfg := workload.Machine(inst.Program, 4, 4, 32, 1, 1000)
		cfg.M = max(cfg.M, cfg.D*cfg.B)
		m := &tailMeter{t: t, label: name}
		res, err := core.RunOver(func(inner core.Transport) core.Transport {
			m.Transport = inner
			return m
		}, inst.Program, cfg, core.Options{Seed: 17})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mu, gamma := inst.Program.MaxContextWords(), inst.Program.MaxCommWords()
		if limit := core.MemLimit(cfg, res.EM.K, mu, gamma); res.EM.MemHigh > limit {
			t.Errorf("%s: memory high-water %d words, over the budget %d", name, res.EM.MemHigh, limit)
		}
		if res.EM.K != 1 {
			t.Errorf("%s: k = %d, want 1 (µ = %d)", name, res.EM.K, mu)
		}
		if !slices.Equal(contexts(res.VPs), contexts(ref.VPs)) {
			t.Errorf("%s: final contexts differ from the reference run's", name)
		}
		evicted += m.evicted
	}
	if evicted == 0 {
		t.Error("no stream was cut short by an eviction: the bound was never reached")
	}
}

// TestIOFloorTable1: every input word is written once and every output
// word read once, so a run takes at least 2⌈n/(D·B)⌉ parallel
// operations, n the instance's input words: its initial contexts'
// encoded size. A count below it is an accounting bug, not a saving.
func TestIOFloorTable1(t *testing.T) {
	for _, name := range workload.Table1Names() {
		spec := workload.Spec{Alg: name, N: 4096, V: 32, Seed: 5}
		inst, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		n, enc := 0, words.NewEncoder(nil)
		for id := range inst.Program.NumVPs() {
			enc.Reset()
			inst.Program.NewVP(id).Save(enc)
			n += enc.Len()
		}
		for _, p := range []int{1, 3} {
			cfg := workload.Machine(inst.Program, p, 4, 32, 4, 1000)
			cfg.M = max(cfg.M, cfg.D*cfg.B)
			res, err := core.Run(inst.Program, cfg, core.Options{Seed: 5})
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
			ops := res.EM.Setup.Ops + res.EM.Run.Ops + res.EM.Finish.Ops
			if floor := int64(2 * ((n + cfg.D*cfg.B - 1) / (cfg.D * cfg.B))); ops < floor {
				t.Errorf("%s P=%d: %d parallel operations, below the floor 2⌈n/(D·B)⌉ = %d for n = %d input words", name, p, ops, floor, n)
			}
		}
	}
}
