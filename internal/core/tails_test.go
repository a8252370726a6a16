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

// targetMeter records, per (superstep, processor, batch), the processor
// each scattered block was sent to.
type targetMeter struct {
	core.Transport
	targets map[[3]int][]int
}

func (m *targetMeter) Compute(j, step int, rows [][]core.BlockBatch) ([]*core.BatchOut, error) {
	outs, err := m.Transport.Compute(j, step, rows)
	for src, bo := range outs {
		m.targets[[3]int{step, src, j}] = core.PacketTargets(bo)
	}
	return outs, err
}

// TestScatterDrawsOneStreamPerSuperstep: Algorithm 3 sends each packet
// to a processor drawn independently, so the batches of one superstep
// draw from one stream that runs on across the processor's rounds. A
// stream restarted every batch sends every batch's i-th packet to the
// same processor. Here a packet is one block (⌊b/B⌋ = 1) and each
// processor runs two batches a superstep.
func TestScatterDrawsOneStreamPerSuperstep(t *testing.T) {
	inst, err := workload.Spec{Alg: "sort", N: 8192, V: 16, Seed: 7}.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Machine(inst.Program, 2, 4, 64, 6, 1000)
	if cfg.Cost.Pkt/cfg.B != 1 {
		t.Fatalf("b = %d, B = %d: want one block a packet", cfg.Cost.Pkt, cfg.B)
	}
	m := &targetMeter{targets: map[[3]int][]int{}}
	res, err := core.RunOver(func(inner core.Transport) core.Transport {
		m.Transport = inner
		return m
	}, inst.Program, cfg, core.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.EM.Groups != 2 {
		t.Fatalf("%d batches a processor, want 2", res.EM.Groups)
	}
	compared := 0
	for key, first := range m.targets {
		if key[2] != 0 {
			continue
		}
		second := m.targets[[3]int{key[0], key[1], 1}]
		if n := min(len(first), len(second)); n >= 8 {
			compared++
			if fmt.Sprint(first[:n]) == fmt.Sprint(second[:n]) {
				t.Errorf("superstep %d, processor %d: both batches send their packets to %v", key[0], key[1], first[:n])
			}
		}
	}
	if compared == 0 {
		t.Fatal("no superstep has two batches of 8 packets or more to compare")
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

func (m *tailMeter) Compute(j, step int, rows [][]core.BlockBatch) ([]*core.BatchOut, error) {
	outs, err := m.Transport.Compute(j, step, rows)
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
