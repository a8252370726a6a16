package core_test

import (
	"fmt"
	"testing"

	"embsp/internal/core"
	"embsp/internal/disk"
	"embsp/internal/redundancy"
	"embsp/internal/workload"
)

// opsMeter checks, as a run goes, that a batch's contexts and messages
// share parallel operations (DESIGN.md §22.1): per processor, the set-up
// and every superstep write their blocks in ⌈blocks/L⌉ operations — a
// batch of sleepers under redundancy, written between flushes of its
// own, costs at most two more — and every batch's one read takes at most
// ⌈R/L⌉ + 1 operations for its R context and message blocks.
type opsMeter struct {
	core.Transport
	t      *testing.T
	label  string
	L      int
	before []core.Writes
	reads  int // batch reads checked
}

func (m *opsMeter) checkWrites(phase string, after []core.Writes, since []core.Writes) {
	m.t.Helper()
	for p, w := range after {
		ops := int(w.Stats.WriteOps - w.ParityOps)
		if since != nil {
			ops -= int(since[p].Stats.WriteOps - since[p].ParityOps)
		}
		want := (w.Blocks + m.L - 1) / m.L
		if ops < want || ops > want+2*w.Sealed || w.Sealed == 0 && ops != want {
			m.t.Errorf("%s %s, processor %d: %d blocks (%d batches sealed) written in %d operations, want %d", m.label, phase, p, w.Blocks, w.Sealed, ops, want)
		}
	}
}

func (m *opsMeter) Setup() (stats []disk.Stats, err error) {
	if stats, err = m.Transport.Setup(); err == nil {
		// The set-up's statistics are what Setup returns: the chain's
		// counters start again from it.
		ws := core.WritesOf(m.Transport)
		for p := range ws {
			ws[p].Stats = stats[p]
		}
		m.checkWrites("set-up", ws, nil)
	}
	return stats, err
}

func (m *opsMeter) Begin(step int) error {
	err := m.Transport.Begin(step)
	m.before = core.WritesOf(m.Transport)
	return err
}

func (m *opsMeter) Compute(j, step int) ([]*core.BatchOut, error) {
	before := core.WritesOf(m.Transport)
	outs, err := m.Transport.Compute(j, step)
	for p, w := range core.WritesOf(m.Transport) {
		ops, R := int(w.Stats.ReadOps-before[p].Stats.ReadOps), int(w.Stats.BlocksRead-before[p].Stats.BlocksRead)
		if bound := (R+m.L-1)/m.L + 1; ops > bound {
			m.t.Errorf("%s superstep %d, processor %d: batch %d reads %d blocks in %d operations, above ⌈R/L⌉ + 1 = %d", m.label, step, p, j, R, ops, bound)
		}
		m.reads++
	}
	return outs, err
}

func (m *opsMeter) Totals() ([]core.StepTotals, error) {
	m.checkWrites("superstep", core.WritesOf(m.Transport), m.before)
	return m.Transport.Totals()
}

// TestContextsShareOperations runs the golden sort and listrank at P = 1
// and 2, and sort under parity, under opsMeter.
func TestContextsShareOperations(t *testing.T) {
	sort := workload.Spec{Alg: "sort", N: 8192, V: 16, Seed: 7}
	listrank := workload.Spec{Alg: "listrank", N: 2048, V: 8, Seed: 7}
	for _, row := range []struct {
		spec workload.Spec
		p    int
		red  redundancy.Mode
	}{
		{sort, 1, redundancy.None},
		{sort, 2, redundancy.None},
		{listrank, 1, redundancy.None},
		{listrank, 2, redundancy.None},
		{sort, 1, redundancy.Parity},
	} {
		inst, err := row.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		const D = 4
		m := &opsMeter{t: t, label: fmt.Sprintf("%s P=%d %v", row.spec.Alg, row.p, row.red), L: D}
		if _, err := core.RunOver(func(inner core.Transport) core.Transport {
			m.Transport = inner
			return m
		}, inst.Program, workload.Machine(inst.Program, row.p, D, 64, 6, 1000), core.Options{Seed: 7, Redundancy: row.red}); err != nil {
			t.Fatal(err)
		}
		if m.reads == 0 {
			t.Errorf("%s: no batch read was checked", m.label)
		}
	}
}
