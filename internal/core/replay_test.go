package core_test

import (
	"fmt"
	"slices"
	"testing"

	"embsp/internal/core"
	"embsp/internal/disk"
	"embsp/internal/fault"
	"embsp/internal/redundancy"
	"embsp/internal/workload"
)

// TestReplayLandsOnBarrier: a replay adopts the record of the barrier it
// returns to and keeps history, nothing more (DESIGN.md §8). Under a
// fault plan with retries off, on sort and listrank at P = 1 and 2 with
// parity on and off, every rollback — the set-up's included — leaves
// each processor re-encoding to the words of its record at the barrier
// but for the history a replay keeps (WithoutHistory), its accountant
// holding what it held there, and its fault layer's clocks and counters
// where the aborted attempt left them.
func TestReplayLandsOnBarrier(t *testing.T) {
	for _, alg := range []string{"sort", "listrank"} {
		inst, err := workload.Spec{Alg: alg, N: 2048, V: 8, Seed: 7}.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2} {
			// Batches of two VPs, so that every processor's set-up writes
			// a batch to disk, which can fault.
			cfg := workload.Machine(inst.Program, p, 4, 64, 2, 1000)
			for _, mode := range []redundancy.Mode{redundancy.None, redundancy.Parity} {
				label := fmt.Sprintf("%s P=%d %v", alg, p, mode)
				var m *barrierMeter
				for seed := uint64(1); seed <= 64 && (m == nil || m.setups == 0 || m.steps == 0); seed++ {
					_, err := core.RunOver(func(inner core.Transport) core.Transport {
						m = &barrierMeter{Transport: inner, t: t, label: fmt.Sprintf("%s plan seed %d", label, seed), D: cfg.D}
						return m
					}, inst.Program, cfg, core.Options{Seed: 7, MaxRetries: -1, Redundancy: mode,
						FaultPlan: &fault.Plan{Seed: seed, ReadErrorRate: 0.005, WriteErrorRate: 0.005, CorruptRate: 0.005}})
					if err != nil {
						t.Fatalf("%s plan seed %d: %v", label, seed, err)
					}
				}
				if m.setups == 0 || m.steps == 0 {
					t.Errorf("%s: no plan seed up to 64 rolls back both the set-up and a superstep", label)
				}
			}
		}
	}
}

// barrierMeter keeps, at every barrier, what each processor must return
// to there, and checks every rollback against it.
type barrierMeter struct {
	core.Transport
	t      *testing.T
	label  string
	D      int
	rec    [][]uint64 // per processor: its record without history
	used   []int64    // per processor: its memory in use
	setups int        // the set-up rollbacks checked
	steps  int        // the superstep rollbacks checked
}

// records are the processors' records without history: before the
// set-up (step -1), their chains' states.
func (m *barrierMeter) records(step int) (rs [][]uint64) {
	if step < 0 {
		for _, st := range core.ChainStates(m.Transport) {
			rs = append(rs, core.WithoutHistory(st, m.D))
		}
		return rs
	}
	for _, r := range core.ProcRecords(m.Transport) {
		rs = append(rs, r.WithoutHistory())
	}
	return rs
}

func (m *barrierMeter) keep(step int) {
	m.rec, m.used = m.records(step), core.MemUsed(m.Transport)
}

// history is each processor's fault-layer clocks and counters.
func (m *barrierMeter) history() (h []string) {
	for i := range m.used {
		f := core.FaultLayer(m.Transport, i)
		clocks := make([]int64, m.D)
		for d := range clocks {
			clocks[d] = f.Clock(d)
		}
		h = append(h, fmt.Sprintf("clocks %v, counters %+v", clocks, f.Counters()))
	}
	return h
}

func (m *barrierMeter) Setup() ([]disk.Stats, error) {
	if m.rec == nil {
		m.keep(-1)
	}
	return m.Transport.Setup()
}

func (m *barrierMeter) Commit(step int) error {
	m.keep(step + 1)
	return m.Transport.Commit(step)
}

func (m *barrierMeter) Rollback(step, attempt int, cause error) (int64, error) {
	before := m.history()
	aborted, err := m.Transport.Rollback(step, attempt, cause)
	if err != nil {
		return aborted, err
	}
	label := fmt.Sprintf("%s: rollback of superstep %d", m.label, step)
	for i, rec := range m.records(step) {
		if !slices.Equal(rec, m.rec[i]) {
			m.t.Errorf("%s: processor %d re-encodes to other words than its record of the barrier", label, i)
		}
	}
	if used := core.MemUsed(m.Transport); !slices.Equal(used, m.used) {
		m.t.Errorf("%s: the processors hold %v words, %v at the barrier", label, used, m.used)
	}
	if after := m.history(); !slices.Equal(after, before) {
		m.t.Errorf("%s: the fault layers went from\n%v\nto\n%v", label, before, after)
	}
	if step < 0 {
		m.setups++
	} else {
		m.steps++
	}
	return aborted, nil
}
