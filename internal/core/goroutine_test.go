package core_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/core"
	"embsp/internal/disk"
	"embsp/internal/fault"
)

// goroutineMeter samples, at every driver call, how many goroutines the
// process holds beyond base.
type goroutineMeter struct {
	core.Transport
	base  int
	calls int
	seen  map[int]int // extra goroutines → calls that saw them
}

func (m *goroutineMeter) sample() {
	m.calls++
	m.seen[runtime.NumGoroutine()-m.base]++
}

func (m *goroutineMeter) Setup() ([]disk.Stats, error) { m.sample(); return m.Transport.Setup() }
func (m *goroutineMeter) Begin(step int) error         { m.sample(); return m.Transport.Begin(step) }
func (m *goroutineMeter) Compute(j, step int) ([]*core.BatchOut, error) {
	m.sample()
	return m.Transport.Compute(j, step)
}
func (m *goroutineMeter) Write(j, step int, outs []*core.BatchOut) error {
	m.sample()
	return m.Transport.Write(j, step, outs)
}
func (m *goroutineMeter) Totals() ([]core.StepTotals, error) { m.sample(); return m.Transport.Totals() }
func (m *goroutineMeter) Prepare(step int, halted bool) ([]int64, error) {
	m.sample()
	return m.Transport.Prepare(step, halted)
}
func (m *goroutineMeter) Final() ([]*core.NodeReport, error) { m.sample(); return m.Transport.Final() }

// failAt fails every VP's Step in superstep at with an error.
type failAt struct {
	bsp.Program
	at int
}

var errVPFailed = errors.New("injected VP failure")

func (p failAt) NewVP(id int) bsp.VP { return failingVP{p.Program.NewVP(id), p.at} }

type failingVP struct {
	bsp.VP
	at int
}

func (v failingVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	if env.Superstep() == v.at {
		return false, errVPFailed
	}
	return v.VP.Step(env, in)
}

// cancelAfter cancels the run's context at superstep step's vote, so the
// next barrier finds it done.
type cancelAfter struct {
	core.Transport
	step   int
	cancel context.CancelFunc
	begun  int // the superstep last begun
}

func (c *cancelAfter) Begin(step int) error { c.begun = step; return c.Transport.Begin(step) }
func (c *cancelAfter) Totals() ([]core.StepTotals, error) {
	if c.begun == c.step {
		c.cancel()
	}
	return c.Transport.Totals()
}

// settledGoroutines waits until the process's goroutine count holds still
// — goroutines an earlier test left may still be ending — and returns it.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestNodeGoroutines: the in-process engine runs every node but the
// first on a goroutine of its own for the whole run, and the first on
// the caller's — so a P = 3 run holds exactly two goroutines beyond the
// caller's at every driver call, between phases as within them — and no
// goroutine outlives Run, whether the run succeeds, a VP fails, its
// context is cancelled at a barrier, or a fault plan exhausts its
// replays. A VP's failure reaches the caller as the run's error, and so
// does a panic of VP v/2, which node 1's goroutine steps and
// bsp.SafeStep recovers there.
func TestNodeGoroutines(t *testing.T) {
	const P = 3
	prog := &bsptest.RandomProgram{V: 24, Steps: 4, MsgsPerStep: 4, MaxLen: 12}
	cfg := parMachine(P, 2, 8, 64)
	cases := []struct {
		name     string
		prog     bsp.Program
		opts     core.Options
		cancelAt int    // cancel the run's context at this superstep's vote; -1: never
		want     string // a fragment of the run's error; "": success
	}{
		{name: "success", prog: prog, cancelAt: -1},
		{name: "program error", prog: failAt{prog, 2}, cancelAt: -1, want: errVPFailed.Error()},
		{name: "program panic", prog: &panicProgram{Program: prog, panicStep: 2}, cancelAt: -1, want: "injected crash in superstep 2"},
		{name: "cancelled at a barrier", prog: prog, cancelAt: 1, want: "cancelled at superstep barrier 2"},
		// Almost every write fails and none is retried, so the set-up
		// replays until the engine gives up.
		{name: "fault plan exhausts its replays", prog: prog, cancelAt: -1, want: "unrecoverable after",
			opts: core.Options{MaxRetries: -1, FaultPlan: &fault.Plan{Seed: 1, WriteErrorRate: 0.999}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := settledGoroutines(t)
			m := &goroutineMeter{base: base, seen: map[int]int{}}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			wrap := func(inner core.Transport) core.Transport {
				m.Transport = &cancelAfter{Transport: inner, step: c.cancelAt, cancel: cancel, begun: -1}
				return m
			}
			c.opts.Seed = 5
			_, err := core.RunOverContext(ctx, wrap, c.prog, cfg, c.opts)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("run: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("run error %v, want one containing %q", err, c.want)
			}
			if m.calls == 0 || len(m.seen) != 1 || m.seen[P-1] != m.calls {
				t.Errorf("extra goroutines seen at the driver's %d calls (count → calls): %v, want %d at every call", m.calls, m.seen, P-1)
			}
			left := runtime.NumGoroutine() - base
			for deadline := time.Now().Add(2 * time.Second); left > 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				left = runtime.NumGoroutine() - base
			}
			if left > 0 {
				t.Errorf("%d goroutines outlive Run", left)
			}
			t.Logf("%d driver calls, each with %d node goroutines", m.calls, P-1)
		})
	}
}
