package cluster

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/core"
)

// goroutineID returns the id of the calling goroutine, as tracebacks
// print it.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// gangMembers counts the gang members the goroutine with id creator
// started, by the process's tracebacks.
func gangMembers(creator string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	created := "created by embsp/internal/gang.(*Gang).Start in goroutine " + creator + "\n"
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, created) {
			n++
		}
	}
	return n
}

// failAt fails every VP's Step in superstep at.
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

// TestCoordinatorGoroutines, the cluster's twin of core's
// TestNodeGoroutines: over loopback at P = 2 the coordinator holds its P
// legs, the members of its gang, at every phase a worker serves, and
// none outlives Run, whether the run succeeds or a VP fails.
func TestCoordinatorGoroutines(t *testing.T) {
	const P = 2
	prog := &bsptest.RandomProgram{V: 16, Steps: 4, MsgsPerStep: 4, MaxLen: 12}
	cfg := core.MachineConfig{
		P: P, M: 256, D: 2, B: 8, G: 10,
		Cost: bsp.CostParams{GUnit: 1, GPkt: 2, Pkt: 16, L: 5},
	}
	cases := []struct {
		name string
		prog bsp.Program
		want string // a fragment of the run's error; "": success
	}{
		{name: "success", prog: prog},
		{name: "program error", prog: failAt{prog, 2}, want: errVPFailed.Error()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			coord := goroutineID() // loopbackRun runs the coordinator here
			var mu sync.Mutex
			seen := map[int]int{} // legs → worker phases that saw them
			sample := func(string, int) {
				n := gangMembers(coord)
				mu.Lock()
				seen[n]++
				mu.Unlock()
			}
			_, err := loopbackRun(t, c.prog, cfg, core.Options{Seed: 5}, t.TempDir(), func(w *Worker) { w.Probe = sample })
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("run: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("run error %v, want one containing %q", err, c.want)
			}
			if len(seen) != 1 || seen[P] == 0 {
				t.Errorf("coordinator legs seen at the workers' phases (count → phases): %v, want %d at every phase", seen, P)
			}
			if n := gangMembers(coord); n != 0 {
				t.Errorf("%d coordinator legs outlive Run", n)
			}
			t.Logf("coordinator legs seen (count → phases): %v", seen)
		})
	}
}
