package jobs

import (
	"strings"
	"testing"

	"embsp"
	"embsp/internal/obs"
	"embsp/internal/words"
	"embsp/internal/workload"
)

// overread wraps a program so every VP's Load reads one word more than
// its Save wrote. Before contexts were packed that word was the slot's
// zero padding and the bug was silent; now it is past the end of the
// record.
type overread struct{ embsp.Program }

func (p overread) NewVP(id int) embsp.VP { return overreadVP{p.Program.NewVP(id)} }

type overreadVP struct{ embsp.VP }

func (v overreadVP) Load(dec *words.Decoder) {
	v.VP.Load(dec)
	dec.Uint()
}

// TestLoadPanicFailsJobNotDaemon: a served job whose Load over-reads
// ends failed — on its first attempt, a program error is terminal — with
// the panic named in its error, and the supervisor goes on serving.
func TestLoadPanicFailsJobNotDaemon(t *testing.T) {
	const badSeed = 0xBAD
	orig := buildWorkload
	t.Cleanup(func() { buildWorkload = orig }) // after the supervisor's drain
	buildWorkload = func(spec workload.Spec) (*workload.Instance, error) {
		inst, err := spec.Build()
		if err == nil && spec.Seed == badSeed {
			inst.Program = overread{inst.Program}
		}
		return inst, err
	}
	s := startSupervisor(t, Config{Metrics: obs.NewRegistry()})
	bad, err := s.Submit(Request{Workload: testSpec(badSeed)})
	if err != nil {
		t.Fatal(err)
	}
	bad = waitJob(t, s, bad.ID, func(j Job) bool { return j.State.Terminal() })
	if bad.State != StateFailed || bad.Attempts != 1 {
		t.Fatalf("state=%s attempts=%d, want failed on the first attempt", bad.State, bad.Attempts)
	}
	for _, want := range []string{"program panicked in VP 0, superstep 0 (load)", "decode past end of buffer"} {
		if !strings.Contains(bad.Error, want) {
			t.Errorf("error %q does not say %q", bad.Error, want)
		}
	}
	good, err := s.Submit(Request{Workload: testSpec(5)})
	if err != nil {
		t.Fatal(err)
	}
	if good = waitJob(t, s, good.ID, func(j Job) bool { return j.State.Terminal() }); good.State != StateDone {
		t.Fatalf("the job after the failed one ended %s (%s), want done", good.State, good.Error)
	}
}
