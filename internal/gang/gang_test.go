package gang

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestWaitJoinsErrorsInMemberOrder: the woken members' errors come back
// joined in member order, whatever order they finish in, and a member
// not woken reports nil — the next Wait starts clean.
func TestWaitJoinsErrorsInMemberOrder(t *testing.T) {
	const n = 4
	var g Gang
	g.Start(n, func(i int) error {
		// Later members finish first.
		time.Sleep(time.Duration(n-i) * time.Millisecond)
		if i%2 == 1 {
			return fmt.Errorf("member %d", i)
		}
		return nil
	})
	defer g.Stop()
	for i := n - 1; i >= 0; i-- {
		g.Wake(i)
	}
	if got, want := fmt.Sprint(g.Wait()), "member 1\nmember 3"; got != want {
		t.Errorf("all woken: Wait = %q, want %q", got, want)
	}
	// Members 1 and 3 failed last time; woken alone, 0 and 2 report nil.
	g.Wake(2)
	g.Wake(0)
	if err := g.Wait(); err != nil {
		t.Errorf("members 0 and 2 woken: Wait = %v, want nil", err)
	}
	g.Wake(3)
	if got, want := fmt.Sprint(g.Wait()), "member 3"; got != want {
		t.Errorf("member 3 woken: Wait = %q, want %q", got, want)
	}
}

// TestWaitSeesMembersWrites: what the owner writes before Wake reaches
// the member, and what the member writes reaches the owner after Wait.
func TestWaitSeesMembersWrites(t *testing.T) {
	const n = 3
	in, out := make([]int, n), make([]int, n)
	var g Gang
	g.Start(n, func(i int) error { out[i] = 2 * in[i]; return nil })
	defer g.Stop()
	for round := 1; round <= 100; round++ {
		for i := range in {
			in[i] = round + i
			g.Wake(i)
		}
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != 2*(round+i) {
				t.Fatalf("round %d: member %d wrote %d, want %d", round, i, out[i], 2*(round+i))
			}
		}
	}
}

// TestWaitWithNothingWoken returns nil at once, on a started gang and
// on the zero Gang.
func TestWaitWithNothingWoken(t *testing.T) {
	var calls atomic.Int64
	var g Gang
	g.Start(2, func(int) error { calls.Add(1); return errors.New("called") })
	if err := g.Wait(); err != nil {
		t.Errorf("Wait with nothing woken = %v, want nil", err)
	}
	g.Stop()
	if n := calls.Load(); n != 0 {
		t.Errorf("%d calls, want none", n)
	}
	var zero Gang
	if err := zero.Wait(); err != nil {
		t.Errorf("zero Gang: Wait = %v, want nil", err)
	}
	zero.Stop()
}

// TestStopIsIdempotent: Stop returns once every goroutine has exited,
// finishing a call in flight first, and a second Stop returns at once.
func TestStopIsIdempotent(t *testing.T) {
	base := runtime.NumGoroutine()
	const n = 5
	var done atomic.Int64
	var g Gang
	g.Start(n, func(int) error {
		time.Sleep(5 * time.Millisecond)
		done.Add(1)
		return nil
	})
	if got := runtime.NumGoroutine() - base; got < n {
		t.Errorf("%d goroutines after Start, want at least %d", got, n)
	}
	g.Wake(0)
	g.Stop()
	if done.Load() != 1 {
		t.Errorf("the call in flight did not finish before Stop returned")
	}
	if err := g.Wait(); err != nil {
		t.Errorf("Wait after Stop = %v, want nil", err)
	}
	g.Stop()
	// Stop waited for its own goroutines; any other goroutine the test
	// runtime has is still ending.
	left := runtime.NumGoroutine() - base
	for deadline := time.Now().Add(2 * time.Second); left > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		left = runtime.NumGoroutine() - base
	}
	if left > 0 {
		t.Errorf("%d goroutines outlive Stop", left)
	}
}

// TestWarmWakeWaitAllocatesNothing: once started, waking every member of
// a gang of four and waiting for them allocates nothing.
func TestWarmWakeWaitAllocatesNothing(t *testing.T) {
	const n = 4
	var g Gang
	g.Start(n, func(int) error { return nil })
	defer g.Stop()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < n; i++ {
			g.Wake(i)
		}
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm Wake+Wait of %d members allocates %v objects, want 0", n, allocs)
	}
}
