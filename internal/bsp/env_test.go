package bsp

import (
	"slices"
	"testing"
)

// TestEnvSendCopies: both kinds of Env hand emit a copy of the payload,
// capacity-limited. A reused Env's copies are its send memory, which
// keeps them across Resets and hands its words out again after
// ClearSent; NewEnv's are allocations of their own.
func TestEnvSendCopies(t *testing.T) {
	var got [][]uint64
	emit := func(_ int, p []uint64) { got = append(got, p) }
	buf := []uint64{1, 2}

	var e Env
	e.Reset(0, 2, 0, 1, emit)
	e.Send(1, buf)
	e.Reset(1, 2, 0, 1, emit)
	e.Send(0, buf[:1])
	buf[0] = 9
	if !slices.Equal(got[0], []uint64{1, 2}) || !slices.Equal(got[1], []uint64{1}) {
		t.Fatalf("after a Reset and a write to the sent slice: payloads %v", got)
	}
	if cap(got[0]) != len(got[0]) || &got[1][0] != &e.sent[2] {
		t.Errorf("a reused Env's payloads are not capacity-limited runs of its send memory")
	}
	mem := e.sent[:cap(e.sent)]
	e.ClearSent()
	e.Send(1, []uint64{7})
	if &got[2][0] != &mem[0] {
		t.Errorf("ClearSent does not hand the send memory out again")
	}

	NewEnv(0, 2, 0, 1, emit).Send(1, buf)
	NewEnv(1, 2, 0, 1, emit).Send(0, buf)
	if &got[3][0] == &got[4][0] || &got[3][0] == &buf[0] || !slices.Equal(got[3], buf) {
		t.Errorf("NewEnv's payloads are not copies of their own")
	}
}

// TestReusedEnvSendAllocatesNothing: Send copies before it calls emit,
// so a payload does not escape — a slice literal stays on the VP's
// stack — and a reused Env's copy goes to its send memory.
func TestReusedEnvSendAllocatesNothing(t *testing.T) {
	var e Env
	emit := func(int, []uint64) {}
	e.Reset(0, 2, 0, 1, emit)
	e.Send(1, make([]uint64, 8))
	x := uint64(5)
	if n := testing.AllocsPerRun(100, func() {
		e.ClearSent()
		e.Send(1, []uint64{x, x + 1})
	}); n != 0 {
		t.Errorf("a Send of a literal through a reused Env allocates %v times", n)
	}
}
