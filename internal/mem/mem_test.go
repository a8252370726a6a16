package mem

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestGrabRelease(t *testing.T) {
	a := NewAccountant(100)
	if err := a.Grab(60); err != nil {
		t.Fatal(err)
	}
	if err := a.Grab(40); err != nil {
		t.Fatal(err)
	}
	if err := a.Grab(1); err == nil {
		t.Error("over-limit grab accepted")
	}
	if a.Used() != 100 || a.High() != 100 {
		t.Errorf("Used=%d High=%d, want 100/100", a.Used(), a.High())
	}
	a.Release(50)
	if err := a.Grab(30); err != nil {
		t.Errorf("grab after release failed: %v", err)
	}
	if a.Used() != 80 {
		t.Errorf("Used = %d, want 80", a.Used())
	}
	if a.High() != 100 {
		t.Errorf("High = %d, want 100", a.High())
	}
}

func TestUnlimited(t *testing.T) {
	a := NewAccountant(0)
	if err := a.Grab(1 << 40); err != nil {
		t.Errorf("unlimited accountant rejected grab: %v", err)
	}
	if a.High() != 1<<40 {
		t.Errorf("High = %d, want %d", a.High(), int64(1)<<40)
	}
}

func TestNegativeGrab(t *testing.T) {
	a := NewAccountant(10)
	if err := a.Grab(-1); err == nil {
		t.Error("negative grab accepted")
	}
}

func TestOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	a := NewAccountant(10)
	_ = a.Grab(5)
	a.Release(6)
}

func TestReserveCtxImmediate(t *testing.T) {
	a := NewAccountant(100)
	if err := a.ReserveCtx(context.Background(), 100); err != nil {
		t.Fatalf("fitting reserve blocked or failed: %v", err)
	}
	if a.Used() != 100 {
		t.Errorf("Used = %d, want 100", a.Used())
	}
}

func TestReserveCtxNeverFits(t *testing.T) {
	a := NewAccountant(100)
	if err := a.ReserveCtx(context.Background(), 101); err == nil {
		t.Fatal("reserve larger than the limit did not fail immediately")
	}
	if a.Used() != 0 {
		t.Errorf("failed reserve left %d words held", a.Used())
	}
}

// TestReserveCtxCancellation is the satellite's regression test: a
// reservation stalled on an exhausted budget must unblock with the
// context's error when the waiting job is cancelled — previously the
// only blocking-reservation pattern (the store's write-behind stall)
// could wait forever with nothing to wake it.
func TestReserveCtxCancellation(t *testing.T) {
	a := NewAccountant(10)
	if err := a.Grab(10); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.ReserveCtx(ctx, 5) }()
	select {
	case err := <-done:
		t.Fatalf("reserve on an exhausted budget returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled reserve returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled reserve still blocked")
	}
	if a.Used() != 10 {
		t.Errorf("cancelled reserve changed usage to %d", a.Used())
	}
}

// TestReserveCtxNoStarvation is the FIFO handoff's regression test: a
// large reservation queued on an exhausted budget must be granted once
// enough capacity drains, even while a continuous stream of small
// reservations races it. Under the old broadcast wake, every freed
// chunk re-raced all waiters and a small latecomer could snatch it
// before the large reservation's re-check — which could starve it
// forever.
func TestReserveCtxNoStarvation(t *testing.T) {
	a := NewAccountant(100)
	if err := a.Grab(100); err != nil {
		t.Fatal(err)
	}
	big := make(chan error, 1)
	go func() { big <- a.ReserveCtx(context.Background(), 90) }()
	for a.waiterCount() == 0 {
		time.Sleep(time.Millisecond)
	}

	// A stream of small reservations arriving behind the blocked large
	// one: under FIFO they must queue (not jump it), so draining the
	// budget hands capacity to the head.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	smallDone := make(chan struct{})
	go func() {
		defer close(smallDone)
		for ctx.Err() == nil {
			if err := a.ReserveCtx(ctx, 1); err != nil {
				return
			}
			a.Release(1)
		}
	}()

	// Drain the initial hold in small steps — each Release wakes the
	// queue head; the large reservation must be granted exactly when
	// the last chunk frees, small-stream racing or not.
	for i := 0; i < 10; i++ {
		time.Sleep(time.Millisecond)
		a.Release(10)
	}
	select {
	case err := <-big:
		if err != nil {
			t.Fatalf("large reservation failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("large reservation starved by a stream of small ones")
	}
	cancel()
	<-smallDone
	a.Release(90)
	if a.Used() != 0 {
		t.Errorf("Used = %d after all releases, want 0", a.Used())
	}
}

// TestReserveCtxFIFOOrder: queued reservations are granted strictly
// oldest first, even when a younger one would fit sooner.
func TestReserveCtxFIFOOrder(t *testing.T) {
	a := NewAccountant(10)
	if err := a.Grab(10); err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() { first <- a.ReserveCtx(context.Background(), 8) }()
	for a.waiterCount() == 0 {
		time.Sleep(time.Millisecond)
	}
	second := make(chan error, 1)
	go func() { second <- a.ReserveCtx(context.Background(), 4) }()
	for a.waiterCount() < 2 {
		time.Sleep(time.Millisecond)
	}

	// Freeing 4 words fits the younger reservation but NOT the queue
	// head: nobody may be granted.
	a.Release(4)
	select {
	case <-first:
		t.Fatal("queue head granted without capacity")
	case <-second:
		t.Fatal("younger reservation jumped the queue")
	case <-time.After(20 * time.Millisecond):
	}

	// Freeing the rest grants the head — and only the head: its 8
	// words leave no room for the younger 4.
	a.Release(6)
	select {
	case err := <-first:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queue head not granted after capacity freed")
	}
	select {
	case <-second:
		t.Fatal("younger reservation granted without capacity")
	case <-time.After(20 * time.Millisecond):
	}

	// The head's release hands its capacity down the queue.
	a.Release(8)
	select {
	case err := <-second:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("younger reservation not granted after the head released")
	}
	if a.Used() != 4 {
		t.Errorf("Used = %d, want 4", a.Used())
	}
}

// TestReserveCtxCancelWhileQueued: cancelling a queued waiter removes
// it and unblocks the ones behind it.
func TestReserveCtxCancelWhileQueued(t *testing.T) {
	a := NewAccountant(10)
	if err := a.Grab(6); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	head := make(chan error, 1)
	go func() { head <- a.ReserveCtx(ctx, 8) }() // can never proceed while 6 held
	for a.waiterCount() == 0 {
		time.Sleep(time.Millisecond)
	}
	tail := make(chan error, 1)
	go func() { tail <- a.ReserveCtx(context.Background(), 4) }() // fits now, but queued behind head
	for a.waiterCount() < 2 {
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-tail:
		t.Fatalf("younger reservation jumped the queue: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	if err := <-head; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled head returned %v, want context.Canceled", err)
	}
	select {
	case err := <-tail:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("removing the cancelled head did not unblock the queue")
	}
	if a.Used() != 10 {
		t.Errorf("Used = %d, want 10", a.Used())
	}
}

func TestReserveCtxUnblocksOnRelease(t *testing.T) {
	a := NewAccountant(10)
	if err := a.Grab(8); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.ReserveCtx(context.Background(), 5) }()
	select {
	case err := <-done:
		t.Fatalf("reserve returned before capacity freed: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	a.Release(8)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("reserve after release failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reserve still blocked after release freed capacity")
	}
	if a.Used() != 5 {
		t.Errorf("Used = %d, want 5", a.Used())
	}
}

// waiterCount reports the queued ReserveCtx waiters.
func (a *Accountant) waiterCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiters)
}
