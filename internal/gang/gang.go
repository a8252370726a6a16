// Package gang runs one call on each of a fixed set of goroutines at
// once and joins their errors: the one fan-out of the simulation, whose
// superstep does one step on each of P processors and one transfer on
// each of D drives before its barrier (Algorithm 3). A gang's
// goroutines live from Start to Stop, so a warm Wake and Wait start no
// goroutine and allocate nothing.
package gang

import (
	"errors"
	"sync"
)

// Gang is n long-lived goroutines, member i running f(i) each time it
// is woken. The zero Gang has no members: Wait returns nil and Stop
// returns at once. One goroutine at a time, the gang's owner, calls its
// methods; what the owner writes before Wake(i) is visible to f(i), and
// what f(i) writes is visible to the owner once Wait returns.
type Gang struct {
	f       func(i int) error
	members []member
	busy    sync.WaitGroup // the members woken since the last Wait, until their calls return
	live    sync.WaitGroup // the goroutines, until Stop ends them
	stop    sync.Once
}

type member struct {
	wake chan struct{}
	err  error // f's result since the last Wait; nil if not woken
}

// Start starts the gang's n goroutines. It is called once, on a zero
// Gang.
func (g *Gang) Start(n int, f func(i int) error) {
	g.f, g.members = f, make([]member, n)
	g.live.Add(n)
	for i := range g.members {
		g.members[i].wake = make(chan struct{})
		go g.run(i)
	}
}

// run is member i's goroutine.
func (g *Gang) run(i int) {
	defer g.live.Done()
	m := &g.members[i]
	for range m.wake {
		m.err = g.f(i)
		g.busy.Done()
	}
}

// Wake hands member i its call and returns once the member has taken
// it. A member is woken at most once between two Waits, and never after
// Stop.
func (g *Gang) Wake(i int) {
	g.busy.Add(1)
	g.members[i].wake <- struct{}{}
}

// Wait returns once the calls of the members woken since the last Wait
// have returned, with their errors joined in member order.
func (g *Gang) Wait() error {
	g.busy.Wait()
	var errs []error
	for i := range g.members {
		if m := &g.members[i]; m.err != nil {
			errs = append(errs, m.err)
			m.err = nil
		}
	}
	return errors.Join(errs...)
}

// Stop ends the gang's goroutines and returns once every one has
// exited; a call in flight finishes first. Stop may be called again.
func (g *Gang) Stop() {
	g.stop.Do(func() {
		for i := range g.members {
			close(g.members[i].wake)
		}
	})
	g.live.Wait()
}
