package fault

import "fmt"

// NetPlan is the network counterpart of Plan: a deterministic schedule
// of link deaths for the cluster transport. TCP delivers the bytes of a
// live connection in order and once, so the one network fault a run
// has to survive is a connection that dies; the plan says which
// direction of which connection dies, and at which frame.
type NetPlan struct {
	// Deaths permanently kills links: a dead link delivers nothing ever
	// again. It models a died NIC, cable or machine; only a *new*
	// connection (a higher epoch) escapes.
	Deaths []LinkDeath
}

// LinkDeath permanently silences one direction of one connection
// incarnation: every frame with sequence number >= AfterSeq written on
// (From → To) during connection epoch Epoch is discarded. Epochs count
// connection incarnations between the same endpoints (the first dial
// is epoch 0, a redial epoch 1, ...), so a death pinned to epoch 0
// models a machine whose replacement — same node id, fresh link —
// comes back healthy.
type LinkDeath struct {
	From, To int
	Epoch    int
	AfterSeq uint64
}

// Dead reports whether the (from → to) link at connection epoch epoch
// is permanently dead for frame seq.
func (p NetPlan) Dead(from, to, epoch int, seq uint64) bool {
	for _, d := range p.Deaths {
		if d.From == from && d.To == to && d.Epoch == epoch && seq >= d.AfterSeq {
			return true
		}
	}
	return false
}

// DeadLink reports whether any death is scheduled for the (from → to)
// link at epoch, regardless of sequence number. Keep-alive frames use
// it: their sequence counter is independent of the data stream, and a
// dying NIC does not keep answering pings while dropping data — the
// keep-alives are exactly what detects the death.
func (p NetPlan) DeadLink(from, to, epoch int) bool {
	for _, d := range p.Deaths {
		if d.From == from && d.To == to && d.Epoch == epoch {
			return true
		}
	}
	return false
}

// Validate reports whether the plan is usable.
func (p NetPlan) Validate() error {
	for i, d := range p.Deaths {
		if d.From < 0 || d.To < 0 {
			return fmt.Errorf("fault: Deaths[%d] direction (%d -> %d) has a negative node id", i, d.From, d.To)
		}
		if d.Epoch < 0 {
			return fmt.Errorf("fault: Deaths[%d] Epoch = %d, want >= 0", i, d.Epoch)
		}
	}
	return nil
}
