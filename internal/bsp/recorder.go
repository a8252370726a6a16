package bsp

// CostRecorder accumulates model costs superstep by superstep. It is
// shared by the in-memory runner and the EM engines so that all of
// them measure BSP/BSP* costs identically: for every superstep, each
// virtual processor reports its traffic once via RecordVP.
type CostRecorder struct {
	pkt   int
	steps []SuperstepCost
	cur   SuperstepCost
	open  bool
}

// NewCostRecorder returns a recorder using packet size pkt (the
// model's b) for BSP* packet counting.
func NewCostRecorder(pkt int) *CostRecorder {
	if pkt <= 0 {
		pkt = 1
	}
	return &CostRecorder{pkt: pkt}
}

// BeginStep starts accumulation for the next superstep.
func (c *CostRecorder) BeginStep() {
	if c.open {
		panic("bsp: BeginStep without EndStep")
	}
	c.cur = SuperstepCost{}
	c.open = true
}

// VPTraffic describes one virtual processor's activity in one
// superstep, as observed by an engine.
type VPTraffic struct {
	SendWords int // total payload+header words sent
	RecvWords int // total payload+header words received
	SendPkts  int // Σ ⌈message/b⌉ over sent messages
	RecvPkts  int // Σ ⌈message/b⌉ over received messages
	Messages  int // number of messages sent
	Charge    int64
}

// RecordVP folds one VP's superstep activity into the current step.
func (c *CostRecorder) RecordVP(t VPTraffic) {
	if !c.open {
		panic("bsp: RecordVP outside a step")
	}
	if t.SendWords > c.cur.MaxSendWords {
		c.cur.MaxSendWords = t.SendWords
	}
	if t.RecvWords > c.cur.MaxRecvWords {
		c.cur.MaxRecvWords = t.RecvWords
	}
	if t.SendPkts > c.cur.MaxSendPkts {
		c.cur.MaxSendPkts = t.SendPkts
	}
	if t.RecvPkts > c.cur.MaxRecvPkts {
		c.cur.MaxRecvPkts = t.RecvPkts
	}
	if t.Charge > c.cur.MaxCharge {
		c.cur.MaxCharge = t.Charge
	}
	c.cur.TotalWords += int64(t.SendWords)
	c.cur.Messages += int64(t.Messages)
	c.cur.TotalCharge += t.Charge
}

// EndStep closes the current superstep.
func (c *CostRecorder) EndStep() {
	if !c.open {
		panic("bsp: EndStep without BeginStep")
	}
	c.steps = append(c.steps, c.cur)
	c.open = false
}

// Mark returns the number of closed supersteps, for a later Rewind.
func (c *CostRecorder) Mark() int { return len(c.steps) }

// Rewind discards every superstep recorded after the given Mark and
// any open step. The EM engines use it to roll the cost accounting
// back to the last compound-superstep barrier when a fault aborts an
// attempt that is then replayed.
func (c *CostRecorder) Rewind(mark int) {
	if mark < 0 || mark > len(c.steps) {
		panic("bsp: Rewind past recorded steps")
	}
	c.steps = c.steps[:mark]
	c.cur = SuperstepCost{}
	c.open = false
}

// Steps returns the closed supersteps recorded so far: the recorder's
// own list, capacity-limited, valid until the next Rewind or Restore,
// and read-only. The EM engines serialize it into their commit journal
// so a resumed run reports the same per-superstep costs as an
// uninterrupted one.
func (c *CostRecorder) Steps() []SuperstepCost {
	return c.steps[:len(c.steps):len(c.steps)]
}

// Restore replaces the recorded supersteps with a list previously
// captured by Steps — the resume path's inverse. It panics if a step
// is open: restoring mid-step would silently drop its traffic.
func (c *CostRecorder) Restore(steps []SuperstepCost) {
	if c.open {
		panic("bsp: Restore with an open step")
	}
	c.steps = append(c.steps[:0], steps...)
	c.cur = SuperstepCost{}
}

// Costs returns the accumulated run costs.
func (c *CostRecorder) Costs() Costs {
	return Costs{Supersteps: len(c.steps), PerStep: append([]SuperstepCost(nil), c.steps...)}
}

// MsgPkts returns the BSP* packet count ⌈words/b⌉ of one message of
// the given payload+header size, with the model's minimum of one
// packet.
func (c *CostRecorder) MsgPkts(wordCount int) int { return pkts(wordCount, c.pkt) }
