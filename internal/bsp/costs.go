package bsp

// CostParams holds the BSP*-level machine parameters used to turn
// measured superstep traffic into model time (Section 2.2 of the
// paper). Field comments give the paper's symbol.
type CostParams struct {
	GUnit float64 // ĝ: time to route one word (plain BSP accounting)
	GPkt  float64 // g: time to route one packet of size Pkt (BSP*)
	Pkt   int     // b: packet size in words
	L     float64 // L: barrier synchronization time
}

// DefaultCostParams returns a plausible parameter set used by examples
// and benchmarks when the caller does not care: b = 64 words, g = 64
// (one word per time unit once blocked), ĝ = 4, L = 1000.
func DefaultCostParams() CostParams {
	return CostParams{GUnit: 4, GPkt: 64, Pkt: 64, L: 1000}
}

// SuperstepCost records the traffic and computation of one superstep,
// maximized/summed over virtual processors as the model prescribes.
type SuperstepCost struct {
	// MaxSendWords / MaxRecvWords are the largest per-VP totals of
	// message words sent / received (including one header word per
	// message).
	MaxSendWords int
	MaxRecvWords int
	// MaxSendPkts / MaxRecvPkts are the largest per-VP totals of
	// ⌈message/b⌉ packets, for BSP* accounting.
	MaxSendPkts int
	MaxRecvPkts int
	// TotalWords is the total traffic of the superstep over all VPs
	// (send side).
	TotalWords int64
	// Messages is the number of messages sent in the superstep.
	Messages int64
	// MaxCharge / TotalCharge are per-VP max and total computation
	// charges (the model's w_comp).
	MaxCharge   int64
	TotalCharge int64
}

// HWords returns the superstep's h-relation size in words: the larger
// of the max per-VP send and receive totals.
func (s SuperstepCost) HWords() int {
	if s.MaxSendWords > s.MaxRecvWords {
		return s.MaxSendWords
	}
	return s.MaxRecvWords
}

// Costs aggregates the model cost of a whole run.
type Costs struct {
	Supersteps int // λ
	PerStep    []SuperstepCost
}

// TotalWords returns the total communication volume in words.
func (c Costs) TotalWords() int64 {
	var t int64
	for _, s := range c.PerStep {
		t += s.TotalWords
	}
	return t
}

// TotalCharge returns the total computation charge over all VPs and
// supersteps.
func (c Costs) TotalCharge() int64 {
	var t int64
	for _, s := range c.PerStep {
		t += s.TotalCharge
	}
	return t
}

// CommTimeBSPStar evaluates T_comm under BSP* accounting:
// Σ_i max(L, g·(send packets + receive packets)).
func (c Costs) CommTimeBSPStar(p CostParams) float64 {
	var t float64
	for _, s := range c.PerStep {
		w := p.GPkt * float64(s.MaxSendPkts+s.MaxRecvPkts)
		if w < p.L {
			w = p.L
		}
		t += w
	}
	return t
}

// pkts returns ⌈w/b⌉ with the model's convention that a message
// shorter than b still costs one packet.
func pkts(w, b int) int {
	if w <= 0 {
		return 1
	}
	return (w + b - 1) / b
}
