// Package bsptest provides small deterministic BSP programs used to
// test the runners: the in-memory reference runner and the EM
// simulation engines must produce bitwise identical results on them.
package bsptest

import (
	"fmt"

	"embsp/internal/bsp"
	"embsp/internal/words"
)

// mix folds a value into a running checksum (order-sensitive).
func mix(sum, v uint64) uint64 {
	sum ^= v + 0x9e3779b97f4a7c15 + (sum << 6) + (sum >> 2)
	return sum * 0xff51afd7ed558ccd
}

// RingProgram circulates values around a directed ring for Rounds
// rounds. VP id starts holding the value id; each round it sends its
// value to (id+1) mod V and adopts the value received from its left
// neighbour, accumulating the sum of adopted values. The final
// accumulator of VP id is Σ_{r=1..Rounds} ((id - r) mod V), which
// tests can compute independently.
type RingProgram struct {
	V      int
	Rounds int
}

func (p *RingProgram) NumVPs() int          { return p.V }
func (p *RingProgram) MaxContextWords() int { return 4 }
func (p *RingProgram) MaxCommWords() int    { return 2 }

func (p *RingProgram) NewVP(id int) bsp.VP {
	return &ringVP{p: p, val: uint64(id)}
}

type ringVP struct {
	p   *RingProgram
	val uint64
	acc uint64
}

func (v *ringVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	if env.Superstep() > 0 {
		if len(in) != 1 {
			return false, fmt.Errorf("ring VP %d got %d messages, want 1", env.ID(), len(in))
		}
		v.val = in[0].Payload[0]
		v.acc += v.val
	}
	if env.Superstep() == v.p.Rounds {
		return true, nil
	}
	env.Send((env.ID()+1)%v.p.V, []uint64{v.val})
	env.Charge(1)
	return false, nil
}

func (v *ringVP) Save(enc *words.Encoder) {
	enc.PutUint(v.val)
	enc.PutUint(v.acc)
}

func (v *ringVP) Load(dec *words.Decoder) {
	v.val = dec.Uint()
	v.acc = dec.Uint()
}

// RingAcc returns the accumulator of VP id after a completed run.
func RingAcc(res *bsp.Result, id int) uint64 { return res.VPs[id].(*ringVP).acc }

// ExpectedRingAcc computes the expected accumulator analytically.
func ExpectedRingAcc(v, rounds, id int) uint64 {
	var acc uint64
	for r := 1; r <= rounds; r++ {
		acc += uint64(((id-r)%v + v) % v)
	}
	return acc
}

// RandomProgram is a randomized traffic generator: in each of Steps
// supersteps every VP sends MsgsPerStep messages of random length up
// to MaxLen words to random destinations, and folds everything it
// receives (source, sequence and payload) into an order-sensitive
// checksum. Because Env.Rand is keyed by (seed, vp, superstep), the
// traffic — and hence every checksum — is a pure function of the run
// seed, independent of the engine executing the program.
type RandomProgram struct {
	V           int
	Steps       int
	MsgsPerStep int
	MaxLen      int
}

func (p *RandomProgram) NumVPs() int          { return p.V }
func (p *RandomProgram) MaxContextWords() int { return 4 }

// MaxCommWords bounds the worst case: every VP in the system sends all
// its messages to one victim.
func (p *RandomProgram) MaxCommWords() int {
	return p.V * p.MsgsPerStep * (p.MaxLen + 1)
}

func (p *RandomProgram) NewVP(id int) bsp.VP { return &randomVP{p: p} }

type randomVP struct {
	p   *RandomProgram
	sum uint64
}

func (v *randomVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	for _, m := range in {
		v.sum = mix(v.sum, uint64(m.Src))
		v.sum = mix(v.sum, uint64(m.Seq))
		for _, w := range m.Payload {
			v.sum = mix(v.sum, w)
		}
	}
	if env.Superstep() == v.p.Steps {
		return true, nil
	}
	r := env.Rand()
	buf := make([]uint64, v.p.MaxLen)
	for i := 0; i < v.p.MsgsPerStep; i++ {
		dst := r.Intn(v.p.V)
		n := r.Intn(v.p.MaxLen + 1)
		for j := 0; j < n; j++ {
			buf[j] = r.Uint64()
		}
		env.Send(dst, buf[:n])
	}
	env.Charge(int64(v.p.MsgsPerStep))
	return false, nil
}

func (v *randomVP) Save(enc *words.Encoder) { enc.PutUint(v.sum) }
func (v *randomVP) Load(dec *words.Decoder) { v.sum = dec.Uint() }

// Checksums extracts all VP checksums from a completed RandomProgram
// run.
func Checksums(res *bsp.Result) []uint64 {
	out := make([]uint64, len(res.VPs))
	for i, vp := range res.VPs {
		out[i] = vp.(*randomVP).sum
	}
	return out
}

// StaticProgram is a ring of fan-out Fan whose virtual processors
// allocate nothing once made: a Step only reads its inbox and sends
// one-word messages from a field. An EM engine makes its VP objects
// once per slot (bsp.VP), so what a run allocates past its set-up is
// the engine's own, which is what allocation gates want to count. VP id
// starts at value id; each round it sends its value to the next Fan VPs
// of the ring and adds up what it received. Contexts claim CtxWords
// words but hold two.
type StaticProgram struct {
	V, Rounds, Fan, CtxWords int
}

func NewStaticProgram(v, rounds, fan, ctxWords int) *StaticProgram {
	return &StaticProgram{V: v, Rounds: rounds, Fan: fan, CtxWords: ctxWords}
}

func (p *StaticProgram) NumVPs() int          { return p.V }
func (p *StaticProgram) MaxContextWords() int { return p.CtxWords }
func (p *StaticProgram) MaxCommWords() int    { return 2 * p.Fan }

func (p *StaticProgram) NewVP(id int) bsp.VP {
	return &staticVP{p: p, val: [1]uint64{uint64(id)}}
}

type staticVP struct {
	p   *StaticProgram
	val [1]uint64
	acc uint64
}

func (v *staticVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	for _, m := range in {
		v.acc += m.Payload[0]
	}
	if env.Superstep() == v.p.Rounds {
		return true, nil
	}
	for f := 1; f <= v.p.Fan; f++ {
		env.Send((env.ID()+f)%v.p.V, v.val[:])
	}
	return false, nil
}

func (v *staticVP) Save(enc *words.Encoder) {
	enc.PutUint(v.val[0])
	enc.PutUint(v.acc)
}

func (v *staticVP) Load(dec *words.Decoder) {
	v.val[0] = dec.Uint()
	v.acc = dec.Uint()
}

// StaticAcc returns the accumulator of VP id after a completed run:
// Rounds times the sum of the values of the Fan VPs before it.
func StaticAcc(vp bsp.VP) uint64 { return vp.(*staticVP).acc }

// BreathingProgram is a ring whose contexts change size at every
// barrier, between nothing and the full Mu words: what a VP saves after
// superstep s (and initially, t = 0) is ContextLen(id, s+1) words —
// every VP at exactly Mu when t ≡ 0 (mod 4), every context empty when
// t ≡ 1, VP 0 at Mu and the rest empty when t ≡ 2, and a length drawn
// from (id, t) otherwise. A VP's whole state is those words — Load reads
// as many as the decoder holds — so an engine that hands Load one word
// too many or too few, or another VP's, ends with other contexts than
// the reference. Each superstep a VP folds its words and the one message
// it received into a checksum, refills its context from it at the next
// length, and sends the checksum on around the ring.
type BreathingProgram struct {
	V, Mu, Steps int
}

func (p *BreathingProgram) NumVPs() int          { return p.V }
func (p *BreathingProgram) MaxContextWords() int { return p.Mu }
func (p *BreathingProgram) MaxCommWords() int    { return 2 }

// ContextLen is the number of words VP id holds at barrier t.
func (p *BreathingProgram) ContextLen(id, t int) int {
	switch t % 4 {
	case 0:
		return p.Mu
	case 1:
		return 0
	case 2:
		if id == 0 {
			return p.Mu
		}
		return 0
	}
	return int(mix(uint64(id), uint64(t)) % uint64(p.Mu+1))
}

func (p *BreathingProgram) NewVP(id int) bsp.VP {
	vp := &breathingVP{p: p}
	vp.refill(id, uint64(id), 0)
	return vp
}

type breathingVP struct {
	p     *BreathingProgram
	words []uint64
}

// refill replaces VP id's context by ContextLen(id, t) words drawn from
// sum.
func (v *breathingVP) refill(id int, sum uint64, t int) {
	v.words = make([]uint64, v.p.ContextLen(id, t))
	for i := range v.words {
		v.words[i] = mix(sum, uint64(i))
	}
}

func (v *breathingVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	sum := uint64(len(v.words))
	for _, w := range v.words {
		sum = mix(sum, w)
	}
	for _, m := range in {
		sum = mix(sum, m.Payload[0])
	}
	v.refill(env.ID(), sum, env.Superstep()+1)
	if env.Superstep() == v.p.Steps {
		return true, nil
	}
	env.Send((env.ID()+1)%v.p.V, []uint64{sum})
	return false, nil
}

func (v *breathingVP) Save(enc *words.Encoder) {
	for _, w := range v.words {
		enc.PutUint(w)
	}
}

func (v *breathingVP) Load(dec *words.Decoder) {
	v.words = make([]uint64, dec.Remaining())
	for i := range v.words {
		v.words[i] = dec.Uint()
	}
}

// BreathingWords returns the context words VP vp of a BreathingProgram
// holds.
func BreathingWords(vp bsp.VP) []uint64 { return vp.(*breathingVP).words }

// HoldingProgram is StaticProgram's ring with state the engine hands
// over: a VP's context is a CtxWords-word record whose Load decodes its
// data with Uints, and its Step keeps the payloads it received in its
// state until Save writes them out. A Step allocates nothing, and an EM
// engine makes its VP objects once per slot, so what a superstep
// allocates is the engine's — including whatever it makes of the
// decoded data and the received payloads, which a test can find by
// varying CtxWords.
type HoldingProgram struct {
	V, Rounds, Fan, CtxWords int
}

func NewHoldingProgram(v, rounds, fan, ctxWords int) *HoldingProgram {
	return &HoldingProgram{V: v, Rounds: rounds, Fan: fan, CtxWords: ctxWords}
}

func (p *HoldingProgram) NumVPs() int          { return p.V }
func (p *HoldingProgram) MaxContextWords() int { return p.CtxWords }
func (p *HoldingProgram) MaxCommWords() int    { return 2 * p.Fan }

func (p *HoldingProgram) NewVP(id int) bsp.VP {
	// A context holds the accumulator, the data behind its length, the
	// kept count and Fan one-word payloads behind theirs.
	data := make([]uint64, p.CtxWords-3-2*p.Fan)
	for i := range data {
		data[i] = mix(uint64(id), uint64(i))
	}
	return &holdingVP{p: p, data: data, kept: make([][]uint64, 0, p.Fan)}
}

type holdingVP struct {
	p    *HoldingProgram
	acc  uint64
	data []uint64   // read only: NewVP's, or what Load decoded
	kept [][]uint64 // the payloads received this superstep
}

func (v *holdingVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	v.kept = v.kept[:0]
	for _, m := range in {
		v.acc += m.Payload[0]
		v.kept = append(v.kept, m.Payload)
	}
	if env.Superstep() == v.p.Rounds {
		return true, nil
	}
	for f := 1; f <= v.p.Fan; f++ {
		i := (v.acc + uint64(f)) % uint64(len(v.data))
		env.Send((env.ID()+f)%v.p.V, v.data[i:i+1])
	}
	return false, nil
}

func (v *holdingVP) Save(enc *words.Encoder) {
	enc.PutUint(v.acc)
	enc.PutUints(v.data)
	enc.PutUint(uint64(len(v.kept)))
	for _, k := range v.kept {
		enc.PutUints(k)
	}
}

func (v *holdingVP) Load(dec *words.Decoder) {
	v.acc = dec.Uint()
	v.data = dec.Uints()
	v.kept = v.kept[:dec.Uint()]
	for i := range v.kept {
		v.kept[i] = dec.Uints()
	}
}

// HoldingState returns the accumulator and the kept payloads' words of a
// HoldingProgram's VP.
func HoldingState(vp bsp.VP) (acc uint64, kept []uint64) {
	v := vp.(*holdingVP)
	for _, k := range v.kept {
		kept = append(kept, k...)
	}
	return v.acc, kept
}

// SleeperProgram puts every VP but VP 0 to sleep in superstep 0, while
// VP 0 stays awake for Rounds more supersteps; then it sleeps too and
// the run ends. With Bump set, a VP stepped with an empty inbox after
// superstep 0 adds one to a counter its context holds, which breaks
// bsp.VP's sleep contract: the reference runner steps no sleeper, so
// every counter ends at 0 there, but an EM engine steps every VP of a
// batch it loads, VP 0's batch mates included.
type SleeperProgram struct {
	V, Rounds int
	Bump      bool
}

func (p *SleeperProgram) NumVPs() int          { return p.V }
func (p *SleeperProgram) MaxContextWords() int { return 8 } // saves 1: room for small batches
func (p *SleeperProgram) MaxCommWords() int    { return 0 }
func (p *SleeperProgram) NewVP(int) bsp.VP     { return &sleeperVP{p: p} }

type sleeperVP struct {
	p       *SleeperProgram
	counter uint64
}

func (v *sleeperVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	if env.ID() == 0 {
		return env.Superstep() >= v.p.Rounds, nil
	}
	if v.p.Bump && env.Superstep() > 0 && len(in) == 0 {
		v.counter++
	}
	return true, nil
}

func (v *sleeperVP) Save(enc *words.Encoder) { enc.PutUint(v.counter) }
func (v *sleeperVP) Load(dec *words.Decoder) { v.counter = dec.Uint() }

// SleeperCounters returns every VP's counter from the final VPs of a
// SleeperProgram run.
func SleeperCounters(vps []bsp.VP) []uint64 {
	out := make([]uint64, len(vps))
	for i, vp := range vps {
		out[i] = vp.(*sleeperVP).counter
	}
	return out
}
