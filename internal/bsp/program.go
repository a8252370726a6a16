// Package bsp defines the BSP / BSP* / CGM programming model used by
// both the in-memory reference runner and the external-memory
// simulation engines, together with the model cost accounting of
// Section 2 of Dehne–Dittrich–Hutchinson.
//
// A Program describes an algorithm for v virtual processors. Execution
// proceeds in compound supersteps (receive, compute, send): in each
// superstep every virtual processor receives the messages sent to it
// in the previous superstep, performs local computation, and sends
// messages that will be received in the next superstep. A virtual
// processor that votes to halt sleeps: it is not stepped again until a
// message arrives for it, and it may send in the superstep in which it
// votes. The program ends when every virtual processor sleeps and the
// last superstep sent nothing.
//
// Virtual processor state (the paper's context) must be serializable
// to 64-bit words: the EM engines keep contexts on simulated disk
// between supersteps and only materialize k = ⌊M/µ⌋ of them at a time.
// A Program declares µ (MaxContextWords) and γ (MaxCommWords) up
// front; the engines preallocate disk areas from these bounds exactly
// as the paper's simulation does, and enforce them at run time.
package bsp

import (
	"embsp/internal/prng"
	"embsp/internal/words"
)

// Message is a point-to-point message between virtual processors.
// Seq is the per-source send order; deliveries to a virtual processor
// are always sorted by (Src, Seq), so program results are independent
// of which engine (in-memory, sequential EM, parallel EM) ran them.
//
// A delivered Payload lives as long as the receiving VP's batch: an EM
// engine reassembles a batch's messages into memory of its own and
// reuses it for the next batch once the batch's contexts are saved (see
// VP).
type Message struct {
	Src     int
	Dst     int
	Seq     int
	Payload []uint64
}

// Program describes a BSP-like algorithm.
type Program interface {
	// NumVPs returns v, the number of virtual processors.
	NumVPs() int
	// MaxContextWords returns µ: an upper bound, in words, on the
	// marshaled context of any virtual processor at any superstep.
	MaxContextWords() int
	// MaxCommWords returns γ: an upper bound, in words, on the total
	// message payload sent by one virtual processor in one superstep,
	// and likewise on the total received. Payload accounting includes
	// one header word per message (destination bookkeeping), mirroring
	// the paper's "messages inherit the destination address".
	MaxCommWords() int
	// NewVP returns virtual processor id in its initial state: the
	// context its Save writes is VP id's before superstep 0. The object
	// may go on to serve other VPs (see VP), so id reaches the VP's Steps
	// through Env.ID, not through a field NewVP sets.
	NewVP(id int) VP
}

// VP is one virtual processor of a Program.
//
// An engine may Load any VP's context into any object NewVP returned,
// including one that has already been stepped as another VP: an EM
// engine keeps k objects per real processor and Loads every context
// into one of them, and the reference runner's ValidateContexts passes
// each context to the object another VP stepped last. So a VP's
// identity comes from Env.ID, and Load sets every field Step reads. A
// field Load does not set is scratch: its capacity may carry over from
// load to load, but no Step depends on its contents. Configuration
// NewVP sets for every id alike (a record width, the Program) is not
// identity and may stay.
//
// Lifetime rule: an EM engine simulates the VPs a batch at a time and
// hands them memory the real processor owns — the slices Load decodes
// with Uints, the Step's in and its payloads, the Env. All of it lives
// until the batch's contexts are saved, and is then reused for the next
// batch. A VP may keep these slices in its own state, since Save copies
// them out; it must not hand them to anything that outlives its batch
// (the Program, a global, another goroutine). The slices are
// capacity-limited, so an append reallocates rather than overwriting a
// neighbour's words. Nor is a slice an earlier Load decoded scratch:
// by the next Load its words may be another VP's. ValidateContexts
// decodes each superstep's contexts from one arena too, so a VP that
// writes such a slice changes another VP's state there as well.
type VP interface {
	// Step executes the computation phase of one compound superstep.
	// in holds the messages sent to this VP in the previous superstep
	// in canonical (Src, Seq) order; the VP may keep the payload slices
	// in its state, under the lifetime rule above. Returning halt=true
	// puts the VP to sleep: it is not stepped again until a message
	// arrives for it, and the messages it sent in this Step are
	// delivered. The run finishes when every VP sleeps and the last
	// superstep sent nothing.
	//
	// The sleep contract: an engine may still step a sleeper with an
	// empty in — an EM engine steps every VP of a batch it loads. Such a
	// Step must leave the context Save writes unchanged, send nothing,
	// charge nothing and return halt=true again; RunOptions'
	// ValidateContexts checks it.
	Step(env *Env, in []Message) (halt bool, err error)
	// Save marshals the VP's context. The encoding must be at most
	// MaxContextWords() words and must capture all state the VP needs
	// across supersteps.
	Save(enc *words.Encoder)
	// Load restores the VP's context from a previous Save, into an
	// object that may have held another VP: it sets every field Step
	// reads. The slices dec.Uints returns follow the lifetime rule above;
	// dec.UintsInto decodes into memory the VP passes, its own, which it
	// may reuse from Load to Load. Both read an array in whichever form
	// PutUints wrote it, half words or plain.
	Load(dec *words.Decoder)
}

// NewEnv constructs the Env for one VP's Step call. It is the hook
// through which execution engines (the in-memory runner and the EM
// simulation engines) provide the messaging fabric: emit is invoked
// once per Send with the payload copied into an allocation of its own —
// the one copy a message makes — which the emitter may keep.
func NewEnv(id, v, superstep int, seed uint64, emit func(dst int, payload []uint64)) *Env {
	return &Env{id: id, v: v, superstep: superstep, seed: seed, emit: emit}
}

// Reset readies e for another Step call, in e's own memory: an engine
// that keeps one Env per real processor calls it where it would call
// NewEnv. Unlike NewEnv's, e's Sends copy each payload into its send
// memory, where it stays, across Resets, until ClearSent.
func (e *Env) Reset(id, v, superstep int, seed uint64, emit func(dst int, payload []uint64)) {
	*e = Env{id: id, v: v, superstep: superstep, seed: seed, emit: emit, sent: e.sent, reused: true}
}

// ClearSent gives a reused Env's send memory back for later Sends: the
// payloads emitted so far are no longer valid.
func (e *Env) ClearSent() { e.sent = e.sent[:0] }

// SendTotals reports the traffic generated through this Env: total
// payload+header words sent, number of messages, and the accumulated
// computation charge. Engines use it for cost accounting and γ
// enforcement.
func (e *Env) SendTotals() (sendWords, msgs int, charge int64) {
	return e.sendWords, e.sends, e.charge
}

// Env gives a VP access to its execution environment during Step.
type Env struct {
	id        int
	v         int
	superstep int
	seed      uint64
	rng       prng.Rand
	seeded    bool // rng holds this Step's stream
	sendWords int
	sends     int
	charge    int64
	sent      []uint64 // a reused Env's send memory: the payloads sent since ClearSent, end to end
	reused    bool     // made by Reset: Send copies into sent, not into an allocation of its own
	emit      func(dst int, payload []uint64)
}

// ID returns the VP's id in [0, NumVPs).
func (e *Env) ID() int { return e.id }

// NumVPs returns v.
func (e *Env) NumVPs() int { return e.v }

// Superstep returns the zero-based index of the current superstep.
func (e *Env) Superstep() int { return e.superstep }

// Send sends payload to VP dst; it is received in the next superstep.
// The payload is copied, so the caller may reuse the slice. An empty
// payload still forms a message (one header word of traffic).
//
// Send makes the copy itself rather than leave it to emit, so that
// payload does not escape: a slice literal a VP sends stays on its
// stack.
func (e *Env) Send(dst int, payload []uint64) {
	if dst < 0 || dst >= e.v {
		panic("bsp: Send to VP out of range")
	}
	var p []uint64
	if e.reused {
		at := len(e.sent)
		e.sent = append(e.sent, payload...)
		p = e.sent[at:len(e.sent):len(e.sent)]
	} else {
		p = make([]uint64, len(payload))
		copy(p, payload)
	}
	e.sendWords += len(payload) + 1 // header word, per model accounting
	e.sends++
	e.emit(dst, p)
}

// Charge adds ops basic computation operations to the VP's cost for
// this superstep (the model's t_j). Engines add their own simulation
// overhead separately; Charge expresses the algorithm's own work.
func (e *Env) Charge(ops int64) {
	if ops > 0 {
		e.charge += ops
	}
}

// Rand returns a deterministic random stream keyed by (run seed, VP
// id, superstep). The stream is identical across all engines, so
// randomized programs still produce engine-independent results. It is
// the Env's, valid for this Step only.
func (e *Env) Rand() *prng.Rand {
	if !e.seeded {
		e.rng.Seed(prng.Derive(e.seed, uint64(e.id), uint64(e.superstep)))
		e.seeded = true
	}
	return &e.rng
}
