package bsp

import (
	"fmt"
	"slices"
	"sort"

	"embsp/internal/words"
)

// RunOptions configures a run of a Program.
type RunOptions struct {
	// Seed keys all Env.Rand streams. Runs with equal seeds produce
	// identical results on every engine.
	Seed uint64
	// MaxSupersteps aborts runaway programs; 0 means 1 << 20.
	MaxSupersteps int
	// PktSize is the BSP* packet size b used for packet accounting;
	// 0 means 64.
	PktSize int
	// ValidateContexts makes the runner marshal every VP's context
	// after every superstep, check it against MaxContextWords, and
	// restore it into the object the next VP (id+1 mod v) stepped:
	// the objects rotate, as an EM engine's slots do (see VP). The
	// slices the Loads decode are carved from one arena, as an EM
	// engine's are, stamped with contextCanary before each reuse. This
	// makes the in-memory runner exercise exactly the Save/Load path the
	// EM engines rely on, and a VP that keeps its identity, state its
	// Load does not restore, or a slice an earlier Load decoded, ends
	// with other results than a plain run. It also checks the sleep
	// contract an EM engine's skip relies on (see VP.Step): every
	// sleeper with no input is stepped too, and must leave its context
	// as it was, send nothing, charge nothing and vote halt again. It
	// costs some speed.
	ValidateContexts bool
}

func (o *RunOptions) defaults() {
	if o.MaxSupersteps == 0 {
		o.MaxSupersteps = 1 << 20
	}
	if o.PktSize == 0 {
		o.PktSize = 64
	}
}

// Result is the outcome of a program run.
type Result struct {
	// VPs holds the final virtual processor states, indexed by id.
	VPs []VP
	// Costs holds the measured model costs.
	Costs Costs
}

// CheckProgram validates a Program's static declarations.
func CheckProgram(p Program) error {
	if p.NumVPs() <= 0 {
		return fmt.Errorf("bsp: program has %d VPs, want > 0", p.NumVPs())
	}
	if p.MaxContextWords() <= 0 {
		return fmt.Errorf("bsp: MaxContextWords = %d, want > 0", p.MaxContextWords())
	}
	if p.MaxCommWords() < 0 {
		return fmt.Errorf("bsp: MaxCommWords = %d, want >= 0", p.MaxCommWords())
	}
	return nil
}

// SortMessages puts messages into canonical delivery order (Src, Seq).
func SortMessages(ms []Message) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Src != ms[j].Src {
			return ms[i].Src < ms[j].Src
		}
		return ms[i].Seq < ms[j].Seq
	})
}

// Run executes a Program entirely in memory. It is the reference
// semantics: the EM engines are required (and property-tested) to
// produce bitwise identical VP states and message traffic.
func Run(p Program, opts RunOptions) (*Result, error) {
	opts.defaults()
	if err := CheckProgram(p); err != nil {
		return nil, err
	}
	v := p.NumVPs()
	gamma := p.MaxCommWords()
	mu := p.MaxContextWords()

	vps := make([]VP, v)
	for i := range vps {
		vps[i] = p.NewVP(i)
	}
	inboxes := make([][]Message, v)
	asleep := make([]bool, v) // voted halt and received nothing since
	rec := NewCostRecorder(opts.PktSize)
	var (
		saved [][]uint64
		mem   []uint64 // the arena's words: the slices the last Loads decoded
		arena words.Arena
		dec   words.Decoder
	)
	if opts.ValidateContexts {
		saved = make([][]uint64, v)
	}

	for step := 0; ; step++ {
		if step >= opts.MaxSupersteps {
			return nil, fmt.Errorf("bsp: no convergence after %d supersteps", opts.MaxSupersteps)
		}
		next := make([][]Message, v)
		rec.BeginStep()
		sleepers, sends := 0, 0
		for id := 0; id < v; id++ {
			in := inboxes[id]
			if asleep[id] && len(in) == 0 {
				if opts.ValidateContexts {
					if err := checkSleeper(vps[id], id, v, step, opts.Seed, saved[id]); err != nil {
						return nil, err
					}
				}
				sleepers++
				continue
			}
			recvWords, recvPkts := 0, 0
			for _, m := range in {
				w := len(m.Payload) + 1
				recvWords += w
				recvPkts += rec.MsgPkts(w)
			}
			if recvWords > gamma {
				return nil, fmt.Errorf("bsp: VP %d received %d words in superstep %d, exceeding γ=%d", id, recvWords, step, gamma)
			}
			seq := 0
			sendPkts := 0
			env := NewEnv(id, v, step, opts.Seed, func(dst int, payload []uint64) {
				next[dst] = append(next[dst], Message{Src: id, Dst: dst, Seq: seq, Payload: payload})
				seq++
				sendPkts += rec.MsgPkts(len(payload) + 1)
			})
			halt, err := SafeStep(vps[id], env, in)
			if err != nil {
				return nil, fmt.Errorf("bsp: VP %d superstep %d: %w", id, step, err)
			}
			if env.sendWords > gamma {
				return nil, fmt.Errorf("bsp: VP %d sent %d words in superstep %d, exceeding γ=%d", id, env.sendWords, step, gamma)
			}
			asleep[id] = halt
			if halt {
				sleepers++
			}
			sends += env.sends
			rec.RecordVP(VPTraffic{
				SendWords: env.sendWords,
				RecvWords: recvWords,
				SendPkts:  sendPkts,
				RecvPkts:  recvPkts,
				Messages:  env.sends,
				Charge:    env.charge,
			})
			if opts.ValidateContexts {
				enc := words.NewEncoder(saved[id])
				vps[id].Save(enc)
				if enc.Len() > mu {
					return nil, fmt.Errorf("bsp: VP %d context is %d words after superstep %d, exceeding µ=%d", id, enc.Len(), step, mu)
				}
				saved[id] = enc.Words()
			}
		}
		if opts.ValidateContexts {
			// Every context is saved, so every object is free: VP id's
			// goes into the object VP id+1 stepped.
			vps = append(vps[1:], vps[0])
			mem = stampArena(mem, saved)
			arena.Reset(mem)
			for id, ctx := range saved {
				dec.Reset(ctx, &arena)
				vps[id].Load(&dec)
			}
		}
		rec.EndStep()
		if sleepers == v && sends == 0 {
			return &Result{VPs: vps, Costs: rec.Costs()}, nil
		}
		inboxes = next
	}
}

// checkSleeper steps VP id, asleep in superstep step with no input,
// the way an EM engine may step a sleeper its batch wakes with others,
// and returns an error unless the step kept the sleep contract: the
// context the VP saves is ctx word for word, and it sent nothing,
// charged nothing and voted halt again.
func checkSleeper(vp VP, id, v, step int, seed uint64, ctx []uint64) error {
	env := NewEnv(id, v, step, seed, func(int, []uint64) {})
	halt, err := SafeStep(vp, env, nil)
	if err != nil {
		return fmt.Errorf("bsp: VP %d superstep %d: %w", id, step, err)
	}
	var broke string
	enc := words.NewEncoder(nil)
	switch {
	case !halt:
		broke = "voted to go on"
	case env.sends > 0:
		broke = fmt.Sprintf("sent %d messages", env.sends)
	case env.charge > 0:
		broke = fmt.Sprintf("charged %d operations", env.charge)
	default:
		if err := SafeSave(vp, enc, id, step); err != nil {
			return err
		}
		if !slices.Equal(enc.Words(), ctx) {
			broke = "changed its context"
		}
	}
	if broke != "" {
		return fmt.Errorf("bsp: VP %d (%T) broke the sleep contract in superstep %d: stepped asleep with no input, it %s", id, vp, step, broke)
	}
	return nil
}

// contextCanary is the word ValidateContexts stamps over the slices the
// previous superstep's Loads decoded before it hands them out again.
const contextCanary = 0xDEADBEEFCAFEF00D

// stampArena returns the arena memory for loading the saved contexts:
// mem, or a larger replacement, with every word of both set to
// contextCanary. Every context is saved when it runs, so a VP that still
// reads a slice an earlier Load decoded reads the canary.
func stampArena(mem []uint64, saved [][]uint64) []uint64 {
	n := 0
	for _, ctx := range saved {
		n += len(ctx)
	}
	mem = mem[:cap(mem)]
	for i := range mem {
		mem[i] = contextCanary
	}
	if len(mem) < n {
		mem = make([]uint64, n)
		for i := range mem {
			mem[i] = contextCanary
		}
	}
	return mem
}
