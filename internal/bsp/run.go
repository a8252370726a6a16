package bsp

import (
	"fmt"
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
	// with other results than a plain run. It costs some speed.
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
		halts := 0
		for id := 0; id < v; id++ {
			in := inboxes[id]
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
			if halt {
				if env.sends > 0 {
					return nil, fmt.Errorf("bsp: VP %d sent %d messages while halting in superstep %d", id, env.sends, step)
				}
				halts++
			}
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
		if halts == v {
			return &Result{VPs: vps, Costs: rec.Costs()}, nil
		}
		if halts != 0 {
			return nil, fmt.Errorf("bsp: split halt vote in superstep %d: %d of %d VPs halted", step, halts, v)
		}
		inboxes = next
	}
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
