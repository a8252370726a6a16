// Quickstart: write a tiny CGM program against the embsp API and run
// it three ways — in memory (the reference semantics), on a simulated
// single-processor multi-disk external-memory machine, and on a
// 4-processor EM machine. All three produce identical results; the EM
// runs additionally report exact parallel-I/O counts.
//
// The program computes a distributed histogram: every virtual
// processor owns a slice of values, bins them locally, and routes the
// partial bins to their owners (one h-relation), which sum them.
package main

import (
	"fmt"
	"log"

	"embsp"
	"embsp/internal/words"
)

const (
	numVPs  = 16
	numBins = 64
	perVP   = 4096
)

// histProgram distributes values and bins them in two supersteps.
type histProgram struct {
	values [][]uint64 // per-VP input
}

func (p *histProgram) NumVPs() int          { return numVPs }
func (p *histProgram) MaxContextWords() int { return perVP + numBins + 8 }
func (p *histProgram) MaxCommWords() int    { return numVPs * (numBins + 2) }

// NewVP gives VP id's initial state. An engine may later Load any VP's
// context into the object it returns, so the VP keeps no id of its own
// (a Step that needs one asks env.ID()), and Load restores every field
// Step reads.
func (p *histProgram) NewVP(id int) embsp.VP {
	return &histVP{vals: append([]uint64(nil), p.values[id]...)}
}

type histVP struct {
	phase uint64
	vals  []uint64
	bins  []uint64 // owned slice of the global histogram
}

func (vp *histVP) Step(env *embsp.Env, in []embsp.Message) (bool, error) {
	switch vp.phase {
	case 0:
		// Local binning, then one h-relation: bin b is owned by VP
		// b / (numBins/numVPs).
		local := make([]uint64, numBins)
		for _, v := range vp.vals {
			local[v%numBins]++
		}
		// Send copies each payload, so slices of local can go out as
		// they are.
		per := numBins / numVPs
		for d := 0; d < numVPs; d++ {
			env.Send(d, local[d*per:(d+1)*per])
		}
		env.Charge(int64(len(vp.vals)))
		vp.vals = nil
		vp.phase = 1
		return false, nil
	default:
		// The payloads are the engine's memory for this VP's batch:
		// reading them, or keeping them in the VP until Save copies
		// them out, is fine; handing them to anything that outlives the
		// batch is not.
		per := numBins / numVPs
		vp.bins = make([]uint64, per)
		for _, m := range in {
			for i, c := range m.Payload {
				vp.bins[i] += c
			}
		}
		return true, nil
	}
}

func (vp *histVP) Save(enc *words.Encoder) {
	enc.PutUint(vp.phase)
	enc.PutUints(vp.vals)
	enc.PutUints(vp.bins)
}

// Load may keep the slices Uints returns: like the payloads, they live
// until this VP's batch is saved.
func (vp *histVP) Load(dec *words.Decoder) {
	vp.phase = dec.Uint()
	vp.vals = dec.Uints()
	vp.bins = dec.Uints()
}

func main() {
	// Synthetic input: a skewed value stream.
	prog := &histProgram{values: make([][]uint64, numVPs)}
	x := uint64(88172645463325252)
	for i := range prog.values {
		vals := make([]uint64, perVP)
		for j := range vals {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			vals[j] = x % (numBins * numBins) % numBins * (x % 3)
		}
		prog.values[i] = vals
	}

	// 1. Reference semantics, entirely in memory.
	ref, err := embsp.RunReference(prog, 1)
	if err != nil {
		log.Fatal(err)
	}

	// 2. External memory, one processor with four disks. Memory is
	// deliberately small: only a few virtual processors fit at a time.
	cfg := embsp.DefaultMachine()
	cfg.M = 4 * prog.MaxContextWords()
	cfg.B = 512
	cfg.Cost.Pkt = cfg.B // the model requires packet size b >= B
	em, err := embsp.Run(prog, cfg, embsp.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// 3. External memory, four processors with four disks each.
	cfg4 := cfg
	cfg4.P = 4
	em4, err := embsp.Run(prog, cfg4, embsp.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// All engines agree bin for bin.
	for id := 0; id < numVPs; id++ {
		a := ref.VPs[id].(*histVP).bins
		b := em.VPs[id].(*histVP).bins
		c := em4.VPs[id].(*histVP).bins
		for i := range a {
			if a[i] != b[i] || a[i] != c[i] {
				log.Fatalf("engines disagree on bin %d of VP %d", i, id)
			}
		}
	}

	var total uint64
	for _, vp := range ref.VPs {
		for _, c := range vp.(*histVP).bins {
			total += c
		}
	}
	fmt.Printf("histogram over %d values in %d supersteps — all three engines agree\n",
		numVPs*perVP, ref.Costs.Supersteps)
	fmt.Printf("sequential EM machine: k=%d VPs per group, %d groups, %d parallel I/O ops (util %.2f), T_IO=%.3g\n",
		em.EM.K, em.EM.Groups, em.EM.Run.Ops, em.EM.Run.Utilization(), em.EM.IOTime)
	fmt.Printf("4-processor EM machine: %d total ops, T_IO=%.3g, %d real packets (T_comm=%.3g)\n",
		em4.EM.Run.Ops, em4.EM.IOTime, em4.EM.CommPkts, em4.EM.CommTime)
	fmt.Printf("checksum: %d values binned\n", total)
}
