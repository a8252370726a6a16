package cgmgraph_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"embsp/internal/alg/algtest"
	"embsp/internal/alg/cgmgraph"
	"embsp/internal/bsp"
	"embsp/internal/core"
	"embsp/internal/prng"
	"embsp/internal/words"
)

// olderProgram saves every VP's state at the barrier of superstep at
// rewritten by layout, as a commit with an older context layout would
// have saved it.
type olderProgram struct {
	bsp.Program
	at     int
	layout func(cur []uint64, enc *words.Encoder)
}

func (p olderProgram) NewVP(id int) bsp.VP { return &olderVP{VP: p.Program.NewVP(id), p: p, step: -1} }

// olderVP takes the superstep from the Env, as the objects rotate.
type olderVP struct {
	bsp.VP
	p    olderProgram
	step int
}

func (v *olderVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	v.step = env.Superstep()
	return v.VP.Step(env, in)
}

func (v *olderVP) Save(enc *words.Encoder) {
	var cur words.Encoder
	v.VP.Save(&cur)
	if v.step != v.p.at {
		enc.PutWords(cur.Words())
		return
	}
	v.p.layout(cur.Words(), enc)
}

// refusesOlderState stops a durable run of p at the barrier of superstep
// at, whose contexts layout rewrote, and resumes it with p: the resume
// must fail with a *bsp.ProgramError in load naming want, and leave
// every file of the state directory byte for byte as found.
func refusesOlderState(t *testing.T, p bsp.Program, at int, layout func([]uint64, *words.Encoder), want string) {
	t.Helper()
	cfg := algtest.Machines(p)[0]
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := core.Options{Seed: 7, StateDir: dir}
	opts.OnCommit = func(step int) {
		if step == at {
			cancel()
		}
	}
	if _, err := core.RunContext(ctx, olderProgram{p, at, layout}, cfg, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("stopped run returned %v, want context.Canceled", err)
	}
	before := dirBytes(t, dir)
	_, err := core.Run(p, cfg, core.Options{Seed: 7, StateDir: dir, Resume: true})
	var pe *bsp.ProgramError
	if !errors.As(err, &pe) || pe.Phase != "load" || !strings.Contains(pe.Error(), want) {
		t.Fatalf("resume returned %v, want a *bsp.ProgramError in load naming %q", err, want)
	}
	if !reflect.DeepEqual(before, dirBytes(t, dir)) {
		t.Error("the refused resume changed the directory")
	}
}

// putPlain writes a in the plain array form, a length word and then
// the values, as PutUints did before it wrote half words.
func putPlain(enc *words.Encoder, a []uint64) {
	enc.PutUint(uint64(len(a)))
	enc.PutWords(a)
}

// plainArrays copies n arrays from dec to enc in the plain form.
func plainArrays(dec *words.Decoder, enc *words.Encoder, n int) {
	for range n {
		putPlain(enc, dec.Uints())
	}
}

// rankerFormat3 rewrites the Ranker state dec is at in the layout of
// rankerFormat 0x524b4c4d03: the current one with every array plain.
func rankerFormat3(dec *words.Decoder, enc *words.Encoder) {
	dec.Uint() // the format word
	enc.PutUint(0x524b4c4d03)
	phase := dec.Uint()
	enc.PutUint(phase)
	enc.PutUint(dec.Uint()) // rounds
	enc.PutUint(dec.Uint()) // expansion steps
	succ := dec.Uints()
	putPlain(enc, succ)
	plainArrays(dec, enc, 1) // Weight
	if phase == 0 {
		return
	}
	for range 2 * ((len(succ) + 63) / 64) { // the state and known flags
		enc.PutUint(dec.Uint())
	}
	plainArrays(dec, enc, 2) // pred or Rank, the subscription pairs
}

// eulerParentLayout rewrites an Euler state in the layout before the
// format word: phase, the started flag, the nine arrays and a format 3
// Ranker, every array plain.
func eulerParentLayout(w []uint64, enc *words.Encoder) {
	dec := words.NewDecoder(w[1:]) // past the format word
	enc.PutUint(dec.Uint())        // phase
	enc.PutUint(dec.Uint())        // started
	plainArrays(dec, enc, 9)
	rankerFormat3(dec, enc)
	if dec.Remaining() != 0 {
		panic("eulerParentLayout: words left over")
	}
}

// ccParentLayout rewrites a CC state in the layout before the format
// word: phase, three flags, rounds and the seven arrays, every one plain.
func ccParentLayout(w []uint64, enc *words.Encoder) {
	dec := words.NewDecoder(w[1:]) // past the format word
	for range 5 {
		enc.PutUint(dec.Uint())
	}
	plainArrays(dec, enc, 7)
	if dec.Remaining() != 0 {
		panic("ccParentLayout: words left over")
	}
}

// TestEulerRefusesOlderState: an Euler tour stopped in its first ranking
// with its contexts in the layout before the format word, every array a
// word a value, is refused at resume with a typed load error naming the
// format, and its directory is left as found.
func TestEulerRefusesOlderState(t *testing.T) {
	const n = 600
	p, err := cgmgraph.NewEulerTour(n, randomTree(prng.New(41), n), 8)
	if err != nil {
		t.Fatal(err)
	}
	refusesOlderState(t, p, 4, eulerParentLayout, "euler state format") // a splice round of the first ranking
}

// TestCCRefusesOlderState: the same for connected components, stopped
// in the first Borůvka round's pointer jumping.
func TestCCRefusesOlderState(t *testing.T) {
	const n = 600
	p, err := cgmgraph.NewCC(n, randGraph(prng.New(43), n, 2*n), 8)
	if err != nil {
		t.Fatal(err)
	}
	refusesOlderState(t, p, 4, ccParentLayout, "cc state format")
}

// TestRankerPackedFallback: a weight of 2⁴⁰ does not fit in half a word,
// so after the set-up the VP that owns it saves its Weight array in the
// plain form while every other VP packs its own, and the ranks, many of
// which hold the weight too, still equal the sequential reference on
// the reference runner and every EM machine.
func TestRankerPackedFallback(t *testing.T) {
	const n, v, heavy = 1 << 10, 4, 300 // node 300 is VP 1's
	succ := randomChains(prng.New(47), n, 2)
	w := make([]uint64, n)
	for i := range w {
		w[i] = 1
	}
	w[heavy] = 1 << 40
	lr, err := cgmgraph.NewListRank(succ, w, v)
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]bool, v) // whether VP id saved its weights plain after the set-up
	p := &probe{ListRank: lr, save: func(id, step int, _ bsp.VP, ctx []uint64) {
		if step == 0 {
			dec := words.NewDecoder(ctx[4:]) // past the format word, phase, rounds and expansion steps
			dec.UintsInto(nil)               // Succ
			plain[id] = ctx[4+dec.Offset()]>>32 == 0
		}
	}}
	output := func(vps []bsp.VP) []uint64 {
		inner := make([]bsp.VP, len(vps))
		for i, vp := range vps {
			inner[i] = vp.(*probeVP).VP
		}
		return lr.Output(inner)
	}
	res := algtest.RunAll(t, p, 53, output)
	if want := []bool{false, true, false, false}; !reflect.DeepEqual(plain, want) {
		t.Errorf("weights saved plain by VP: %v, want %v", plain, want)
	}
	if !reflect.DeepEqual(output(res.VPs), seqRank(succ, w)) {
		t.Fatal("ranks differ from the sequential reference")
	}
}
