package cgm_test

import (
	"errors"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"embsp"
	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/prng"
	"embsp/internal/words"
)

// sortHost is a minimal host program driving an embedded Sorter.
type sortHost struct {
	v    int
	w    int
	data []uint64
	ties bool
}

func (p *sortHost) NumVPs() int { return p.v }
func (p *sortHost) MaxContextWords() int {
	tags := 0 // the splitters' tag words under Ties
	if p.ties {
		tags = p.v + 1
	}
	return 2 + len(p.data) + (p.v+1)*p.w + tags + 64
}
func (p *sortHost) MaxCommWords() int {
	s := cgm.Sorter{W: p.w, Ties: p.ties}
	return s.CommWords(len(p.data)/p.w, p.v) + 16
}
func (p *sortHost) NewVP(id int) bsp.VP {
	lo, hi := cgm.Dist(len(p.data)/p.w, p.v, id)
	local := append([]uint64(nil), p.data[lo*p.w:hi*p.w]...)
	return &sortHostVP{s: cgm.Sorter{W: p.w, Data: local, Ties: p.ties}}
}

type sortHostVP struct {
	s cgm.Sorter
}

func (vp *sortHostVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	return vp.s.Step(env, in)
}
func (vp *sortHostVP) Save(enc *words.Encoder) { vp.s.Save(enc) }
func (vp *sortHostVP) Load(dec *words.Decoder) { vp.s.Load(dec) }

func runSortHost(t *testing.T, data []uint64, w, v int, seed uint64, validate bool) []bsp.VP {
	t.Helper()
	p := &sortHost{v: v, w: w, data: data}
	res, err := bsp.Run(p, bsp.RunOptions{Seed: seed, ValidateContexts: validate})
	if err != nil {
		t.Fatal(err)
	}
	return res.VPs
}

func TestSorterDirect(t *testing.T) {
	r := prng.New(1)
	for _, w := range []int{1, 2, 3} {
		for _, n := range []int{0, 1, 5, 64, 301} {
			for _, v := range []int{1, 2, 7, 16} {
				data := make([]uint64, n*w)
				for i := range data {
					data[i] = r.Uint64() % 64 // duplicates stress splitters
				}
				want := sortedRecords(data, w)
				for _, validate := range []bool{false, true} {
					var got []uint64
					for id, vp := range runSortHost(t, data, w, v, uint64(n*10+v), validate) {
						d := vp.(*sortHostVP).s.Data
						// A VP that receives no run keeps phase 2's nil;
						// a validated run decodes it as empty.
						if len(d) == 0 && (d == nil) == validate {
							t.Fatalf("w=%d n=%d v=%d validate=%v: VP %d Data nil = %v", w, n, v, validate, id, d == nil)
						}
						got = append(got, d...)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("w=%d n=%d v=%d validate=%v: got %v, want %v", w, n, v, validate, got, want)
					}
				}
			}
		}
	}
}

// sortedRecords returns a stably sorted copy of data's w-word records.
func sortedRecords(data []uint64, w int) []uint64 {
	idx := make([]int, len(data)/w)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return slices.Compare(data[idx[a]*w:idx[a]*w+w], data[idx[b]*w:idx[b]*w+w]) < 0
	})
	out := make([]uint64, 0, len(data))
	for _, i := range idx {
		out = append(out, data[i*w:i*w+w]...)
	}
	return out
}

// FuzzSorterTies sorts duplicate-heavy records with Ties set: random n,
// v and W, keys drawn from few values. The output must be sorted, the
// input's multiset, and balanced as PSRS promises for distinct records
// — at most 2·⌈n/v⌉ + v records a VP — since a record's place breaks
// every tie.
func FuzzSorterTies(f *testing.F) {
	f.Add(uint64(1), uint16(600), uint8(6), uint8(1), uint8(1))
	f.Add(uint64(2), uint16(301), uint8(16), uint8(3), uint8(2))
	f.Add(uint64(3), uint16(1000), uint8(64), uint8(2), uint8(7))
	f.Add(uint64(4), uint16(5), uint8(9), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, v, w, keys uint8) {
		N, V, W := int(n)%2048, 1+int(v)%64, 1+int(w)%3
		r := prng.New(seed)
		data := make([]uint64, N*W)
		for i := range data {
			data[i] = r.Uint64() % (1 + uint64(keys)%16)
		}
		p := &sortHost{v: V, w: W, data: data, ties: true}
		res, err := bsp.Run(p, bsp.RunOptions{Seed: seed, ValidateContexts: true})
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		limit := 2*cgm.MaxPart(N, V) + V
		for id, vp := range res.VPs {
			d := vp.(*sortHostVP).s.Data
			if len(d)/W > limit {
				t.Errorf("n=%d v=%d w=%d: VP %d holds %d records, above the PSRS bound %d", N, V, W, id, len(d)/W, limit)
			}
			got = append(got, d...)
		}
		if want := sortedRecords(data, W); !slices.Equal(got, want) {
			t.Fatalf("n=%d v=%d w=%d: the output is not the sorted input", N, V, W)
		}
	})
}

// reversingHost reverses every VP's sorted Data before phase 2, so the
// ranges phase 2 sends are runs out of order.
type reversingHost struct{ sortHost }

func (p *reversingHost) NewVP(id int) bsp.VP {
	return &reversingVP{*p.sortHost.NewVP(id).(*sortHostVP)}
}

type reversingVP struct{ sortHostVP }

func (vp *reversingVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	if env.Superstep() == 2 {
		slices.Reverse(vp.s.Data)
	}
	return vp.s.Step(env, in)
}

func TestSorterRejectsUnsortedRun(t *testing.T) {
	data := make([]uint64, 64)
	for i := range data {
		data[i] = uint64(i)
	}
	p := &reversingHost{sortHost{v: 4, w: 1, data: data}}
	check := func(engine string, err error) {
		t.Helper()
		var pe *bsp.ProgramError
		if !errors.As(err, &pe) || !strings.Contains(err.Error(), "unsorted run") {
			t.Fatalf("%s: got %v, want a *bsp.ProgramError naming an unsorted run", engine, err)
		}
		if pe.Superstep != 3 {
			t.Errorf("%s: error in superstep %d, want 3", engine, pe.Superstep)
		}
	}
	_, err := bsp.Run(p, bsp.RunOptions{Seed: 1})
	check("bsp.Run", err)
	cfg := embsp.MachineConfig{
		P: 1, M: 4 * p.MaxContextWords(), D: 2, B: 64, G: 100,
		Cost: embsp.CostParams{GUnit: 1, GPkt: 64, Pkt: 64, L: 10},
	}
	_, err = embsp.Run(p, cfg, embsp.Options{Seed: 1})
	check("embsp.Run", err)
}

func TestSorterSupersteps(t *testing.T) {
	p := &sortHost{v: 4, w: 1, data: []uint64{5, 2, 8, 1, 9, 3}}
	res, err := bsp.Run(p, bsp.RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Costs.Supersteps != cgm.SorterSupersteps {
		t.Errorf("λ = %d, want %d", res.Costs.Supersteps, cgm.SorterSupersteps)
	}
}

func TestSorterSaveSizeHolds(t *testing.T) {
	// SaveSize must bound the actual encoding for the stated record
	// budget.
	s := &cgm.Sorter{W: 3, Data: make([]uint64, 3*50)}
	enc := words.NewEncoder(nil)
	s.Save(enc)
	if enc.Len() > s.SaveSize(50, 8) {
		t.Errorf("Save wrote %d words, SaveSize(50,8) = %d", enc.Len(), s.SaveSize(50, 8))
	}
}

// scanHost drives an embedded Scan.
type scanHost struct {
	v    int
	vals []uint64
}

func (p *scanHost) NumVPs() int          { return p.v }
func (p *scanHost) MaxContextWords() int { return cgm.ScanSaveWords + 2 }
func (p *scanHost) MaxCommWords() int    { return 3*p.v + 8 }
func (p *scanHost) NewVP(id int) bsp.VP {
	return &scanHostVP{s: cgm.Scan{Value: p.vals[id]}}
}

type scanHostVP struct {
	s cgm.Scan
}

func (vp *scanHostVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	return vp.s.Step(env, in)
}
func (vp *scanHostVP) Save(enc *words.Encoder) { vp.s.Save(enc) }
func (vp *scanHostVP) Load(dec *words.Decoder) { vp.s.Load(dec) }

func TestScanDirect(t *testing.T) {
	f := func(seed uint64) bool {
		r := prng.New(seed)
		v := r.Intn(12) + 1
		vals := make([]uint64, v)
		for i := range vals {
			vals[i] = uint64(r.Intn(1000))
		}
		p := &scanHost{v: v, vals: vals}
		res, err := bsp.Run(p, bsp.RunOptions{Seed: seed, ValidateContexts: true})
		if err != nil {
			return false
		}
		if res.Costs.Supersteps != cgm.ScanSupersteps {
			return false
		}
		var run, total uint64
		for _, x := range vals {
			total += x
		}
		for i, vp := range res.VPs {
			sc := vp.(*scanHostVP).s
			if sc.Prefix != run || sc.Total != total {
				return false
			}
			run += vals[i]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
