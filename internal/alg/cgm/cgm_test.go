package cgm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"embsp/internal/bsp"
	"embsp/internal/prng"
)

func TestDistCoversAll(t *testing.T) {
	f := func(nRaw, vRaw uint16) bool {
		n := int(nRaw % 500)
		v := int(vRaw%16) + 1
		covered := 0
		prevHi := 0
		for id := 0; id < v; id++ {
			lo, hi := Dist(n, v, id)
			if lo != prevHi || hi < lo {
				return false
			}
			for i := lo; i < hi; i++ {
				if Owner(n, v, i) != id {
					return false
				}
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistBalance(t *testing.T) {
	n, v := 103, 10
	for id := 0; id < v; id++ {
		if lo, hi := Dist(n, v, id); hi-lo > MaxPart(n, v) {
			t.Errorf("VP %d owns %d > ⌈n/v⌉ = %d", id, hi-lo, MaxPart(n, v))
		}
	}
}

func TestEncodeFloatOrderPreserving(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -3.5, -1, -1e-300, 0, 1e-300, 0.5, 2, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		if EncodeFloat(vals[i-1]) >= EncodeFloat(vals[i]) {
			t.Errorf("order broken between %v and %v", vals[i-1], vals[i])
		}
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a < b {
			return EncodeFloat(a) < EncodeFloat(b)
		}
		if a > b {
			return EncodeFloat(a) > EncodeFloat(b)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeFloatRoundTrip(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) {
			return true
		}
		got := DecodeFloat(EncodeFloat(a))
		return got == a || (a == 0 && got == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortRecords(t *testing.T) {
	r := prng.New(6)
	for _, w := range []int{1, 2, 4} {
		n := 200
		data := make([]uint64, n*w)
		for i := range data {
			data[i] = uint64(r.Intn(8)) // duplicates stress ties
		}
		want := toPairs(data, w)
		SortRecords(data, w)
		if !RecordsSorted(data, w) {
			t.Fatalf("w=%d: not sorted", w)
		}
		got := toPairs(data, w)
		sort.Slice(want, func(i, j int) bool { return lessSlice(want[i], want[j]) })
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("w=%d: record %d differs", w, i)
				}
			}
		}
	}
}

// TestSortRecordsInPlaceProperty: sorting in place leaves exactly the
// words of a stable sort of a copy, whatever the width, the length and
// the share of equal records.
func TestSortRecordsInPlaceProperty(t *testing.T) {
	f := func(seed uint64, wRaw, nRaw, keysRaw uint8) bool {
		r := prng.New(seed)
		w, n, keys := 1+int(wRaw%5), int(nRaw), 1+int(keysRaw%16)
		data := make([]uint64, n*w)
		for i := range data {
			data[i] = uint64(r.Intn(keys))
		}
		recs := toPairs(data, w)
		sort.SliceStable(recs, func(i, j int) bool { return lessSlice(recs[i], recs[j]) })
		var want []uint64
		for _, rec := range recs {
			want = append(want, rec...)
		}
		SortRecords(data, w)
		return slices.Equal(data, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSortRecordsAdversarial: the inputs that break a quicksort leave
// exactly the words of a stable sort, at every width, through
// SortRecords and through introsort with its depth limit cut short, so
// the sort.Sort fallback runs on every input and not only on the killer.
func TestSortRecordsAdversarial(t *testing.T) {
	inputs := map[string]func(i, n int) uint64{
		"sorted":     func(i, n int) uint64 { return uint64(i) },
		"reversed":   func(i, n int) uint64 { return uint64(n - i) },
		"equal":      func(i, n int) uint64 { return 7 },
		"organ-pipe": func(i, n int) uint64 { return uint64(min(i, n-1-i)) },
		"sawtooth":   func(i, n int) uint64 { return uint64(i % 64) },
		"m3-killer":  medianOfThreeKiller,
	}
	for name, key := range inputs {
		for _, w := range []int{1, 2, 3, 5} {
			for _, n := range []int{0, 1, 11, 12, 13, 100, 1000, 20000} {
				// The key's 3-bit digits spread over the record's words,
				// so compares reach past the first word; equal keys are
				// equal records.
				data := make([]uint64, n*w)
				for i := 0; i < n; i++ {
					k := key(i, n)
					for j := 0; j < w; j++ {
						d := k >> (3 * uint(w-1-j))
						if j > 0 {
							d &= 7
						}
						data[i*w+j] = d
					}
				}
				recs := toPairs(data, w)
				sort.SliceStable(recs, func(i, j int) bool { return lessSlice(recs[i], recs[j]) })
				want := slices.Concat(recs...)
				for _, depth := range []int{-1, 0, 1, 3} {
					got := slices.Clone(data)
					if depth < 0 {
						SortRecords(got, w)
					} else {
						introsort(got, w, 0, n, depth)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s w=%d n=%d depth=%d: not the stable sort's words", name, w, n, depth)
					}
				}
			}
		}
	}
	// One-word keys that steer sortWords' digit: a long shared prefix,
	// a difference in the top bit alone, small integers, one bucket that
	// holds all but one key, and the two extreme words.
	words := map[string]func(r *prng.Rand, i, n int) uint64{
		"prefix-40":  func(r *prng.Rand, i, n int) uint64 { return 0xabcdef1234<<24 | r.Uint64()>>40 },
		"bit-63":     func(r *prng.Rand, i, n int) uint64 { return r.Uint64()&(1<<63) | 0x5555 },
		"below-1000": func(r *prng.Rand, i, n int) uint64 { return r.Uint64() % 1000 },
		"one-bucket": func(r *prng.Rand, i, n int) uint64 {
			if i == n/2 {
				return 1 << 63
			}
			return r.Uint64() >> 48
		},
		"zero-max": func(r *prng.Rand, i, n int) uint64 { return -(r.Uint64() & 1) },
	}
	for name, key := range words {
		for _, n := range []int{0, 1, 2, 17, 255, 256, 257, 4097} {
			r := prng.New(uint64(n))
			data := make([]uint64, n)
			for i := range data {
				data[i] = key(r, i, n)
			}
			want := slices.Clone(data)
			slices.Sort(want)
			SortRecords(data, 1)
			if !slices.Equal(data, want) {
				t.Fatalf("%s w=1 n=%d: not slices.Sort's words", name, n)
			}
		}
	}
}

// FuzzSortRecords: arbitrary words at widths 1 to 3 sort to exactly
// the words slices.SortFunc leaves under the lexicographic compare.
func FuzzSortRecords(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(0))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0}, 40), uint8(0))
	f.Add(bytes.Repeat([]byte{7, 3, 0, 0, 0, 0, 0, 0}, 60), uint8(1))
	f.Add(bytes.Repeat([]byte{0xff, 0, 1, 2, 3, 4, 5, 6, 7}, 50), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, wRaw uint8) {
		w := 1 + int(wRaw%3)
		n := len(raw) / 8 / w
		data := make([]uint64, n*w)
		for i := range data {
			data[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		recs := toPairs(data, w)
		slices.SortFunc(recs, slices.Compare[[]uint64])
		want := slices.Concat(recs...)
		SortRecords(data, w)
		if !slices.Equal(data, want) {
			t.Fatalf("w=%d n=%d: not slices.SortFunc's words", w, n)
		}
	})
}

// medianOfThreeKiller is Musser's sequence that drives a median-of-three
// quicksort to quadratic work: with k = n/2 the first half is 1, 1+k, 3,
// 3+k, … and the second 2, 4, …, 2k. SortRecords reaches its depth
// limit on it at n ≥ 100.
func medianOfThreeKiller(i, n int) uint64 {
	k := n / 2
	switch {
	case i >= 2*k:
		return uint64(n) // odd n: the last record
	case i >= k:
		return uint64(2 * (i - k + 1))
	case i%2 == 0:
		return uint64(i + 1)
	default:
		return uint64(k + i)
	}
}

// TestSorterMergeAllocs: phase 3 merges into the Sorter's scratch, so
// once a slot has merged a phase 3, another that receives no more words
// allocates nothing — through the heap at W = 2 and through sortWords at
// W = 1. At W = 1 a warm slot's phase 0, local sort and samples, and
// SortRecords itself allocate nothing either.
func TestSorterMergeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const v = 16
	for _, w := range []int{2, 1} {
		r := prng.New(3)
		runs := func(per int) []bsp.Message {
			in := make([]bsp.Message, v)
			for src := range in {
				run := make([]uint64, per*w)
				for i := range run {
					run[i] = r.Uint64() % 1000
				}
				SortRecords(run, w)
				in[src] = bsp.Message{Src: src, Payload: run}
			}
			return in
		}
		s := &Sorter{W: w}
		env := bsp.NewEnv(0, v, 3, 1, nil)
		phase3 := func(in []bsp.Message) {
			s.phase, s.Data = 3, nil
			if _, err := s.Step(env, in); err != nil {
				t.Fatal(err)
			}
		}
		phase3(runs(40))
		for _, per := range []int{40, 25, 0} {
			in := runs(per)
			if a := testing.AllocsPerRun(20, func() { phase3(in) }); a != 0 {
				t.Errorf("w=%d: phase 3 of %d records after one of %d: %v allocations, want 0", w, v*per, v*40, a)
			}
			if !RecordsSorted(s.Data, w) || len(s.Data) != v*per*w {
				t.Fatalf("w=%d: phase 3 of %d records left %d words, sorted %v", w, v*per, len(s.Data), RecordsSorted(s.Data, w))
			}
		}
	}

	r := prng.New(4)
	data := make([]uint64, 1024)
	for i := range data {
		data[i] = r.Uint64()
	}
	buf := make([]uint64, len(data))
	if a := testing.AllocsPerRun(20, func() { copy(buf, data); SortRecords(buf, 1) }); a != 0 {
		t.Errorf("SortRecords of %d one-word records: %v allocations, want 0", len(buf), a)
	}
	s := &Sorter{W: 1}
	var env bsp.Env // reused, so Send copies into memory it keeps
	phase0 := func() {
		env.Reset(0, v, 0, 1, func(int, []uint64) {})
		env.ClearSent()
		copy(buf, data)
		s.phase, s.Data = 0, buf
		if _, err := s.Step(&env, nil); err != nil {
			t.Fatal(err)
		}
	}
	phase0()
	if a := testing.AllocsPerRun(20, phase0); a != 0 {
		t.Errorf("phase 0 of %d one-word records on a warm slot: %v allocations, want 0", len(buf), a)
	}
	if !RecordsSorted(s.Data, 1) {
		t.Fatal("phase 0 left its records unsorted")
	}
}

func toPairs(data []uint64, w int) [][]uint64 {
	out := make([][]uint64, len(data)/w)
	for i := range out {
		out[i] = append([]uint64(nil), data[i*w:(i+1)*w]...)
	}
	return out
}

func lessSlice(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// BenchmarkSortWords times the distribution pass against slices.Sort
// on 256 distinct inputs of n random keys each, taken in turn, so
// neither sorts an input it sorted before: the crossover below which
// sortWords hands its input to slices.Sort (minDistribute).
func BenchmarkSortWords(b *testing.B) {
	r := prng.New(1)
	for _, n := range []int{24, 32, 40, 48, 56, 64, 128} {
		inputs := make([][]uint64, 256)
		for i := range inputs {
			inputs[i] = make([]uint64, n)
			for j := range inputs[i] {
				inputs[i][j] = r.Uint64()
			}
		}
		work := make([]uint64, n)
		for _, sorter := range []struct {
			name string
			sort func([]uint64)
		}{{"distribute", distributeWords}, {"slices", slices.Sort[[]uint64]}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, sorter.name), func(b *testing.B) {
				for i := range b.N {
					copy(work, inputs[i%len(inputs)])
					sorter.sort(work)
				}
			})
		}
	}
}
