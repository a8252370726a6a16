package words

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder(nil)
	e.PutUint(42)
	e.PutInt(-7)
	e.PutFloat(3.25)
	e.PutBool(true)
	e.PutBool(false)
	d := NewDecoder(e.Words())
	if got := d.Uint(); got != 42 {
		t.Errorf("Uint = %d, want 42", got)
	}
	if got := d.Int(); got != -7 {
		t.Errorf("Int = %d, want -7", got)
	}
	if got := d.Float(); got != 3.25 {
		t.Errorf("Float = %v, want 3.25", got)
	}
	if !d.Bool() {
		t.Error("first Bool = false, want true")
	}
	if d.Bool() {
		t.Error("second Bool = true, want false")
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", d.Remaining())
	}
}

func TestSliceRoundTrip(t *testing.T) {
	e := NewEncoder(nil)
	us := []uint64{1, 2, 3}
	is := []int64{-1, 0, 9}
	e.PutUints(us)
	e.PutInts(is)
	e.PutUints(nil)
	d := NewDecoder(e.Words())
	if got := d.Uints(); !reflect.DeepEqual(got, us) {
		t.Errorf("Uints = %v, want %v", got, us)
	}
	if got := d.Ints(); !reflect.DeepEqual(got, is) {
		t.Errorf("Ints = %v, want %v", got, is)
	}
	if got := d.Uints(); len(got) != 0 {
		t.Errorf("empty Uints = %v, want empty", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(a uint64, b int64, c float64, flag bool, s []uint64, is []int64) bool {
		if math.IsNaN(c) {
			c = 0 // NaN != NaN; bits still round-trip but == comparison fails
		}
		e := NewEncoder(nil)
		e.PutUint(a)
		e.PutInt(b)
		e.PutFloat(c)
		e.PutBool(flag)
		e.PutUints(s)
		e.PutInts(is)
		d := NewDecoder(e.Words())
		if d.Uint() != a || d.Int() != b || d.Float() != c || d.Bool() != flag {
			return false
		}
		gs := d.Uints()
		gi := d.Ints()
		if len(gs) != len(s) || len(gi) != len(is) {
			return false
		}
		for i := range s {
			if gs[i] != s[i] {
				return false
			}
		}
		for i := range is {
			if gi[i] != is[i] {
				return false
			}
		}
		return d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(make([]uint64, 0, 8))
	e.PutUint(1)
	e.PutUint(2)
	if e.Len() != 2 {
		t.Fatalf("Len = %d, want 2", e.Len())
	}
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", e.Len())
	}
	e.PutUint(9)
	if got := e.Words()[0]; got != 9 {
		t.Errorf("Words[0] = %d, want 9", got)
	}
}

func TestDecodePastEndPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("decoding past end did not panic")
		}
	}()
	d := NewDecoder([]uint64{1})
	d.Uint()
	d.Uint()
}

func TestCorruptSliceLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("corrupt slice length did not panic")
		}
	}()
	d := NewDecoder([]uint64{100, 1, 2}) // claims 100 elements, has 2
	d.Uints()
}

func TestSizeUints(t *testing.T) {
	e := NewEncoder(nil)
	e.PutUints(make([]uint64, 17))
	if e.Len() != SizeUints(17) {
		t.Errorf("encoded %d words, SizeUints says %d", e.Len(), SizeUints(17))
	}
}

// encodedSlices encodes each slice with PutUints, in order.
func encodedSlices(ss ...[]uint64) []uint64 {
	e := NewEncoder(nil)
	for _, s := range ss {
		e.PutUints(s)
	}
	return e.Words()
}

func TestArenaEmptyUintsNotNil(t *testing.T) {
	ws := encodedSlices(nil, []uint64{7}, nil)
	for _, tc := range []struct {
		name  string
		arena *Arena
	}{
		{"no arena", nil},
		{"an arena with room", &Arena{buf: make([]uint64, 4)}},
		{"an exhausted arena", &Arena{buf: make([]uint64, 1), off: 1}},
		{"an arena without memory", &Arena{}},
	} {
		var d Decoder
		d.Reset(ws, tc.arena)
		for i := 0; i < 3; i++ {
			if s := d.Uints(); s == nil {
				t.Errorf("%s: slice %d is nil", tc.name, i)
			}
		}
	}
}

func TestArenaAppendLeavesNeighbour(t *testing.T) {
	arena := &Arena{buf: make([]uint64, 6)}
	var d Decoder
	d.Reset(encodedSlices([]uint64{1, 2}, []uint64{3, 4, 5}), arena)
	a, b := d.Uints(), d.Uints()
	if &a[0] != &arena.buf[0] || &b[0] != &arena.buf[2] {
		t.Fatal("the slices are not carved from the arena end to end")
	}
	if cap(a) != len(a) || cap(b) != len(b) {
		t.Fatalf("capacities %d and %d, want the lengths %d and %d", cap(a), cap(b), len(a), len(b))
	}
	a = append(a, 99)
	if !reflect.DeepEqual(a, []uint64{1, 2, 99}) || !reflect.DeepEqual(b, []uint64{3, 4, 5}) {
		t.Errorf("after an append to the first slice: %v and %v", a, b)
	}
}

func TestArenaExhaustedFallsBackToHeap(t *testing.T) {
	arena := &Arena{buf: make([]uint64, 3)}
	var d Decoder
	d.Reset(encodedSlices([]uint64{1, 2}, []uint64{3, 4}, []uint64{5}), arena)
	a, b, c := d.Uints(), d.Uints(), d.Uints()
	if &a[0] != &arena.buf[0] {
		t.Error("the first slice is not the arena's")
	}
	if &b[0] == &arena.buf[2] {
		t.Error("the second slice overruns the arena")
	}
	if &c[0] != &arena.buf[2] {
		t.Error("the third slice, which fits, is not the arena's")
	}
	if !reflect.DeepEqual([][]uint64{a, b, c}, [][]uint64{{1, 2}, {3, 4}, {5}}) {
		t.Errorf("decoded %v, %v, %v", a, b, c)
	}
}

func TestResetClearsOffsets(t *testing.T) {
	mem := make([]uint64, 2)
	var arena Arena
	arena.Reset(mem)
	var d Decoder
	ws := encodedSlices([]uint64{1, 2})
	d.Reset(ws, &arena)
	d.Uints()
	if d.Remaining() != 0 || arena.off != 2 {
		t.Fatalf("after one slice: %d words left to decode, arena offset %d", d.Remaining(), arena.off)
	}
	d.Reset(ws, &arena)
	if d.Offset() != 0 {
		t.Errorf("Decoder.Reset leaves offset %d", d.Offset())
	}
	arena.Reset(mem)
	if arena.off != 0 {
		t.Errorf("Arena.Reset leaves offset %d", arena.off)
	}
	if s := d.Uints(); &s[0] != &mem[0] {
		t.Error("a reset arena does not hand out its memory from the start")
	}
}

func TestUintsViewAliasesTheBuffer(t *testing.T) {
	ws := encodedSlices([]uint64{1, 2}, []uint64{3, 4, 5})
	d := NewDecoder(ws)
	a, b := d.UintsView(), d.UintsView()
	if &a[0] != &ws[1] || &b[0] != &ws[4] {
		t.Fatal("the views are not the decoder's words")
	}
	if cap(a) != len(a) || cap(b) != len(b) {
		t.Fatalf("capacities %d and %d, want the lengths %d and %d", cap(a), cap(b), len(a), len(b))
	}
	a = append(a, 99)
	if !reflect.DeepEqual(a, []uint64{1, 2, 99}) || !reflect.DeepEqual(b, []uint64{3, 4, 5}) || ws[3] != 3 {
		t.Errorf("after an append to the first view: %v, %v and buffer %v", a, b, ws)
	}
}

func TestGrowIsExactFit(t *testing.T) {
	e := NewEncoder(nil)
	e.PutUint(1)
	e.Grow(10)
	if got := cap(e.Words()); got != 11 {
		t.Fatalf("after Grow(10) behind one word: capacity %d, want 11", got)
	}
	before := &e.Words()[0]
	for i := 0; i < 10; i++ {
		e.PutUint(uint64(i))
	}
	e.Grow(0)
	if &e.Words()[0] != before || e.Len() != 11 || e.Words()[0] != 1 {
		t.Error("filling the room Grow made reallocated, or lost a word")
	}
}
