package words

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
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

// TestSizeUints: an array that does not fit in half words takes
// SizeUints words, and one that does takes fewer.
func TestSizeUints(t *testing.T) {
	wide := make([]uint64, 17)
	wide[16] = 1 << 40
	for _, tc := range []struct {
		s    []uint64
		want int
	}{{wide, SizeUints(17)}, {make([]uint64, 17), 1 + 9}} {
		e := NewEncoder(nil)
		e.PutUints(tc.s)
		if e.Len() != tc.want || e.Len() > SizeUints(17) {
			t.Errorf("encoded %d words, want %d (SizeUints says at most %d)", e.Len(), tc.want, SizeUints(17))
		}
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

// plainSlices encodes each slice in the plain form, a length word and
// then the values, in order.
func plainSlices(ss ...[]uint64) []uint64 {
	e := NewEncoder(nil)
	for _, s := range ss {
		e.PutUint(uint64(len(s)))
		e.PutWords(s)
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
	if arena.Asked() != 5 {
		t.Errorf("the arena was asked for %d words, want 5, the one it could not carve included", arena.Asked())
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
	if arena.off != 0 || arena.Asked() != 0 {
		t.Errorf("Arena.Reset leaves offset %d and %d words asked", arena.off, arena.Asked())
	}
	if s := d.Uints(); &s[0] != &mem[0] {
		t.Error("a reset arena does not hand out its memory from the start")
	}
}

func TestUintsViewAliasesTheBuffer(t *testing.T) {
	ws := plainSlices([]uint64{1, 2}, []uint64{3, 4, 5})
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

// decoders lists the two ways to decode an array: Uints, carved from an
// arena, and UintsInto a buffer of the caller's.
var decoders = []struct {
	name   string
	decode func(d *Decoder) []uint64
}{
	{"Uints", (*Decoder).Uints},
	{"UintsInto", func(d *Decoder) []uint64 { return d.UintsInto(nil) }},
}

func TestPackedRoundTrip(t *testing.T) {
	const none = ^uint64(0)
	for _, tc := range []struct {
		name  string
		s     []uint64
		words int // encoded size
	}{
		{"empty", []uint64{}, 1},
		{"one value", []uint64{5}, 2},
		{"even length", []uint64{0, 1, 2, 3}, 3},
		{"odd length", []uint64{7, 8, 9}, 3},
		{"none and negatives", []uint64{none, 3, uint64(1<<64 - 2), none, 1<<31 - 1}, 4},
		{"int32 extremes", []uint64{uint64(1<<64 - 1<<31), 1<<31 - 1}, 2},
		{"2^31 falls back", []uint64{1 << 31, 1, 2}, 4},
		{"2^40 falls back", []uint64{1, 1 << 40, 1, 1}, 5},
	} {
		ws := encodedSlices(tc.s, []uint64{42})
		if got := len(ws) - 2; got != tc.words {
			t.Errorf("%s: %d words, want %d", tc.name, got, tc.words)
		}
		if tc.words == len(tc.s)+1 && !reflect.DeepEqual(ws[:tc.words], plainSlices(tc.s)) {
			t.Errorf("%s: the fallback is not the plain form", tc.name)
		}
		if tc.words > SizeUints(len(tc.s)) {
			t.Errorf("%s: %d words, above SizeUints' %d", tc.name, tc.words, SizeUints(len(tc.s)))
		}
		for _, dc := range decoders {
			d := NewDecoder(ws)
			if got := dc.decode(d); !reflect.DeepEqual(got, tc.s) {
				t.Errorf("%s, %s: decoded %v, want %v", tc.name, dc.name, got, tc.s)
			}
			if got := dc.decode(d); !reflect.DeepEqual(got, []uint64{42}) || d.Remaining() != 0 {
				t.Errorf("%s, %s: the next array decoded as %v with %d words left", tc.name, dc.name, got, d.Remaining())
			}
		}
	}
}

// TestPlainFormReadBack: an array written in the plain form, whose
// values would all fit in half words, reads back through both decoders.
func TestPlainFormReadBack(t *testing.T) {
	s := []uint64{1, 2, ^uint64(0), 4, 5}
	ws := plainSlices(s, s)
	var arena Arena
	arena.Reset(make([]uint64, 5))
	var d Decoder
	d.Reset(ws, &arena)
	if a, b := d.Uints(), d.UintsInto(nil); !reflect.DeepEqual(a, s) || !reflect.DeepEqual(b, s) || d.Remaining() != 0 {
		t.Errorf("decoded %v and %v with %d words left, want %v twice", a, b, d.Remaining(), s)
	}
}

func TestPackedOddLengthPad(t *testing.T) {
	for n := 3; n <= 9; n += 2 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = ^uint64(i) // none, -2, -3, …: every high half set
		}
		ws := encodedSlices(s)
		if pad := ws[len(ws)-1] >> 32; pad != 0 {
			t.Errorf("n=%d: pad %#x, want 0", n, pad)
		}
		for _, dc := range decoders {
			if got := dc.decode(NewDecoder(ws)); !reflect.DeepEqual(got, s) {
				t.Errorf("n=%d, %s: decoded %v, want %v", n, dc.name, got, s)
			}
		}
	}
}

func TestPackedEmptyNotNil(t *testing.T) {
	ws := encodedSlices(nil, []uint64{}, nil)
	d := NewDecoder(ws)
	for i, buf := range [][]uint64{nil, make([]uint64, 0, 4), make([]uint64, 3)} {
		if s := d.UintsInto(buf); s == nil || len(s) != 0 {
			t.Errorf("array %d: %v (nil %v), want empty and non-nil", i, s, s == nil)
		}
	}
}

// TestPackedReusesBuffer: UintsInto decodes into the caller's buffer,
// and Uints into its arena, with no allocation once either has room.
func TestPackedReusesBuffer(t *testing.T) {
	big := make([]uint64, 101)
	for i := range big {
		big[i] = uint64(i) - 50
	}
	arrays := [][]uint64{big, big[:7], {1 << 40, 1, 2}, nil}
	ws := encodedSlices(arrays...)
	var d Decoder
	buf := make([]uint64, 0, 8)
	decode := func() {
		d.Reset(ws, nil)
		for range arrays {
			buf = d.UintsInto(buf)
		}
	}
	decode()
	if a := testing.AllocsPerRun(20, decode); a != 0 {
		t.Errorf("%v allocations a pass once the buffer has held the largest array, want 0", a)
	}
	d.Reset(ws, nil)
	first := d.UintsInto(buf)
	if !reflect.DeepEqual(first, big) || &first[0] != &buf[:1][0] {
		t.Error("the decode did not land in the caller's buffer")
	}

	var arena Arena
	mem := make([]uint64, 101+7+3)
	carve := func() {
		arena.Reset(mem)
		d.Reset(ws, &arena)
		for range arrays {
			d.Uints()
		}
	}
	if a := testing.AllocsPerRun(20, carve); a != 0 {
		t.Errorf("Uints: %v allocations a pass from an arena of the decoded words, want 0", a)
	}
}

func TestPackedDamagePanics(t *testing.T) {
	good := encodedSlices([]uint64{1, 2, 3})
	for _, tc := range []struct {
		name string
		ws   []uint64
	}{
		{"one bit of the mark", append([]uint64{good[0] ^ 1<<40}, good[1:]...)},
		{"the mark's top bit", append([]uint64{good[0] ^ 1<<63}, good[1:]...)},
		{"a length past the end", append([]uint64{packedMark | 5}, good[1:]...)},
		{"a packed single value", append([]uint64{packedMark | 1}, good[1:]...)},
		{"a packed empty array", []uint64{packedMark}},
		{"a nonzero pad", []uint64{good[0], good[1], good[2] | 1<<32}},
		{"a plain length past the end", []uint64{4, 1, 2}},
		{"a plain length of 2^63", []uint64{1 << 63, 1, 2}},
	} {
		for _, dc := range decoders {
			msg := decodePanic(tc.ws, dc.decode)
			if !strings.HasPrefix(msg, "words: corrupt") {
				t.Errorf("%s, %s: panic %q, want a corrupt-array panic", tc.name, dc.name, msg)
			}
		}
	}
	if msg := decodePanic(good, (*Decoder).UintsView); !strings.HasPrefix(msg, "words: corrupt") {
		t.Errorf("UintsView of a half-word array: panic %q, want a corrupt-array panic", msg)
	}
}

// decodePanic decodes one array from ws and returns what it panicked
// with, "" when it did not.
func decodePanic(ws []uint64, decode func(*Decoder) []uint64) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	decode(NewDecoder(ws))
	return ""
}

// FuzzPacked: any array round-trips through PutUints, and through Uints
// from an arena and UintsInto a reused buffer, in at most SizeUints
// words; the same array written in the plain form reads back the same.
// A damaged length word then either panics as a corrupt array does, or
// reads as a length, the same through both decoders: a damaged mark
// that does not swap the forms panics, and an array whose length alone
// is damaged decodes the original values up to the shorter of the two
// lengths, never values misread from another form.
func FuzzPacked(f *testing.F) {
	f.Add(byte(1), []byte("\x01\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"), uint64(0))
	f.Add(byte(3), []byte("0123456789abcdef01234567"), uint64(1<<63))
	f.Add(byte(0), []byte("0123456789abcdef"), uint64(1))
	f.Add(byte(1), []byte("0123456789abcdef01234567"), uint64(2))
	f.Add(byte(1), []byte("0123456789abcdef"), uint64(packedMark))
	f.Add(byte(5), []byte("0123456789abcdef01234567"), uint64(3))
	f.Fuzz(func(t *testing.T, mode byte, data []byte, mask uint64) {
		// mode's bit 0 makes every value fit in half a word, bit 1 then
		// spoils one, and bit 2 writes the array in the plain form.
		s := make([]uint64, len(data)/8)
		for i := range s {
			s[i] = binary.LittleEndian.Uint64(data[8*i:])
			if mode&1 != 0 {
				s[i] = unhalf(s[i])
			}
		}
		if mode&2 != 0 && len(s) > 0 {
			s[int(mode>>3)%len(s)] = 1 << 40
		}
		const sentinel = 0x5e47
		ws := encodedSlices(s, []uint64{sentinel})
		if mode&4 != 0 {
			ws = plainSlices(s, []uint64{sentinel})
		}
		if n := len(ws) - 2; n > SizeUints(len(s)) {
			t.Fatalf("%d values took %d words, above SizeUints' %d", len(s), n, SizeUints(len(s)))
		}
		var arena Arena
		arena.Reset(make([]uint64, int(mode)%(len(s)+2)))
		var d Decoder
		d.Reset(ws, &arena)
		if got := d.Uints(); got == nil || !slices.Equal(got, s) {
			t.Fatalf("Uints decoded %v, want %v", got, s)
		}
		d.Uints()
		d.Reset(ws, nil)
		buf := make([]uint64, int(mode)%5)
		got := d.UintsInto(buf)
		if got == nil || !slices.Equal(got, s) {
			t.Fatalf("UintsInto decoded %v, want %v", got, s)
		}
		if tail := d.UintsInto(got); !slices.Equal(tail, []uint64{sentinel}) || d.Remaining() != 0 {
			t.Fatalf("the next array decoded as %v with %d words left", tail, d.Remaining())
		}

		if mask == 0 {
			return
		}
		dam := slices.Clone(ws)
		dam[0] ^= mask
		msg := decodePanic(dam, (*Decoder).Uints)
		if msg2 := decodePanic(dam, decoders[1].decode); msg2 != msg {
			t.Fatalf("header %#x → %#x: Uints panicked %q and UintsInto %q", ws[0], dam[0], msg, msg2)
		}
		swapped := mask>>32 == packedMark>>32
		switch {
		case msg != "":
			if !strings.HasPrefix(msg, "words: corrupt") {
				t.Fatalf("header %#x → %#x: panic %q, want a corrupt-array panic", ws[0], dam[0], msg)
			}
		case mask>>32 != 0 && !swapped:
			t.Fatalf("header %#x → %#x: a damaged mark decoded", ws[0], dam[0])
		case !swapped:
			got2 := NewDecoder(dam).UintsInto(nil)
			if k := min(len(got2), len(s)); !slices.Equal(got2[:k], s[:k]) {
				t.Fatalf("header %#x → %#x: decoded %v, not a prefix-equal reading of %v", ws[0], dam[0], got2, s)
			}
		}
	})
}

// TestIntsIntoReusesBuffer: IntsInto decodes what Ints does, into the
// caller's buffer, with no allocation once it has held the longest slice.
func TestIntsIntoReusesBuffer(t *testing.T) {
	enc := NewEncoder(nil)
	slices := [][]int64{{-1, 2, 1 << 40}, {}, {7}}
	for _, s := range slices {
		enc.PutInts(s)
	}
	var d Decoder
	var buf []int64
	for i, s := range slices {
		if i == 0 {
			d.Reset(enc.Words(), nil)
		}
		if buf = d.IntsInto(buf); !reflect.DeepEqual(buf, s) && len(s)+len(buf) > 0 {
			t.Errorf("slice %d: IntsInto read %v, want %v", i, buf, s)
		}
	}
	decode := func() {
		d.Reset(enc.Words(), nil)
		for range slices {
			buf = d.IntsInto(buf)
		}
	}
	if a := testing.AllocsPerRun(20, decode); a != 0 {
		t.Errorf("%v allocations a pass once the buffer has held the longest slice, want 0", a)
	}
}
