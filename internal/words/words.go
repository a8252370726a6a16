// Package words provides a fixed-width (64-bit word) record codec.
//
// The external-memory machine model of Dehne, Dittrich and Hutchinson
// counts data in fixed-size records: a disk track stores exactly B
// records, a parallel I/O operation moves up to D·B records, and the
// context of a virtual processor occupies at most µ records. This
// package fixes the record to a 64-bit word (uint64) and provides an
// Encoder/Decoder pair used to marshal virtual-processor contexts and
// message payloads into word slices.
//
// Encoding is positional: every Put* call appends a known number of
// words, except PutUints, which appends at most SizeUints of them, and
// the matching Get on the Decoder must be issued in the same order.
// Mismatched decodes are programming errors and panic, like an
// out-of-bounds slice index.
package words

import (
	"math"
	"slices"
)

// Encoder appends values to a word buffer. The zero value is ready to
// use and grows as needed; NewEncoder can wrap a preallocated buffer to
// avoid allocation in hot paths.
type Encoder struct {
	buf []uint64
}

// NewEncoder returns an Encoder that appends to buf (length 0 slices
// of suitable capacity avoid reallocation).
func NewEncoder(buf []uint64) *Encoder {
	return &Encoder{buf: buf[:0]}
}

// Words returns the encoded words. The slice aliases the Encoder's
// internal buffer and is invalidated by further Put calls.
func (e *Encoder) Words() []uint64 { return e.buf }

// Len returns the number of words encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards all encoded words, retaining the buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Grow makes room for n more words. A buffer with less room is
// replaced by one of exactly the length needed, so a caller that knows
// its message's size encodes it with one allocation and no doubling.
func (e *Encoder) Grow(n int) {
	if cap(e.buf)-len(e.buf) < n {
		e.buf = append(make([]uint64, 0, len(e.buf)+n), e.buf...)
	}
}

// PutUint appends one word.
func (e *Encoder) PutUint(u uint64) { e.buf = append(e.buf, u) }

// PutInt appends a signed integer as one word (two's complement).
func (e *Encoder) PutInt(i int64) { e.buf = append(e.buf, uint64(i)) }

// PutFloat appends a float64 as one word (IEEE-754 bits).
func (e *Encoder) PutFloat(f float64) { e.buf = append(e.buf, math.Float64bits(f)) }

// PutBool appends a boolean as one word (0 or 1).
func (e *Encoder) PutBool(b bool) {
	var u uint64
	if b {
		u = 1
	}
	e.buf = append(e.buf, u)
}

// PutWords appends the slice elements as they are, with no length
// prefix: words the reader knows how to delimit.
func (e *Encoder) PutWords(s []uint64) { e.buf = append(e.buf, s...) }

// PutUints appends s as an array Uints and UintsInto read. When s
// holds two or more values and every one fits in half a word,
// sign-extended, the length word carries packedMark and two values
// share each word, the first in the low half; an odd last value's high
// half is zero. Otherwise the length word is len(s) and the values
// follow as they are. Either way it takes at most SizeUints(len(s))
// words.
func (e *Encoder) PutUints(s []uint64) {
	n := len(s)
	if n < 2 || n > half || !allHalf(s) {
		e.buf = append(e.buf, uint64(n))
		e.buf = append(e.buf, s...)
		return
	}
	e.buf = slices.Grow(e.buf, 1+(n+1)/2)
	e.buf = append(e.buf, packedMark|uint64(n))
	for i := 1; i < n; i += 2 {
		e.buf = append(e.buf, s[i-1]&half|s[i]<<32)
	}
	if n%2 == 1 {
		e.buf = append(e.buf, s[n-1]&half)
	}
}

// PutInts appends a length prefix followed by the slice elements.
func (e *Encoder) PutInts(s []int64) {
	e.buf = append(e.buf, uint64(len(s)))
	for _, v := range s {
		e.buf = append(e.buf, uint64(v))
	}
}

// packedMark is the high half of the length word of an array in the
// half-word form; the low half is the length. A plain array's length
// word has a zero high half, so a damaged mark reads as neither form
// and panics instead of being read as the other one.
const packedMark = 0x5041434b << 32

// half masks a word's low 32 bits.
const half = 1<<32 - 1

// allHalf reports whether every value of s is a 32-bit value
// sign-extended to 64 bits: a node id below 2³¹, ^0 (a "none" marker),
// or a small signed weight.
func allHalf(s []uint64) bool {
	for _, u := range s {
		if uint64(int64(int32(u))) != u {
			return false
		}
	}
	return true
}

// unhalf sign-extends the low 32 bits of w.
func unhalf(w uint64) uint64 { return uint64(int64(int32(uint32(w)))) }

// Arena is memory a Decoder carves the slices Uints returns from, so
// that decoding allocates nothing while the arena lasts. Each slice is
// capacity-limited: an append to it reallocates instead of overwriting
// the next one. The slices stay the arena's words, so they are valid
// only until the arena's memory is handed out again.
type Arena struct {
	buf   []uint64
	off   int
	asked int
}

// Reset makes buf the arena's memory, all of it free.
func (a *Arena) Reset(buf []uint64) { a.buf, a.off, a.asked = buf, 0, 0 }

// Asked returns the words asked of the arena since its Reset, carved or
// not: the memory the decodes would have needed.
func (a *Arena) Asked() int { return a.asked }

// take carves n words, or returns nil when a is nil or has fewer left.
func (a *Arena) take(n int) []uint64 {
	if a == nil {
		return nil
	}
	a.asked += n
	if n > len(a.buf)-a.off {
		return nil
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// Decoder reads values from a word buffer in the order they were
// encoded.
type Decoder struct {
	buf   []uint64
	off   int
	arena *Arena
}

// NewDecoder returns a Decoder reading from buf.
func NewDecoder(buf []uint64) *Decoder { return &Decoder{buf: buf} }

// Reset makes d read buf from its start, carving the slices Uints
// returns from arena while it lasts (nil: every slice is a new
// allocation, as with NewDecoder).
func (d *Decoder) Reset(buf []uint64, arena *Arena) { d.buf, d.off, d.arena = buf, 0, arena }

// Remaining returns the number of words not yet consumed.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Offset returns the number of words consumed so far.
func (d *Decoder) Offset() int { return d.off }

func (d *Decoder) next() uint64 {
	if d.off >= len(d.buf) {
		panic("words: decode past end of buffer")
	}
	u := d.buf[d.off]
	d.off++
	return u
}

// Uint decodes one word.
func (d *Decoder) Uint() uint64 { return d.next() }

// Int decodes one word as a signed integer.
func (d *Decoder) Int() int64 { return int64(d.next()) }

// Float decodes one word as a float64.
func (d *Decoder) Float() float64 { return math.Float64frombits(d.next()) }

// Bool decodes one word as a boolean.
func (d *Decoder) Bool() bool { return d.next() != 0 }

// Uints decodes an array PutUints wrote, in either form. The result
// is a copy, carved from the Decoder's arena when it has room and
// allocated otherwise; it is never nil, even when empty.
func (d *Decoder) Uints() []uint64 {
	src, n := d.array()
	s := d.arena.take(n)
	if s == nil {
		s = make([]uint64, n)
	}
	return unpack(s, src)
}

// UintsInto decodes an array PutUints wrote, in either form, into buf's
// memory, which grows when it is too small, and returns it: a caller
// that passes back what the last call returned decodes without
// allocating once its buffer has held the largest array. The result is
// never nil, even when empty.
func (d *Decoder) UintsInto(buf []uint64) []uint64 {
	src, n := d.array()
	return unpack(fit(buf, n), src)
}

// UintsView decodes a length word and that many words after it, the
// plain form, and returns a capacity-limited view of the decoder's
// buffer instead of a copy: it is valid as long as that buffer is, and
// an append to it reallocates. An array in the half-word form panics.
func (d *Decoder) UintsView() []uint64 {
	n := d.count(d.next())
	s := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return s
}

// count checks a plain length word against the words left and returns
// it as a length.
func (d *Decoder) count(h uint64) int {
	if h > uint64(d.Remaining()) {
		panic("words: corrupt slice length")
	}
	return int(h)
}

// array consumes an array in either form and returns its encoded words
// and its length. A length word whose high half is neither zero nor
// packedMark, a length the buffer does not hold, a half-word form of
// fewer than two values or a nonzero pad panics.
func (d *Decoder) array() (src []uint64, n int) {
	h := d.next()
	n, nw := int(h&half), int(h&half)
	if h>>32 != 0 {
		if h&^half != packedMark || n < 2 {
			panic("words: corrupt slice length")
		}
		nw = (n + 1) / 2
	}
	src = d.buf[d.off : d.off+d.count(uint64(nw))]
	if nw < n && n%2 == 1 && src[nw-1]>>32 != 0 {
		panic("words: corrupt packed pad")
	}
	d.off += nw
	return src, n
}

// unpack fills s, of an array's length, from its encoded words src, a
// copy when they are as many and two values a word otherwise, and
// returns it.
func unpack(s, src []uint64) []uint64 {
	if len(s) == len(src) {
		copy(s, src)
		return s
	}
	for i, w := range src[:len(s)/2] {
		s[2*i], s[2*i+1] = unhalf(w), unhalf(w>>32)
	}
	if len(s)%2 == 1 {
		s[len(s)-1] = unhalf(src[len(src)-1])
	}
	return s
}

// fit returns buf cut to n words, grown when it holds fewer; never nil.
func fit(buf []uint64, n int) []uint64 {
	if buf = slices.Grow(buf[:0], n)[:n]; buf == nil {
		return []uint64{}
	}
	return buf
}

// Ints decodes a length-prefixed slice of signed integers.
func (d *Decoder) Ints() []int64 {
	n := d.count(d.next())
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(d.buf[d.off+i])
	}
	d.off += n
	return s
}

// IntsInto decodes a slice Ints reads into buf's memory, which grows
// when it is too small, and returns it: a caller that passes back what
// the last call returned decodes without allocating once its buffer has
// held the longest slice.
func (d *Decoder) IntsInto(buf []int64) []int64 {
	n := d.count(d.next())
	s := slices.Grow(buf[:0], n)[:n]
	for i := range s {
		s[i] = int64(d.buf[d.off+i])
	}
	d.off += n
	return s
}

// SizeUints returns the encoded size in words of a []uint64 of length n
// (length prefix plus elements), the most PutUints appends for it.
func SizeUints(n int) int { return 1 + n }
