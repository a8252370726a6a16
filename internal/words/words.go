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
// Encoding is positional and fixed-width: every Put* call appends a
// known number of words, and the matching Get on the Decoder must be
// issued in the same order. Mismatched decodes are programming errors
// and panic, like an out-of-bounds slice index.
package words

import "math"

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

// PutUints appends a length prefix followed by the slice elements
// (len(s)+1 words).
func (e *Encoder) PutUints(s []uint64) {
	e.buf = append(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// PutInts appends a length prefix followed by the slice elements.
func (e *Encoder) PutInts(s []int64) {
	e.buf = append(e.buf, uint64(len(s)))
	for _, v := range s {
		e.buf = append(e.buf, uint64(v))
	}
}

// Arena is memory a Decoder carves the slices Uints returns from, so
// that decoding allocates nothing while the arena lasts. Each slice is
// capacity-limited: an append to it reallocates instead of overwriting
// the next one. The slices stay the arena's words, so they are valid
// only until the arena's memory is handed out again.
type Arena struct {
	buf []uint64
	off int
}

// Reset makes buf the arena's memory, all of it free.
func (a *Arena) Reset(buf []uint64) { a.buf, a.off = buf, 0 }

// take carves n words, or returns nil when a is nil or has fewer left.
func (a *Arena) take(n int) []uint64 {
	if a == nil || n > len(a.buf)-a.off {
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

// Uints decodes a length-prefixed slice. The result is a copy, carved
// from the Decoder's arena when it has room and allocated otherwise;
// it is never nil, even when empty.
func (d *Decoder) Uints() []uint64 {
	n := int(d.next())
	if n < 0 || d.off+n > len(d.buf) {
		panic("words: corrupt slice length")
	}
	s := d.arena.take(n)
	if s == nil {
		s = make([]uint64, n)
	}
	copy(s, d.buf[d.off:d.off+n])
	d.off += n
	return s
}

// UintsView decodes a length-prefixed slice as Uints does, but returns
// a capacity-limited view of the decoder's buffer instead of a copy: it
// is valid as long as that buffer is, and an append to it reallocates.
func (d *Decoder) UintsView() []uint64 {
	n := int(d.next())
	if n < 0 || d.off+n > len(d.buf) {
		panic("words: corrupt slice length")
	}
	s := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return s
}

// Ints decodes a length-prefixed slice of signed integers.
func (d *Decoder) Ints() []int64 {
	n := int(d.next())
	if n < 0 || d.off+n > len(d.buf) {
		panic("words: corrupt slice length")
	}
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(d.buf[d.off+i])
	}
	d.off += n
	return s
}

// SizeUints returns the encoded size in words of a []uint64 of length n
// (length prefix plus elements). SizeInts and SizeFloats are identical.
func SizeUints(n int) int { return 1 + n }
