package disk

import (
	"encoding/binary"
	"unsafe"
)

// The slot codec moves words between track payloads ([]uint64) and
// their on-disk little-endian byte representation. On little-endian
// hosts an 8-byte-aligned byte slice can be reinterpreted as a word
// slice and moved with one copy; other hosts (or unaligned buffers,
// which Go's allocator never produces for slot-sized slices but mmap
// offsets could in principle) fall back to the portable per-word
// encoding. Both directions are drop-in equivalent: the bytes written
// and the words read are identical either way.

// hostLittleEndian reports whether the host's native word order
// matches the on-disk (little-endian) order.
var hostLittleEndian = func() bool {
	var probe uint16 = 1
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

// wordView reinterprets b as a []uint64 of n words without copying.
// ok is false when the reinterpretation would be incorrect (big-endian
// host) or unsafe (misaligned base, short buffer).
func wordView(b []byte, n int) (w []uint64, ok bool) {
	if !hostLittleEndian || n <= 0 || len(b) < 8*n {
		return nil, false
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), true
}

// getWords decodes len(dst) little-endian words from b into dst.
func getWords(dst []uint64, b []byte) {
	if w, ok := wordView(b, len(dst)); ok {
		copy(dst, w)
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// putWords encodes src as little-endian words into b.
func putWords(b []byte, src []uint64) {
	if w, ok := wordView(b, len(src)); ok {
		copy(w, src)
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
}

// The slot format, written once: track t of a drive file occupies the
// fixed-size slot [t·slotBytes, (t+1)·slotBytes) holding
//
//	word 0: track magic (marks the slot as written)
//	word 1: Checksum of the payload
//	words 2..B+1: the payload (B words)
//
// all little-endian. File and Mapped share it byte for byte, which is
// what lets a run killed on one store kind resume on the other.

const trackMagic = 0x454d425354524b31 // "EMBSTRK1"

// slotBytes is the slot size for B-word tracks.
func slotBytes(B int) int64 { return int64(2+B) * 8 }

// encodeSlot encodes a track payload into the slot b, which must be
// slotBytes(len(src)) long.
func encodeSlot(b []byte, src []uint64) {
	binary.LittleEndian.PutUint64(b[0:], trackMagic)
	binary.LittleEndian.PutUint64(b[8:], Checksum(src))
	putWords(b[16:], src)
}

// decodeSlot decodes the slot bytes b — possibly short, when the drive
// file ends inside or before the slot — into dst, and reports whether
// the slot holds a whole payload that matches its checksum (dst is
// unspecified when it does not). A store reads a slot only for a track
// its metadata lists as written, so a slot without the magic word is
// corrupt, as a torn one is: the zeros of a slot never written are no
// track's content.
func decodeSlot(b []byte, dst []uint64) bool {
	if int64(len(b)) < slotBytes(len(dst)) || binary.LittleEndian.Uint64(b[0:]) != trackMagic {
		return false
	}
	getWords(dst, b[16:])
	return Checksum(dst) == binary.LittleEndian.Uint64(b[8:])
}
