// Package cluster runs the step machine across real processes: p
// workers, each owning one core.NodeEngine over its own state
// directory, driven in lockstep by a coordinator over TCP. All
// exchange is relayed through the coordinator (a star), packets
// travel in size-b blocks exactly as the in-process engine moves
// them, and every compound-superstep barrier is a two-phase commit
// over the per-node journals — so a cluster run's Result and EMStats
// are bitwise identical to core.Run on the same machine configuration,
// which remains the reference oracle. See DESIGN.md §14.
package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// The frame is the unit a link writes and reads:
//
//	[u32 length][u8 kind][u64 seq][payload: length words × u64][u64 checksum]
//
// length counts payload words. The checksum is FNV-1a over kind, seq,
// and the payload bytes; a frame that fails it ends the link, and the
// rejoin handshake recovers. All integers are little-endian.

const (
	frameData = 0x01
	// 0x02, once an ACK, is unassigned: a frame of that kind is refused.

	// PING/PONG keep-alives are handled by the link itself: their
	// sequence numbers are an independent per-link counter, and they
	// never surface to Send/Recv. A link that stays silent past its
	// heartbeat timeout is declared lost.
	framePing = 0x03
	framePong = 0x04

	// maxFramePayload bounds a frame's payload length (in 8-byte
	// words) so a corrupt length prefix cannot provoke an absurd
	// allocation. 1<<26 words = 512 MiB, far above any legitimate
	// batch.
	maxFramePayload = 1 << 26

	frameHeaderBytes  = 4 + 1 + 8
	frameChecksumSize = 8

	// frameChunkWords is the size of the fixed chunk each end of a link
	// streams frames through: a frame of up to about this many payload
	// words goes out in one write.
	frameChunkWords = 4096
	frameChunkBytes = 8 * frameChunkWords

	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

type frame struct {
	kind    byte
	seq     uint64
	payload []uint64
}

// fnvWord folds the eight little-endian bytes of w into the FNV-1a hash h.
func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (w & 0xff)) * fnvPrime64
		w >>= 8
	}
	return h
}

// frameHash starts a frame's checksum: FNV-1a over its kind and seq.
func frameHash(kind byte, seq uint64) uint64 {
	return fnvWord((fnvOffset64^uint64(kind))*fnvPrime64, seq)
}

// streamFrame writes one frame to w through chunk — the header, the
// payload, then the checksum, hashed as they go — and returns the bytes
// written. Only chunk is written to; nothing is allocated.
func streamFrame(w io.Writer, chunk []byte, kind byte, seq uint64, payload []uint64) (int, error) {
	h := frameHash(kind, seq)
	buf := binary.LittleEndian.AppendUint32(chunk[:0], uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint64(append(buf, kind), seq)
	n := 0
	for i := 0; i <= len(payload); i++ {
		if len(buf)+8 > len(chunk) {
			if _, err := w.Write(buf); err != nil {
				return n, err
			}
			n, buf = n+len(buf), chunk[:0]
		}
		word := h // the checksum, after the last payload word
		if i < len(payload) {
			word = payload[i]
			h = fnvWord(h, word)
		}
		buf = binary.LittleEndian.AppendUint64(buf, word)
	}
	_, err := w.Write(buf)
	return n + len(buf), err
}

// errChecksum marks a frame whose checksum failed; the link it
// arrived on ends.
var errChecksum = fmt.Errorf("cluster: frame checksum mismatch")

// readFrame reads one frame through chunk, decoding its payload straight
// into buf's memory, which grows when it is too small. A checksum
// failure returns errChecksum with the whole frame consumed.
func readFrame(r io.Reader, chunk []byte, buf []uint64) (frame, error) {
	hdr := chunk[:frameHeaderBytes]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	f := frame{kind: hdr[4], seq: binary.LittleEndian.Uint64(hdr[5:])}
	if n > maxFramePayload {
		return frame{}, fmt.Errorf("cluster: frame advertises %d payload words (max %d)", n, maxFramePayload)
	}
	if f.kind != frameData && f.kind != framePing && f.kind != framePong {
		return frame{}, fmt.Errorf("cluster: unknown frame kind 0x%02x", f.kind)
	}
	f.payload = slices.Grow(buf[:0], int(n))[:n]
	h, sum := frameHash(f.kind, f.seq), uint64(0)
	for i := 0; i <= len(f.payload); {
		b := chunk[:8*min(len(chunk)/8, len(f.payload)+1-i)]
		if _, err := io.ReadFull(r, b); err != nil {
			return frame{}, err
		}
		for ; len(b) > 0; i, b = i+1, b[8:] {
			w := binary.LittleEndian.Uint64(b)
			if i == len(f.payload) {
				sum = w
				continue
			}
			f.payload[i] = w
			h = fnvWord(h, w)
		}
	}
	if sum != h {
		return frame{}, errChecksum
	}
	return f, nil
}
