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
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
)

// The frame is the unit the transport retransmits:
//
//	[u32 length][u8 kind][u64 seq][payload: length words × u64][u64 checksum]
//
// length counts payload words. The checksum is FNV-1a over kind, seq,
// and the payload bytes; a frame that fails it is discarded (never
// ACKed), so the sender's retransmission recovers — corruption
// degrades to loss. All integers are little-endian.

const (
	frameData = 0x01
	frameAck  = 0x02
	// PING/PONG keep-alives handled at the frame layer (below the
	// ARQ): neither is retransmitted or ACKed, their sequence numbers
	// are an independent per-link counter, and they never surface to
	// Send/Recv. A link that stays silent past its heartbeat timeout
	// is declared lost.
	framePing = 0x03
	framePong = 0x04

	// maxFramePayload bounds a frame's payload length (in 8-byte
	// words) so a corrupt length prefix cannot provoke an absurd
	// allocation. 1<<26 words = 512 MiB, far above any legitimate
	// batch.
	maxFramePayload = 1 << 26

	frameHeaderBytes  = 4 + 1 + 8
	frameChecksumSize = 8
)

type frame struct {
	kind    byte
	seq     uint64
	payload []uint64
}

func frameChecksum(kind byte, seq uint64, payload []byte) uint64 {
	h := fnv.New64a()
	var hdr [9]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint64(hdr[1:], seq)
	h.Write(hdr[:])
	h.Write(payload)
	return h.Sum64()
}

// appendFrame serializes f into buf (reusing its capacity) and
// returns the framed bytes.
func appendFrame(buf []byte, f frame) []byte {
	n := frameHeaderBytes + 8*len(f.payload) + frameChecksumSize
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(f.payload)))
	buf[4] = f.kind
	binary.LittleEndian.PutUint64(buf[5:], f.seq)
	p := buf[frameHeaderBytes : frameHeaderBytes+8*len(f.payload)]
	for i, w := range f.payload {
		binary.LittleEndian.PutUint64(p[8*i:], w)
	}
	binary.LittleEndian.PutUint64(buf[n-frameChecksumSize:], frameChecksum(f.kind, f.seq, p))
	return buf
}

// errChecksum marks a frame whose checksum failed; the reader skips
// it (the bytes were consumed, the stream stays aligned).
var errChecksum = fmt.Errorf("cluster: frame checksum mismatch")

// readFrame reads one frame. A checksum failure returns errChecksum
// with the stream intact past the bad frame.
func readFrame(r *bufio.Reader) (frame, error) {
	var hdr [frameHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	f := frame{kind: hdr[4], seq: binary.LittleEndian.Uint64(hdr[5:])}
	if n > maxFramePayload {
		return frame{}, fmt.Errorf("cluster: frame advertises %d payload words (max %d)", n, maxFramePayload)
	}
	if f.kind != frameData && f.kind != frameAck && f.kind != framePing && f.kind != framePong {
		return frame{}, fmt.Errorf("cluster: unknown frame kind 0x%02x", f.kind)
	}
	body := make([]byte, 8*int(n)+frameChecksumSize)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, err
	}
	p := body[:8*int(n)]
	sum := binary.LittleEndian.Uint64(body[8*int(n):])
	if sum != frameChecksum(f.kind, f.seq, p) {
		return frame{}, errChecksum
	}
	f.payload = make([]uint64, n)
	for i := range f.payload {
		f.payload[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
	return f, nil
}
