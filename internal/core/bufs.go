package core

import (
	"embsp/internal/bsp"
	"embsp/internal/disk"
	"embsp/internal/words"
)

// stepBufs is the internal memory one real processor owns for the
// superstep loop. The accountant says how many words may be live at
// once; these slices are those words, allocated once and overwritten
// by every batch and superstep (DESIGN.md §19). A buffer grows
// exact-fit when a request exceeds it, so each allocation replaces an
// identical one the loop would otherwise have made at that point; ctx,
// whose batches grow a record at a time, and vpMem, which follows a
// batch's contexts, double instead, up to their bounds (ctxSpan,
// fitUpTo). The scatter slab stays exact-fit: doubling it was measured
// to allocate more bytes a run, not fewer (DESIGN.md §19).
//
// Lifetime rule: a slice cut from one of these buffers is valid until
// the same phase next runs on this processor. Phases are separated by
// barriers (in process) or by the coordinator's lockstep (cluster), so
// whoever receives such a slice has consumed it by then.
type stepBufs struct {
	ctx      []uint64 // contexts of the current VPs: the largest batch held so far, at most k·⌈(µ+1)/B⌉·B words (ctxSpan), the held batch's records in front across a barrier
	region   []uint64 // message blocks read for the current batch
	slab     []uint64 // the block images the batch sends other processors
	op       []uint64 // one parallel operation, D·B words: the block writer's pending blocks
	tailImgs []uint64 // the stream packer's open tails, ⌈(µ+1)/B⌉ blocks

	// The batch's VPs: what they are handed lives until the batch's
	// contexts are saved (bsp.VP's lifetime rule), and these hold it.
	// vps, vpMem and msgMem are not charged to the accountant: they are
	// the k VP objects and decoded copies of words it already charges
	// (the loaded contexts, the input blocks), which the heap held before.
	// env's send memory holds the payload words the batch grabs as its
	// outgoing messages, and grows by append, as they are known only once
	// they are sent.
	vps       []bsp.VP        // the VP slots: slot i holds the batch's i-th VP, Loaded from ctx into the object NewVP made for the slot's first VP
	vpMem     []uint64        // the slices their Loads decode, carved by arena: the words the batch loaded and vpExtra more (loadBatch)
	vpExtra   int             // the most words a batch's Loads have decoded beyond the words it loaded: its arrays saved in half words
	arena     words.Arena     // vpMem, as the decoder carves it
	dec       words.Decoder   // the context being loaded
	env       bsp.Env         // the environment of the VP stepping; its send memory holds the batch's payloads until the sink has packed them
	msgMem    []uint64        // the batch's reassembled streams, which the received payloads alias: at most its input blocks' words
	msgList   []bsp.Message   // the batch's received messages, per VP in delivery order
	inMsgs    [][]bsp.Message // each VP's messages, a capacity-limited run of msgList
	counts    []int           // messages per VP, counted before they are placed
	segs      []segment       // the input blocks' segments, in stream order
	runs      []run           // the streams' runs of one sending batch's records, placed in source order
	tails     []tail          // the stream packer's per-cell state
	tailSlots []int           // the cell of each open tail
	lastTails []wireBlock     // the last round's tails that may share blocks: own closed ones in the packer's slots, the rest where they were delivered
	first     []int           // shareTails: the tail whose block each tail joins
	room      []int           // shareTails: the words left in each block it opens

	enc     words.Encoder  // the context being saved
	msgs    []outMsg       // the batch's generated messages, which the sink sorts by cell
	metas   []blockMeta    // the fetched blocks' directory entries
	at      []int          // the fetch's per-drive cursors, 2·D entries
	pending []pendingBlock // the block writer's pending blocks, D entries
	load    []int          // the block writer's blocks per batch and drive
	place   []int          // the block writer's matching scratch, 7·D entries
	reads   []disk.ReadReq
	writes  []disk.WriteReq
	hint    []disk.Addr // the group pipeline's prefetch list (prefetchBatch)

	// The rows this processor owns of the block exchange.
	recv []BlockBatch // the writing phase's input, per source
	out  BatchOut     // computing phase output
}

// bufCanary, when non-zero, is stamped over every word buffer fit hands
// out. Tests set it (TestMain) so that a result which still aliases a
// buffer past its lifetime, or relies on a fresh buffer being zero,
// shows the canary instead of passing by luck.
var bufCanary uint64

// grow returns *s cut to n elements, reallocating exact-fit when it is
// too small. A reallocation keeps the elements *s held, which is what
// keeps a processor's VP slots across a batch larger than any before;
// the contents beyond them are unspecified.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		t := make([]T, n)
		copy(t, *s)
		*s = t
	}
	return (*s)[:n]
}

// fit is grow for word buffers, poisoned under bufCanary. Every
// consumer overwrites the words it goes on to read.
func fit(s *[]uint64, n int) []uint64 {
	b := grow(s, n)
	if bufCanary != 0 {
		for i := range b {
			b[i] = bufCanary
		}
	}
	return b
}

// fitUpTo is fit for a buffer that grows geometrically: one too small
// for n words is reallocated to twice its capacity, at most limit — the
// buffer's bound — and at least n, keeping its first keep words. So it
// reaches its largest request in a few reallocations, and a later
// request no larger allocates nothing. The words past keep are
// unspecified.
func fitUpTo(s *[]uint64, keep, n, limit int) []uint64 {
	if c := cap(*s); c < n {
		t := make([]uint64, max(n, min(2*c, limit)))
		copy(t, (*s)[:keep])
		*s = t
	}
	b := (*s)[:n]
	if bufCanary != 0 {
		for i := keep; i < n; i++ {
			b[i] = bufCanary
		}
	}
	return b
}
