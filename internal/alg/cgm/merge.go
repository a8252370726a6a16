package cgm

// Sorted runs of w-word records are merged with a binary min-heap of
// run heads, O(n log k) for k runs. An entry of the heap is a record
// slice keyed by its first w words: the Sorter's entries are what is
// left of each run of records wider than one word (it sorts one-word
// runs with sortWords), the PDM merge sort's a copy of each run's head.
// The heap is written out over [][]uint64, so a compare is a loop over
// words and not an interface call.

// InitHeap orders h as a min-heap by the first w words of each entry.
func InitHeap(h [][]uint64, w int) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		SiftDown(h, w, i)
	}
}

// SiftDown restores the heap order of h after the key of entry i grew.
func SiftDown(h [][]uint64, w, i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && recLess(h[r][:w], h[c][:w]) {
			c = r
		}
		if !recLess(h[c][:w], h[i][:w]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// mergeRuns merges the sorted runs in h — each non-empty, of w-word
// records — into out, which holds exactly their words, using h as the
// heap. Every entry of h is nil when it returns.
func mergeRuns(out []uint64, h [][]uint64, w int) {
	InitHeap(h, w)
	for o := 0; len(h) > 0; o += w {
		run := h[0]
		copy(out[o:o+w], run[:w])
		if run = run[w:]; len(run) > 0 {
			h[0] = run
		} else {
			last := len(h) - 1
			h[0], h[last] = h[last], nil
			h = h[:last]
		}
		SiftDown(h, w, 0)
	}
}
