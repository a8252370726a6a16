// Package cgm provides shared building blocks for writing CGM
// (Coarse Grained Multicomputer) algorithms as bsp.Programs: block
// data distribution, order-preserving key encodings, and reusable
// distributed sub-machines (sample sort, prefix sums) that a host
// virtual processor embeds in its context and steps through its own
// supersteps.
//
// A CGM algorithm (Section 2.2 of the paper) alternates computation
// rounds and h-relations with h ≤ n/p. The algorithms built from this
// package (internal/alg/cgmsort, cgmgeom, cgmgraph) are the Table 1
// workloads; running them through internal/core turns them into the
// paper's parallel EM algorithms.
package cgm

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Dist returns the block-distribution range [lo, hi) of items owned
// by VP id when n items are spread over v virtual processors: VP i
// owns items [i·⌈n/v⌉, (i+1)·⌈n/v⌉).
func Dist(n, v, id int) (lo, hi int) {
	per := (n + v - 1) / v
	lo = id * per
	hi = lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// MaxPart returns ⌈n/v⌉, the largest per-VP share under Dist.
func MaxPart(n, v int) int { return (n + v - 1) / v }

// Owner returns the VP owning item index i under Dist.
func Owner(n, v, i int) int { return i / MaxPart(n, v) }

// EncodeFloat maps a float64 to a uint64 such that the natural uint64
// order matches the float order (total order with -Inf < ... < +Inf;
// NaNs are not supported). Used to sort geometric coordinates with the
// integer-keyed Sorter.
func EncodeFloat(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}

// DecodeFloat inverts EncodeFloat.
func DecodeFloat(u uint64) float64 {
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

// Records are flat []uint64 slices holding fixed-width tuples. recLess
// compares two W-word records lexicographically; SortRecords sorts a
// flat record slice in place.

func recLess(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// SortRecords sorts the flat record slice data (length a multiple of
// w) lexicographically by its w-word records, in place, allocating
// nothing. Records compare on all their words, so equal records are
// identical and the unstable sort leaves the same words as a stable one
// would.
//
// One-word records go to sortWords, one distribution pass. Wider ones
// go to an introsort over the flat slice, with the w-word compare and
// swap written out so no call goes through an interface: median-of-three
// quicksort, insertion sort below 12 records, and sort.Sort past
// 2·bits.Len(n) levels. Either way the worst case stays O(n log n).
func SortRecords(data []uint64, w int) {
	if w == 1 {
		sortWords(data)
		return
	}
	n := len(data) / w
	introsort(data, w, 0, n, 2*bits.Len(uint(n)))
}

// maxDigitBits caps distributeWords' digit: 2^11 buckets, two counters
// each, are 32 KiB of stack.
const maxDigitBits = 11

// minDistribute is the fewest keys sortWords distributes. Below it,
// zeroing the counters costs more than the comparisons the pass saves:
// on distinct random inputs (BenchmarkSortWords, 2-vCPU x86-64, medians
// of six) the pass took 0.76 µs to slices.Sort's 0.65 at 24 keys and
// 1.13 to 0.90 at 32, the two tied at 40 and 48, and the pass was 1.5×
// faster at 56 keys and 1.6× at 128.
const minDistribute = 48

// sortWords sorts a in place, allocating nothing: slices.Sort below
// minDistribute keys, distributeWords from there.
func sortWords(a []uint64) {
	if len(a) < minDistribute {
		slices.Sort(a)
		return
	}
	distributeWords(a)
}

// distributeWords sorts a in place with one most-significant-digit
// distribution pass, allocating nothing. The digit is the
// min(bits.Len(n), 11) bits just below the highest bit in which any two
// keys differ, so n keys spread over about n buckets even when they are
// small integers or share a long prefix. An American-flag permutation
// (cycle leader, McIlroy, Bostic and McIlroy's "Engineering Radix
// Sort") moves every key into its bucket; each bucket is then sorted by
// insertion up to 16 keys and by slices.Sort above, so the worst case —
// almost every key in one bucket — stays O(n log n).
func distributeWords(a []uint64) {
	n := len(a)
	var diff uint64
	for _, x := range a {
		diff |= x ^ a[0]
	}
	if diff == 0 {
		return // all keys equal
	}
	top := bits.Len64(diff)
	digit := min(bits.Len(uint(n)), maxDigitBits, top)
	shift, mask := uint(top-digit), uint64(1)<<digit-1
	nb := 1 << digit

	// end[b] is the end of bucket b; next[b] its lowest placed key.
	var end, next [1 << maxDigitBits]int
	for _, x := range a {
		end[x>>shift&mask]++
	}
	sum := 0
	for b := range end[:nb] {
		sum += end[b]
		end[b], next[b] = sum, sum
	}
	// Fill every bucket downward from its end. i is the lowest slot not
	// yet final: when the key carried out of it lands back on i, i is its
	// bucket's first slot and the whole bucket is placed.
	for i := 0; i < n; {
		x := a[i]
		b := x >> shift & mask
		for next[b]--; next[b] > i; next[b]-- {
			a[next[b]], x = x, a[next[b]]
			b = x >> shift & mask
		}
		a[i] = x
		i = end[b]
	}

	lo := 0
	for _, hi := range end[:nb] {
		if hi-lo <= 16 {
			insertionSortWords(a[lo:hi])
		} else {
			slices.Sort(a[lo:hi])
		}
		lo = hi
	}
}

// insertionSortWords sorts a short a in place.
func insertionSortWords(a []uint64) {
	for i := 1; i < len(a); i++ {
		x, j := a[i], i
		for ; j > 0 && a[j-1] > x; j-- {
			a[j] = a[j-1]
		}
		a[j] = x
	}
}

// introsort sorts records [lo, hi) of data, falling back to sort.Sort
// when depth runs out.
func introsort(data []uint64, w, lo, hi, depth int) {
	for hi-lo >= 12 {
		if depth == 0 {
			sort.Sort(records{data[lo*w : hi*w], w})
			return
		}
		depth--
		p := partition(data, w, lo, hi)
		// Recurse into the smaller side, loop on the larger one.
		if p-lo < hi-p-1 {
			introsort(data, w, lo, p, depth)
			lo = p + 1
		} else {
			introsort(data, w, p+1, hi, depth)
			hi = p
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && lessAt(data, w, j, j-1); j-- {
			swapAt(data, w, j, j-1)
		}
	}
}

// partition moves the median of records lo, mid and hi-1 to lo, splits
// [lo+1, hi) around it, and returns the pivot's final index: records
// before it are ≤ it, records after it are ≥ it. Equal records stop both
// scans, so a run of equal records splits in the middle.
func partition(data []uint64, w, lo, hi int) int {
	mid := int(uint(lo+hi) >> 1)
	if lessAt(data, w, mid, lo) {
		swapAt(data, w, mid, lo)
	}
	if lessAt(data, w, hi-1, mid) {
		swapAt(data, w, hi-1, mid)
		if lessAt(data, w, mid, lo) {
			swapAt(data, w, mid, lo)
		}
	}
	swapAt(data, w, lo, mid)
	i, j := lo+1, hi-1
	for {
		for i <= j && lessAt(data, w, i, lo) {
			i++
		}
		for i <= j && lessAt(data, w, lo, j) {
			j--
		}
		if i >= j {
			break
		}
		swapAt(data, w, i, j)
		i++
		j--
	}
	swapAt(data, w, lo, j)
	return j
}

// lessAt reports whether record i of data is below record j.
func lessAt(data []uint64, w, i, j int) bool {
	return recLess(data[i*w:i*w+w], data[j*w:j*w+w])
}

// swapAt exchanges records i and j of data.
func swapAt(data []uint64, w, i, j int) {
	a, b := data[i*w:i*w+w], data[j*w:j*w+w]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// records is a flat record slice as a sort.Interface: SortRecords'
// depth-limit fallback.
type records struct {
	data []uint64
	w    int
}

func (r records) Len() int           { return len(r.data) / r.w }
func (r records) Less(i, j int) bool { return lessAt(r.data, r.w, i, j) }
func (r records) Swap(i, j int)      { swapAt(r.data, r.w, i, j) }

// RecordsSorted reports whether data is sorted by its w-word records.
func RecordsSorted(data []uint64, w int) bool {
	n := len(data) / w
	for i := 1; i < n; i++ {
		if recLess(data[i*w:(i+1)*w], data[(i-1)*w:i*w]) {
			return false
		}
	}
	return true
}
