// Package cgmgeom implements the Group B (GIS and computational
// geometry) workloads of the paper's Table 1 as CGM programs: 3D
// maxima, 2D weighted dominance counting, area of union of
// rectangles, 2D convex hull, lower envelope of non-intersecting
// segments, batched next-element search (vertical ray shooting) and
// 2D all-nearest-neighbors.
//
// All algorithms assume points/coordinates in general position
// (distinct coordinate values); the workload generators in
// internal/bench produce such inputs. Deviations from the exact
// algorithms the paper cites (e.g. ⌈log p⌉ hull merge rounds instead
// of the randomized O(1)-round 3D hull) are documented in DESIGN.md §5
// and surfaced through the measured λ.
package cgmgeom

import (
	"math"
	"sort"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/words"
)

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Point3 is a point in space.
type Point3 struct {
	X, Y, Z float64
}

// Rect is an axis-parallel rectangle [X1,X2] × [Y1,Y2].
type Rect struct {
	X1, X2, Y1, Y2 float64
}

// Segment is a line segment from (X1,Y1) to (X2,Y2) with X1 <= X2.
type Segment struct {
	X1, Y1, X2, Y2 float64
}

// staircase maintains the Pareto-maximal set of (y, z) pairs seen so
// far: pairs such that no other inserted pair strictly dominates them
// in both coordinates. It answers "is (y, z) strictly dominated?"
// queries in O(log n). Entries are kept sorted by y ascending, which
// forces z strictly descending.
type staircase struct {
	ys []uint64
	zs []uint64
}

// dominated reports whether some inserted pair has y' > y and z' > z.
func (s *staircase) dominated(y, z uint64) bool {
	// First entry with y' > y; entries are sorted by y with z
	// descending, so that entry has the largest z among all y' > y.
	i := sort.Search(len(s.ys), func(i int) bool { return s.ys[i] > y })
	return i < len(s.ys) && s.zs[i] > z
}

// insert adds (y, z) unless dominated, pruning entries it dominates.
func (s *staircase) insert(y, z uint64) {
	if s.dominated(y, z) {
		return
	}
	// Remove entries with y' < y (hence before the insertion point)
	// and z' < z: they are dominated by the new pair. Those entries
	// form a contiguous run ending just before the insertion point.
	i := sort.Search(len(s.ys), func(i int) bool { return s.ys[i] >= y })
	j := i
	for j > 0 && s.zs[j-1] < z {
		j--
	}
	// Replace [j, i) with the new entry.
	s.ys = append(s.ys[:j], append([]uint64{y}, s.ys[i:]...)...)
	s.zs = append(s.zs[:j], append([]uint64{z}, s.zs[i:]...)...)
}

// Slabber is an embeddable sub-machine establishing a balanced slab
// decomposition of the x-axis: it globally sorts the VPs' local
// records (W words each, keyed by their first word) and then
// broadcasts each VP's first key, so that every VP ends up knowing
// the boundary array b[0..v] with slab i covering keys in
// [b[i], b[i+1]). b[0] = 0 and b[v] = MaxUint64, so the slabs cover
// every key. After completion, Data holds the VP's slab of the sorted
// records. Consumes SlabberSupersteps supersteps.
type Slabber struct {
	// W is the record width (0 is treated as 1: bare keys).
	W int
	// Data holds the VP's local flat records before the first Step
	// and the slab's sorted records after completion.
	Data []uint64
	// Bounds is the boundary array, valid once done (length v+1).
	Bounds []uint64

	sorter  cgm.Sorter
	started bool
	phase   int
}

// SlabberSupersteps is the number of supersteps a Slabber consumes.
const SlabberSupersteps = cgm.SorterSupersteps + 2

func (s *Slabber) width() int {
	if s.W <= 0 {
		return 1
	}
	return s.W
}

// Step advances the slab decomposition, returning true on completion.
func (s *Slabber) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	if !s.started {
		s.sorter = cgm.Sorter{W: s.width(), Data: s.Data}
		s.Data = nil
		s.started = true
	}
	if s.sorter.Active() {
		done, err := s.sorter.Step(env, in)
		if err != nil {
			return false, err
		}
		if done {
			// Broadcast this VP's first key (tagged by our id via
			// Src); empty VPs send nothing.
			if len(s.sorter.Data) > 0 {
				for d := 0; d < env.NumVPs(); d++ {
					env.Send(d, s.sorter.Data[:1])
				}
			}
			s.Data = s.sorter.Data
			s.sorter.Data = nil
		}
		return false, nil
	}
	// Final superstep: assemble boundaries from the broadcasts.
	v := env.NumVPs()
	s.Bounds = make([]uint64, v+1)
	for i := range s.Bounds {
		s.Bounds[i] = ^uint64(0)
	}
	for _, m := range in {
		s.Bounds[m.Src] = m.Payload[0]
	}
	// Empty slabs inherit the next non-empty boundary; slab 0 always
	// starts at the minimum key.
	for i := v - 1; i >= 1; i-- {
		if s.Bounds[i] == ^uint64(0) && s.Bounds[i+1] != ^uint64(0) {
			s.Bounds[i] = s.Bounds[i+1]
		}
	}
	s.Bounds[0] = 0
	s.phase = 1
	return true, nil
}

// Idle reports whether the slab decomposition waits in its sort for VP
// 0's splitters (cgm.Sorter.Idle): a host votes halt while it does.
func (s *Slabber) Idle() bool { return s.sorter.Idle() }

// SlabOf returns the slab owning key: the largest i with b[i] <= key.
func SlabOf(bounds []uint64, key uint64) int {
	v := len(bounds) - 1
	// First boundary index in [1, v] with b[i] > key; the slab is the
	// one before it.
	i := sort.Search(v-1, func(j int) bool { return bounds[j+1] > key }) // j+1 in [1, v-1]
	return i
}

// SlabRange returns the inclusive slab index range [lo, hi] of slabs
// intersecting the key interval [a, b] (a <= b).
func SlabRange(bounds []uint64, a, b uint64) (lo, hi int) {
	return SlabOf(bounds, a), SlabOf(bounds, b)
}

// Save marshals the Slabber (W is static host configuration).
func (s *Slabber) Save(enc *words.Encoder) {
	enc.PutBool(s.started)
	enc.PutUint(uint64(s.phase))
	enc.PutUints(s.Data)
	enc.PutUints(s.Bounds)
	s.sorter.Save(enc)
}

// Load restores the Slabber; W must already be set by the host.
func (s *Slabber) Load(dec *words.Decoder) {
	s.started = dec.Bool()
	s.phase = int(dec.Uint())
	s.Data = dec.Uints()
	s.Bounds = dec.Uints()
	s.sorter.W = s.width()
	s.sorter.Load(dec)
}

// SaveSize bounds the Slabber's Save output for maxRecs local records.
func (s *Slabber) SaveSize(maxRecs, v int) int {
	st := cgm.Sorter{W: s.width()}
	return 2 + words.SizeUints(maxRecs*s.width()) + words.SizeUints(v+1) + st.SaveSize(maxRecs, v)
}

// BoundFloat decodes a slab boundary key, mapping the MaxUint64
// sentinel (no slab to the right) to +Inf.
func BoundFloat(b uint64) float64 {
	if b == ^uint64(0) {
		return math.Inf(1)
	}
	return cgm.DecodeFloat(b)
}
