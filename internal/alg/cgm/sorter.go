package cgm

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"embsp/internal/bsp"
	"embsp/internal/words"
)

// Sorter is an embeddable distributed sample sort (PSRS — parallel
// sorting by regular sampling; Goodrich-style communication-efficient
// sorting shape with λ = O(1) communication rounds).
//
// A host VP embeds a Sorter in its context, fills Data with its local
// flat records (W words each, compared lexicographically), and then
// forwards its Step/Save/Load calls to the Sorter until Step reports
// done. All VPs must drive their Sorters in the same supersteps, and
// the Sorter owns the inbox during its phases. After completion, Data
// holds the VP's slice of the globally sorted sequence: concatenating
// Data over VP ids yields the total order.
//
// The PSRS balance (every VP ends with at most 2·⌈n/v⌉ + v records)
// needs a total order. A host whose records are distinct has one; the
// geometry hosts (hull, maxima, dominance, separability, nn, segtree)
// and exprtree end each record with an index or id word. A host with
// duplicate keys sets Ties, and the Sorter breaks ties by a record's
// place — (source VP, position after the local sort) — which it carries
// as one tag word on each sample and splitter only, never on a record.
// Records equal in all W words are identical, so the output is the
// same whichever VP a tie lands on. Ties needs v and every VP's record
// count to fit in 32 bits. A host with distinct records leaves it off:
// the tag words only add to its samples and splitters.
//
// Phases (one superstep each, λ = 4 supersteps):
//
//	0: local sort; send v regular samples to VP 0
//	1: VP 0 merges the samples, broadcasts v-1 splitters
//	2: partition local records by splitter; route to destinations
//	3: merge the received runs; done
//
// Only VP 0 works in phase 1: the others go from phase 0 straight to
// waiting for the splitters, and Idle reports the wait. A Step while
// idle with an empty inbox changes nothing, so a host that votes halt
// while its Sorter is idle keeps bsp.VP's sleep contract, and its VP
// sleeps through phase 1 until the splitters wake it — an EM engine
// then neither reads nor writes its context in that superstep.
//
// Every message of phases 1 and 3 is one sorted run: samples are taken
// in order from the sender's sorted Data, and phase 2 sends contiguous
// ranges of it. Step fails with a *bsp.ProgramError if a run is out of
// order. Runs of records wider than one word are merged with a heap of
// run heads, O(n log v) instead of a sort's O(n log n); one-word runs
// are concatenated and sorted by one distribution pass, which is faster
// still. The model charge stays that of a sort.
//
// The merge writes into merged, scratch that Save does not write and
// Load does not set: under the bsp.VP contract its capacity carries over
// from load to load of the VP object, so an engine's VP slot grows it
// only when a VP receives more words than any before it in that slot.
// After phase 3, Data is merged, capacity-limited so a host's append
// reallocates. A host that starts a second sort assigns a new Sorter
// value, which drops the scratch, so a slice still aliasing the first
// sort's output is never overwritten.
type Sorter struct {
	// W is the record width in words (≥ 1).
	W int
	// Data holds the VP's local flat records (len divisible by W).
	Data []uint64
	// Ties breaks ties between equal records by place: samples and
	// splitters carry a tag word, (VP id)<<32 | local position.
	Ties bool

	phase     int
	splitters []uint64

	merged []uint64   // scratch: phase 0's samples and the merge output
	heap   [][]uint64 // scratch: the runs being merged, cleared after
}

// Active reports whether the Sorter still needs Step calls.
func (s *Sorter) Active() bool { return s.phase <= 3 }

// Idle reports whether the Sorter waits for VP 0's splitters: from the
// superstep in which it sent its samples — VP 0: its splitters — until
// they arrive. A host votes halt while its Sorter is idle.
func (s *Sorter) Idle() bool { return s.phase == 2 }

// Supersteps returns the number of supersteps a Sorter consumes.
const SorterSupersteps = 4

// chargeSort charges a comparison-sort's work for n records.
func chargeSort(env *bsp.Env, n int) {
	if n > 1 {
		env.Charge(int64(n) * int64(bits.Len(uint(n))))
	}
}

// Step advances the sort by one superstep. It consumes the inbox and
// returns true when the sort is complete (after which Data is the
// sorted slice and the Sorter must not be stepped again).
func (s *Sorter) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	v := env.NumVPs()
	switch s.phase {
	case 0:
		SortRecords(s.Data, s.W)
		chargeSort(env, len(s.Data)/s.W)
		n := len(s.Data) / s.W
		cnt := v
		if n < cnt {
			cnt = n
		}
		tw := s.tagW()
		samples := s.scratch(cnt * tw)
		for j := 0; j < cnt; j++ {
			i := j * n / cnt
			copy(samples[j*tw:], s.Data[i*s.W:(i+1)*s.W])
			if s.Ties {
				samples[j*tw+s.W] = recTag(env.ID(), i)
			}
		}
		if len(samples) > 0 {
			env.Send(0, samples)
		}
		if env.ID() != 0 {
			s.phase = 2 // wait for the splitters
			return false, nil
		}
	case 1: // VP 0 only
		tw := s.tagW()
		samples, err := s.merge(env, in, tw)
		if err != nil {
			return false, err
		}
		chargeSort(env, len(samples)/tw)
		m := len(samples) / tw
		spl := make([]uint64, 0, (v-1)*tw)
		for i := 1; i < v; i++ {
			j := i * m / v
			if j >= m {
				j = m - 1
			}
			if j < 0 {
				continue
			}
			spl = append(spl, samples[j*tw:(j+1)*tw]...)
		}
		for d := 0; d < v; d++ {
			env.Send(d, spl)
		}
	case 2:
		if len(in) == 0 {
			return false, nil // idle: the splitters have not arrived
		}
		if len(in) != 1 {
			return false, fmt.Errorf("cgm: sorter expected splitters, got %d messages", len(in))
		}
		s.splitters = in[0].Payload
		tw, id := s.tagW(), env.ID()
		ns := len(s.splitters) / tw
		n := len(s.Data) / s.W
		// Destination of a record: the number of splitters <= it, a
		// tie going by place under Ties. Records are sorted (and their
		// places ascend), so destinations are non-decreasing and each VP
		// receives one contiguous run.
		start := 0
		for d := 0; d < v && start < n; d++ {
			end := n
			if d < ns {
				// First record index with record > splitter d.
				spl := s.splitters[d*tw : (d+1)*tw]
				key := spl[:s.W]
				end = start + sort.Search(n-start, func(i int) bool {
					r := s.Data[(start+i)*s.W : (start+i+1)*s.W]
					c := slices.Compare(key, r)
					return c < 0 || c == 0 && s.Ties && spl[s.W] < recTag(id, start+i)
				})
			}
			if end > start {
				env.Send(d, s.Data[start*s.W:end*s.W])
			}
			start = end
		}
		env.Charge(int64(n))
		s.Data, s.splitters = nil, nil
	case 3:
		recv, err := s.merge(env, in, s.W)
		if err != nil {
			return false, err
		}
		chargeSort(env, len(recv)/s.W)
		if len(recv) > 0 {
			s.Data = recv
		} // else Data stays nil, as phase 2 left it
		s.phase++
		return true, nil
	default:
		return false, fmt.Errorf("cgm: sorter stepped after completion (phase %d)", s.phase)
	}
	s.phase++
	return false, nil
}

// scratch returns merged[:n:n], first growing merged to exactly n
// words if its capacity is smaller.
func (s *Sorter) scratch(n int) []uint64 {
	if cap(s.merged) < n {
		s.merged = make([]uint64, n)
	}
	return s.merged[:n:n]
}

// tagW is the width of a sample or splitter: W, and the tag word under
// Ties.
func (s *Sorter) tagW() int {
	if s.Ties {
		return s.W + 1
	}
	return s.W
}

// recTag is the place of the record at local position i of VP id, the
// tag that breaks ties under Ties.
func recTag(id, i int) uint64 { return uint64(id)<<32 | uint64(i) }

// merge merges the runs in, one a message of w-word records, into
// merged and returns the result, capacity-limited. One-word runs are
// copied there and sorted by sortWords, which beats the heap's compare
// per record and level.
func (s *Sorter) merge(env *bsp.Env, in []bsp.Message, w int) ([]uint64, error) {
	total := 0
	h := s.heap[:0]
	for _, m := range in {
		if len(m.Payload)%w != 0 || !RecordsSorted(m.Payload, w) {
			return nil, &bsp.ProgramError{VP: env.ID(), Superstep: env.Superstep(),
				Value: fmt.Errorf("cgm: sorter phase %d: unsorted run of %d words from VP %d", s.phase, len(m.Payload), m.Src)}
		}
		if len(m.Payload) > 0 && w > 1 {
			h = append(h, m.Payload)
		}
		total += len(m.Payload)
	}
	out := s.scratch(total)
	if w == 1 {
		o := 0
		for _, m := range in {
			o += copy(out[o:], m.Payload)
		}
		sortWords(out)
		return out, nil
	}
	s.heap = h
	mergeRuns(out, h, w)
	return out, nil
}

// Save marshals the Sorter state (W and Ties are static host
// configuration and are not saved, nor is the merge scratch; phase 2
// drops the splitters in the step they arrive, so they save as an empty
// list). It copies Data out, so a Data that is merged stays the VP's
// after the slot's next merge.
func (s *Sorter) Save(enc *words.Encoder) {
	enc.PutUint(uint64(s.phase))
	enc.PutUints(s.Data)
	enc.PutUints(s.splitters)
}

// Load restores the Sorter state; W and Ties must already be set by the
// host, as they were when the state was saved.
func (s *Sorter) Load(dec *words.Decoder) {
	s.phase = int(dec.Uint())
	s.Data = dec.Uints()
	s.splitters = dec.Uints()
}

// SaveSize returns an upper bound on Save's output given a bound
// maxRecs on the number of local records.
func (s *Sorter) SaveSize(maxRecs, v int) int {
	return 1 + words.SizeUints(maxRecs*s.W) + words.SizeUints((v-1)*s.tagW())
}

// CommWords returns an upper bound on the words a VP sends or receives
// in one of the Sorter's supersteps, given a bound maxRecs on the
// number of records a VP starts with: three times its records for
// phase 2's routing, and VP 0's v·v samples and v-1 splitters to each of
// v VPs, each message with a word of overhead.
func (s *Sorter) CommWords(maxRecs, v int) int {
	tw := s.tagW()
	return 3*maxRecs*s.W + v*(v*tw+1) + v*((v-1)*tw+1)
}
