package cgm

import (
	"fmt"
	"math/bits"
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
// Records should be made distinct (e.g. by appending an index word):
// the lexicographic order is then total, which both balances the
// output (the PSRS 2n/v guarantee) and makes results deterministic.
//
// Phases (one superstep each, λ = 4 supersteps):
//
//	0: local sort; send v regular samples to VP 0
//	1: VP 0 merges the samples, broadcasts v-1 splitters
//	2: partition local records by splitter; route to destinations
//	3: merge the received runs; done
//
// Every message of phases 1 and 3 is one sorted run: samples are taken
// in order from the sender's sorted Data, and phase 2 sends contiguous
// ranges of it. So both merge them with a heap of run heads, O(n log v)
// instead of a sort's O(n log n), and Step fails with a *bsp.ProgramError
// if a run is out of order. The model charge stays that of a sort.
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

	phase     int
	splitters []uint64

	merged []uint64   // scratch: phase 0's samples and the merge output
	heap   [][]uint64 // scratch: the runs being merged, cleared after
}

// Active reports whether the Sorter still needs Step calls.
func (s *Sorter) Active() bool { return s.phase <= 3 }

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
		samples := s.scratch(cnt * s.W)
		for j := 0; j < cnt; j++ {
			i := j * n / cnt
			copy(samples[j*s.W:], s.Data[i*s.W:(i+1)*s.W])
		}
		if len(samples) > 0 {
			env.Send(0, samples)
		}
	case 1:
		if env.ID() == 0 {
			samples, err := s.merge(env, in)
			if err != nil {
				return false, err
			}
			chargeSort(env, len(samples)/s.W)
			m := len(samples) / s.W
			spl := make([]uint64, 0, (v-1)*s.W)
			for i := 1; i < v; i++ {
				j := i * m / v
				if j >= m {
					j = m - 1
				}
				if j < 0 {
					continue
				}
				spl = append(spl, samples[j*s.W:(j+1)*s.W]...)
			}
			for d := 0; d < v; d++ {
				env.Send(d, spl)
			}
		}
	case 2:
		if len(in) != 1 {
			return false, fmt.Errorf("cgm: sorter expected splitters, got %d messages", len(in))
		}
		s.splitters = in[0].Payload
		ns := len(s.splitters) / s.W
		n := len(s.Data) / s.W
		// Destination of a record: the number of splitters <= it.
		// Records are sorted, so destinations are non-decreasing and
		// each VP receives one contiguous run.
		start := 0
		for d := 0; d < v && start < n; d++ {
			end := n
			if d < ns {
				// First record index with record > splitter d.
				key := s.splitters[d*s.W : (d+1)*s.W]
				end = start + sort.Search(n-start, func(i int) bool {
					r := s.Data[(start+i)*s.W : (start+i+1)*s.W]
					return recLess(key, r)
				})
			}
			if end > start {
				env.Send(d, s.Data[start*s.W:end*s.W])
			}
			start = end
		}
		env.Charge(int64(n))
		s.Data = nil
	case 3:
		recv, err := s.merge(env, in)
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

// merge merges the runs in, one a message, into merged and returns the
// result, capacity-limited.
func (s *Sorter) merge(env *bsp.Env, in []bsp.Message) ([]uint64, error) {
	total := 0
	h := s.heap[:0]
	for _, m := range in {
		if len(m.Payload)%s.W != 0 || !RecordsSorted(m.Payload, s.W) {
			return nil, &bsp.ProgramError{VP: env.ID(), Superstep: env.Superstep(),
				Value: fmt.Errorf("cgm: sorter phase %d: unsorted run of %d words from VP %d", s.phase, len(m.Payload), m.Src)}
		}
		if len(m.Payload) > 0 {
			h = append(h, m.Payload)
		}
		total += len(m.Payload)
	}
	s.heap = h
	out := s.scratch(total)
	mergeRuns(out, h, s.W)
	return out, nil
}

// Save marshals the Sorter state (W is static host configuration and
// is not saved, nor is the merge scratch). It copies Data out, so a
// Data that is merged stays the VP's after the slot's next merge.
func (s *Sorter) Save(enc *words.Encoder) {
	enc.PutUint(uint64(s.phase))
	enc.PutUints(s.Data)
	enc.PutUints(s.splitters)
}

// Load restores the Sorter state; W must already be set by the host.
func (s *Sorter) Load(dec *words.Decoder) {
	s.phase = int(dec.Uint())
	s.Data = dec.Uints()
	s.splitters = dec.Uints()
}

// SaveSize returns an upper bound on Save's output given a bound
// maxRecs on the number of local records.
func (s *Sorter) SaveSize(maxRecs, v int) int {
	return 1 + words.SizeUints(maxRecs*s.W) + words.SizeUints((v-1)*s.W)
}
