package cgm

import (
	"fmt"

	"embsp/internal/bsp"
	"embsp/internal/words"
)

// Scan is an embeddable exclusive prefix sum over one uint64 value
// per VP (3 supersteps): after completion, Prefix is the sum of the
// Values of all lower-id VPs and Total the global sum. Like Sorter,
// every VP must drive its Scan in the same supersteps and the Scan
// owns the inbox during its phases.
type Scan struct {
	// Value is the VP's contribution; set before the first Step.
	Value uint64
	// Prefix and Total are valid after Step returns done.
	Prefix uint64
	Total  uint64

	phase int
}

// ScanSupersteps is the number of supersteps a Scan consumes.
const ScanSupersteps = 3

// Step advances the scan by one superstep, returning true on
// completion.
func (s *Scan) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	switch s.phase {
	case 0:
		env.Send(0, []uint64{s.Value})
	case 1:
		if env.ID() == 0 {
			v := env.NumVPs()
			vals := make([]uint64, v)
			for _, m := range in {
				vals[m.Src] = m.Payload[0]
			}
			var run uint64
			for i := 0; i < v; i++ {
				run += vals[i]
			}
			total := run
			run = 0
			for i := 0; i < v; i++ {
				env.Send(i, []uint64{run, total})
				run += vals[i]
			}
			env.Charge(int64(v))
		}
	case 2:
		if len(in) != 1 {
			return false, fmt.Errorf("cgm: scan expected prefix message, got %d", len(in))
		}
		s.Prefix = in[0].Payload[0]
		s.Total = in[0].Payload[1]
		s.phase++
		return true, nil
	default:
		return false, fmt.Errorf("cgm: scan stepped after completion (phase %d)", s.phase)
	}
	s.phase++
	return false, nil
}

// Save marshals the Scan state.
func (s *Scan) Save(enc *words.Encoder) {
	enc.PutUint(uint64(s.phase))
	enc.PutUint(s.Value)
	enc.PutUint(s.Prefix)
	enc.PutUint(s.Total)
}

// Load restores the Scan state.
func (s *Scan) Load(dec *words.Decoder) {
	s.phase = int(dec.Uint())
	s.Value = dec.Uint()
	s.Prefix = dec.Uint()
	s.Total = dec.Uint()
}

// ScanSaveWords is the fixed Save size of a Scan.
const ScanSaveWords = 4
