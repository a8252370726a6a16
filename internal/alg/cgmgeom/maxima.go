package cgmgeom

import (
	"fmt"
	"sort"

	"embsp/internal/alg/cgm"
	"embsp/internal/bsp"
	"embsp/internal/words"
)

// Maxima3D computes the 3D maxima of a point set: the points p such
// that no other point q has q.X > p.X, q.Y > p.Y and q.Z > p.Z
// (coordinates are assumed distinct).
//
// CGM algorithm (λ = O(1) rounds, the Table 1 "3D-maxima" row):
// sort by x descending into slabs, compute each slab's local maxima
// (a staircase sweep), broadcast the local maxima candidates to all
// lower slabs, and filter each slab's candidates against the
// staircase of all higher-x candidates. Only local maxima of a slab
// can dominate points in lower slabs (domination in (y, z) is
// transitive), so the filter is exact. The broadcast volume is the
// number of local maxima — small for random inputs, Θ(n) in the
// worst case (documented in DESIGN.md §5).
type Maxima3D struct {
	v   int
	n   int
	pts []Point3
}

// NewMaxima3D returns the program for the given points on v VPs.
func NewMaxima3D(pts []Point3, v int) (*Maxima3D, error) {
	if v <= 0 {
		return nil, fmt.Errorf("cgmgeom: v = %d, want > 0", v)
	}
	return &Maxima3D{v: v, n: len(pts), pts: pts}, nil
}

func (p *Maxima3D) NumVPs() int { return p.v }

const maximaRecW = 4 // ^enc(x), enc(y), enc(z), index

func (p *Maxima3D) MaxContextWords() int {
	maxRecs := 3*cgm.MaxPart(p.n, p.v) + p.v
	s := cgm.Sorter{W: maximaRecW}
	// Sorter state, local-maxima candidates, result indices, phase.
	return 2 + s.SaveSize(maxRecs, p.v) + words.SizeUints(3*maxRecs) + words.SizeUints(maxRecs)
}

func (p *Maxima3D) MaxCommWords() int {
	maxRecs := 3*cgm.MaxPart(p.n, p.v) + p.v
	sortComm := 3*cgm.MaxPart(p.n, p.v)*maximaRecW + p.v*(p.v*maximaRecW+1) + p.v*((p.v-1)*maximaRecW+1)
	// Candidate broadcast: worst case every VP sends all its records
	// to every lower VP, and a VP receives all records of higher VPs.
	bcast := 3*maxRecs*p.v + p.v
	if bcast > sortComm {
		return bcast + 16
	}
	return sortComm + 16
}

func (p *Maxima3D) NewVP(id int) bsp.VP {
	lo, hi := cgm.Dist(p.n, p.v, id)
	data := make([]uint64, 0, (hi-lo)*maximaRecW)
	for i := lo; i < hi; i++ {
		pt := p.pts[i]
		data = append(data,
			^cgm.EncodeFloat(pt.X), // ascending sort = descending x
			cgm.EncodeFloat(pt.Y),
			cgm.EncodeFloat(pt.Z),
			uint64(i),
		)
	}
	return &maximaVP{p: p, sorter: cgm.Sorter{W: maximaRecW, Data: data}}
}

type maximaVP struct {
	p      *Maxima3D
	phase  uint64
	sorter cgm.Sorter
	locals []uint64 // local-maxima candidates: (y, z, idx) triples
	result []uint64 // final maxima indices
}

func (vp *maximaVP) Step(env *bsp.Env, in []bsp.Message) (bool, error) {
	switch vp.phase {
	case 0:
		done, err := vp.sorter.Step(env, in)
		if err != nil {
			return false, err
		}
		if !done {
			return vp.sorter.Idle(), nil
		}
		// Sweep in descending x: a point is a slab-local maximum iff
		// no earlier point strictly dominates its (y, z).
		var st staircase
		data := vp.sorter.Data
		n := len(data) / maximaRecW
		for i := 0; i < n; i++ {
			y, z, idx := data[i*maximaRecW+1], data[i*maximaRecW+2], data[i*maximaRecW+3]
			if !st.dominated(y, z) {
				vp.locals = append(vp.locals, y, z, idx)
				st.insert(y, z)
			}
		}
		env.Charge(int64(n) * 8)
		vp.sorter.Data = nil
		// Broadcast candidates to all lower-x slabs (higher ids).
		if len(vp.locals) > 0 {
			for d := env.ID() + 1; d < env.NumVPs(); d++ {
				env.Send(d, vp.locals)
			}
		}
		vp.phase = 1
		return false, nil
	case 1:
		// Filter own candidates against all higher-x candidates.
		var st staircase
		for _, m := range in {
			for i := 0; i+3 <= len(m.Payload); i += 3 {
				st.insert(m.Payload[i], m.Payload[i+1])
			}
		}
		for i := 0; i+3 <= len(vp.locals); i += 3 {
			if !st.dominated(vp.locals[i], vp.locals[i+1]) {
				vp.result = append(vp.result, vp.locals[i+2])
			}
		}
		env.Charge(int64(len(vp.locals) + 8))
		vp.locals = nil
		vp.phase = 2
		return true, nil
	default:
		return false, fmt.Errorf("cgmgeom: maxima VP stepped after completion")
	}
}

func (vp *maximaVP) Save(enc *words.Encoder) {
	enc.PutUint(vp.phase)
	vp.sorter.Save(enc)
	enc.PutUints(vp.locals)
	enc.PutUints(vp.result)
}

func (vp *maximaVP) Load(dec *words.Decoder) {
	vp.phase = dec.Uint()
	vp.sorter.W = maximaRecW
	vp.sorter.Load(dec)
	vp.locals = dec.Uints()
	vp.result = dec.Uints()
}

// Output returns the sorted original indices of the maximal points.
func (p *Maxima3D) Output(vps []bsp.VP) []int {
	var out []int
	for _, vp := range vps {
		for _, idx := range vp.(*maximaVP).result {
			out = append(out, int(idx))
		}
	}
	sort.Ints(out)
	return out
}
