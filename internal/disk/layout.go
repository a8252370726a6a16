package disk

import "fmt"

// Area is a reserved region of the array holding a collection of
// blocks in standard consecutive format (Definition 2 of the paper):
// block i of the collection lives on drive i mod D, and on each drive
// the area's blocks occupy consecutive tracks starting at the drive's
// base. Any D consecutive block indices therefore address D distinct
// drives, so the area can be streamed with fully parallel I/O.
//
// The paper's context layout (details of Steps 1(a)/1(e) of Algorithm
// SeqCompoundSuperstep) stores the i-th block of virtual processor j's
// context at global block index i + j·(µ/B) of one big area, which is
// exactly Area.Addr of that index.
type Area struct {
	d    int
	n    int
	rot  int
	base []int
}

// Reserve allocates an area of nBlocks blocks in standard consecutive
// format. Each drive contributes the consecutive fresh tracks its
// blocks occupy (per-drive block counts differ by at most one, as
// Definition 2 requires).
func (a *Array) Reserve(nBlocks int) Area { return a.ReserveRot(nBlocks, 0) }

// ReserveRot allocates an area whose block-to-drive mapping is rotated
// by rot: block i lives on drive (rot + i) mod D, each drive
// contributing as many consecutive fresh tracks as it holds blocks —
// ⌈(nBlocks − a)/D⌉ for the drive at offset a = (d − rot) mod D, none
// once a ≥ nBlocks, so an area shorter than D leaves the other drives
// alone. Algorithm SimulateRouting (Step 2) writes D bucket areas
// concurrently, one block of each per parallel I/O operation; giving
// bucket d's area rotation d makes the D concurrent writes of operation
// j land on the D distinct drives (d + j) mod D, exactly as the paper's
// track formula d·⌈vγ/D²B⌉ + ⌊j/D⌋ on disk (d+j) mod D prescribes.
//
// Like Alloc's, the tracks join the drive's fresh run and read blank
// until written, so ragged never-written slots read blank.
func (a *Array) ReserveRot(nBlocks, rot int) Area {
	if nBlocks < 0 {
		panic("disk: Reserve with negative size")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	D := a.cfg.D
	ar := Area{d: D, n: nBlocks, rot: ((rot % D) + D) % D, base: make([]int, D)}
	for d := range a.drives {
		dr := &a.drives[d]
		ar.base[d] = dr.next
		dr.next += max(0, nBlocks-(d-ar.rot+D)%D+D-1) / D
	}
	return ar
}

// Blocks returns the area's capacity in blocks.
func (ar Area) Blocks() int { return ar.n }

// Addr returns the address of block index i of the area.
func (ar Area) Addr(i int) Addr {
	if i < 0 || i >= ar.n {
		panic(fmt.Sprintf("disk: area block index %d out of range [0,%d)", i, ar.n))
	}
	d := (ar.rot + i) % ar.d
	return Addr{Disk: d, Track: ar.base[d] + i/ar.d}
}

// Slice returns a view of blocks [off, off+n) of an area as an Area
// of its own: Slice(ar, off, n).Addr(i) == ar.Addr(off+i) for every
// i in [0, n).
func Slice(ar Area, off, n int) Area {
	if off < 0 || n < 0 || off+n > ar.n {
		panic(fmt.Sprintf("disk: Slice [%d,%d) of %d-block area", off, off+n, ar.n))
	}
	D := ar.d
	out := Area{d: D, n: n, rot: (ar.rot + off) % D, base: make([]int, D)}
	for dd := 0; dd < D; dd++ {
		a := ((dd-ar.rot)%D + D) % D
		a2 := ((a-off)%D + D) % D
		out.base[dd] = ar.base[dd] + (off+a2-a)/D
	}
	return out
}

// FreeArea releases every track of the area back to the drives' free
// lists (contents cleared). The Area must not be used afterwards.
func (a *Array) FreeArea(ar Area) error {
	for i := 0; i < ar.n; i++ {
		ad := ar.Addr(i)
		if err := a.Release(ad.Disk, ad.Track); err != nil {
			return err
		}
	}
	return nil
}

// ReadRange reads blocks [lo, hi) of the area into dst, which must
// have length (hi-lo)·B, issuing ⌈(hi-lo)/D⌉ maximally parallel I/O
// operations (each group of D consecutive block indices addresses D
// distinct drives).
func (a *Array) ReadRange(ar Area, lo, hi int, dst []uint64) error {
	cfg := a.cfg
	if hi < lo || lo < 0 || hi > ar.n {
		return fmt.Errorf("disk: ReadRange [%d,%d) out of area range [0,%d)", lo, hi, ar.n)
	}
	if len(dst) != (hi-lo)*cfg.B {
		return fmt.Errorf("disk: ReadRange buffer has %d words, want %d", len(dst), (hi-lo)*cfg.B)
	}
	reqs := make([]ReadReq, 0, cfg.D)
	for i := lo; i < hi; i += cfg.D {
		reqs = reqs[:0]
		for j := i; j < hi && j < i+cfg.D; j++ {
			addr := ar.Addr(j)
			off := (j - lo) * cfg.B
			reqs = append(reqs, ReadReq{Disk: addr.Disk, Track: addr.Track, Dst: dst[off : off+cfg.B]})
		}
		if err := a.ReadOp(reqs); err != nil {
			return err
		}
	}
	return nil
}

// WriteRange writes src to blocks [lo, hi) of the area with maximally
// parallel I/O operations.
func (a *Array) WriteRange(ar Area, lo, hi int, src []uint64) error {
	cfg := a.cfg
	if hi < lo || lo < 0 || hi > ar.n {
		return fmt.Errorf("disk: WriteRange [%d,%d) out of area range [0,%d)", lo, hi, ar.n)
	}
	if len(src) != (hi-lo)*cfg.B {
		return fmt.Errorf("disk: WriteRange buffer has %d words, want %d", len(src), (hi-lo)*cfg.B)
	}
	reqs := make([]WriteReq, 0, cfg.D)
	for i := lo; i < hi; i += cfg.D {
		reqs = reqs[:0]
		for j := i; j < hi && j < i+cfg.D; j++ {
			addr := ar.Addr(j)
			off := (j - lo) * cfg.B
			reqs = append(reqs, WriteReq{Disk: addr.Disk, Track: addr.Track, Src: src[off : off+cfg.B]})
		}
		if err := a.WriteOp(reqs); err != nil {
			return err
		}
	}
	return nil
}
