package pdm

import (
	"fmt"

	"embsp/internal/alg/cgm"
)

// MergeSort sorts a file of W-word records lexicographically with the
// classic PDM external merge sort: run formation with memory-sized
// runs, then repeated F-way merging with per-run forecast buffers of
// one full stripe (D blocks), so every refill is one fully parallel
// I/O operation. The I/O cost is Θ((n/DB)·log_{M/B}(n/B)) parallel
// operations — the Table 1 "previous results" column for sorting.
func (m *Machine) MergeSort(f File, w int) (File, error) {
	if w <= 0 || f.words%w != 0 {
		return File{}, fmt.Errorf("pdm: file of %d words is not %d-word records", f.words, w)
	}
	B := m.Arr.Config().B
	db := m.Arr.Config().D * B

	// Pass 0: run formation.
	runWords := m.chunkWords() / w * w
	if runWords == 0 {
		runWords = w
	}
	var runs []File
	if err := m.Acct.Grab(int64(runWords + B + db + w)); err != nil {
		return File{}, err
	}
	buf := make([]uint64, runWords+B) // block padding for w ∤ B
	rr := m.newRunReader(f, w)
	for {
		fill := 0
		for fill+w <= runWords {
			rec, err := rr.next(w)
			if err != nil {
				return File{}, err
			}
			if rec == nil {
				break
			}
			copy(buf[fill:], rec)
			fill += w
		}
		if fill == 0 {
			break
		}
		cgm.SortRecords(buf[:fill], w)
		nbk := (fill + B - 1) / B
		clear(buf[fill : nbk*B])
		run, err := m.writeRun(buf[:nbk*B], fill)
		if err != nil {
			return File{}, err
		}
		runs = append(runs, run)
	}
	m.Acct.Release(int64(runWords + B + db + w))
	if len(runs) == 0 {
		return m.WriteFile(nil)
	}

	// Merge passes: fan-in limited by one stripe of buffer per run
	// plus one output stripe.
	fanIn := (m.M/2)/db - 1
	if fanIn < 2 {
		fanIn = 2
	}
	for len(runs) > 1 {
		var next []File
		for lo := 0; lo < len(runs); lo += fanIn {
			hi := lo + fanIn
			if hi > len(runs) {
				hi = len(runs)
			}
			merged, err := m.mergeRuns(runs[lo:hi], w)
			if err != nil {
				return File{}, err
			}
			for _, r := range runs[lo:hi] {
				m.Free(r)
			}
			next = append(next, merged)
		}
		runs = next
	}
	return runs[0], nil
}

// writeRun writes a block-padded buffer holding words valid words.
func (m *Machine) writeRun(buf []uint64, words int) (File, error) {
	B := m.Arr.Config().B
	nbk := len(buf) / B
	area := m.Arr.Reserve(nbk)
	if err := m.Arr.WriteRange(area, 0, nbk, buf); err != nil {
		return File{}, err
	}
	return File{area: area, words: words}, nil
}

// runReader streams one sorted run, refilling a stripe (D blocks) per
// parallel read operation. Records may straddle block boundaries, so
// a partial record tail is carried across refills.
type runReader struct {
	m      *Machine
	f      File
	buf    []uint64
	pos    int // next word within buf
	valid  int // valid words in buf
	blkOff int // next file block to read
	left   int // file words not yet buffered
}

func (m *Machine) newRunReader(f File, w int) *runReader {
	db := m.Arr.Config().D * m.Arr.Config().B
	return &runReader{m: m, f: f, buf: make([]uint64, db+w), left: f.words}
}

// next returns the next record (aliasing an internal buffer, valid
// until the following call) or nil at end of run.
func (r *runReader) next(w int) ([]uint64, error) {
	if r.valid-r.pos < w {
		// Carry the partial tail, then refill with one stripe.
		rem := r.valid - r.pos
		copy(r.buf, r.buf[r.pos:r.valid])
		r.pos, r.valid = 0, rem
		if r.left > 0 {
			B := r.m.Arr.Config().B
			db := len(r.buf) - w
			nb := db / B
			if maxBlk := (r.f.words + B - 1) / B; r.blkOff+nb > maxBlk {
				nb = maxBlk - r.blkOff
			}
			if err := r.m.Arr.ReadRange(r.f.area, r.blkOff, r.blkOff+nb, r.buf[rem:rem+nb*B]); err != nil {
				return nil, err
			}
			r.blkOff += nb
			got := nb * B
			if got > r.left {
				got = r.left
			}
			r.valid += got
			r.left -= got
		}
		if r.valid-r.pos < w {
			return nil, nil
		}
	}
	rec := r.buf[r.pos : r.pos+w]
	r.pos += w
	return rec, nil
}

// mergeRuns merges sorted runs into one sorted run.
func (m *Machine) mergeRuns(runs []File, w int) (File, error) {
	B := m.Arr.Config().B
	db := m.Arr.Config().D * B
	total := 0
	for _, r := range runs {
		total += r.words
	}
	nbk := (total + B - 1) / B
	out := m.Arr.Reserve(nbk)

	grab := int64((len(runs) + 1) * db)
	if err := m.Acct.Grab(grab); err != nil {
		return File{}, err
	}
	defer m.Acct.Release(grab)

	// The heap of run heads: each entry is a copy of its run's head
	// followed by the run's index, and the heap keys on all w+1 words,
	// so ties go to the lower run.
	readers := make([]*runReader, len(runs))
	slab := make([]uint64, len(runs)*(w+1))
	h := make([][]uint64, 0, len(runs))
	for i, r := range runs {
		readers[i] = m.newRunReader(r, w)
		head, err := readers[i].next(w)
		if err != nil {
			return File{}, err
		}
		if head != nil {
			e := slab[i*(w+1) : (i+1)*(w+1)]
			copy(e, head)
			e[w] = uint64(i)
			h = append(h, e)
		}
	}
	cgm.InitHeap(h, w+1)

	// Output double buffer: flush whole blocks, carrying the partial
	// tail so the written word stream stays contiguous.
	outBuf := make([]uint64, db+w)
	outPos := 0
	outBlk := 0
	flushFull := func() error {
		nb := outPos / B
		if nb == 0 {
			return nil
		}
		if err := m.Arr.WriteRange(out, outBlk, outBlk+nb, outBuf[:nb*B]); err != nil {
			return err
		}
		outBlk += nb
		copy(outBuf, outBuf[nb*B:outPos])
		outPos -= nb * B
		return nil
	}
	for len(h) > 0 {
		e := h[0]
		copy(outBuf[outPos:], e[:w])
		outPos += w
		if outPos+w > len(outBuf) {
			if err := flushFull(); err != nil {
				return File{}, err
			}
		}
		head, err := readers[e[w]].next(w)
		if err != nil {
			return File{}, err
		}
		if head == nil {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			copy(e, head)
		}
		cgm.SiftDown(h, w+1, 0)
	}
	if outPos > 0 {
		clear(outBuf[outPos : (outPos+B-1)/B*B])
		nb := (outPos + B - 1) / B
		if err := m.Arr.WriteRange(out, outBlk, outBlk+nb, outBuf[:nb*B]); err != nil {
			return File{}, err
		}
	}
	return File{area: out, words: total}, nil
}
