package pdm

import (
	"fmt"
	"slices"

	"embsp/internal/bsp"
	"embsp/internal/disk"
	"embsp/internal/words"
)

// SKSim simulates a BSP program one virtual processor at a time with
// a v×v on-disk mailbox matrix, in the style of Sibeyn and Kaufmann
// [26] (the concurrent simulation technique reviewed in Section 2.1):
// cell (i, j) holds the messages sent by VP i to VP j in the current
// superstep. The simulation is correct and simple, but — as the paper
// points out — it has no mechanism for the disk blocking factor or
// for multiple disks: every access moves one block per I/O operation,
// and fetching VP j's messages touches one cell per sender (an
// in-memory occupancy directory skips the empty ones). Run it
// next to core.Run on the same program to measure exactly the
// blocking/striping gap the paper's technique closes. It keeps bsp.Run's
// halt rule: a VP that votes halt sleeps, and a sleeper with no messages
// is neither read, stepped nor written.
type SKOptions struct {
	// Seed keys the program's Env.Rand streams (same convention as
	// the other engines, so results are comparable bit for bit).
	Seed uint64
}

// SKResult is the outcome of an SKSim run.
type SKResult struct {
	VPs        []bsp.VP
	Supersteps int
	Disk       disk.Stats
}

// SKSim executes the program on a D-disk array with block size b.
func SKSim(p bsp.Program, d, b int, opts SKOptions) (*SKResult, error) {
	if err := bsp.CheckProgram(p); err != nil {
		return nil, err
	}
	arr, err := disk.NewArray(disk.Config{D: d, B: b})
	if err != nil {
		return nil, err
	}
	v := p.NumVPs()
	mu := p.MaxContextWords()
	gamma := p.MaxCommWords()
	muBlocks := (mu + b - 1) / b
	// A cell stores one sender's traffic to one receiver: payload plus
	// 2 header words per message; 3γ words bound both.
	cellBlocks := (3*gamma+b-1)/b + 1

	ctxArea := arr.Reserve(v * muBlocks)
	// Double-buffered mailbox matrix: VPs simulated later in the same
	// superstep must still read the previous superstep's cells, so
	// writes go to the other matrix.
	var cells [2][]disk.Area
	for k := range cells {
		cells[k] = make([]disk.Area, v*v)
		for i := range cells[k] {
			cells[k][i] = arr.Reserve(cellBlocks)
		}
	}
	used := make([]int, v*v) // occupancy directory, in words

	// blockwise I/O: one block per operation — deliberately no
	// D-parallel batching, that is the point of this baseline.
	readWords := func(area disk.Area, nWords int, buf []uint64) error {
		for blk := 0; blk*b < nWords; blk++ {
			ad := area.Addr(blk)
			if err := arr.ReadOp([]disk.ReadReq{{Disk: ad.Disk, Track: ad.Track, Dst: buf[blk*b : (blk+1)*b]}}); err != nil {
				return err
			}
		}
		return nil
	}
	writeWords := func(area disk.Area, nWords int, buf []uint64) error {
		for blk := 0; blk*b < nWords; blk++ {
			ad := area.Addr(blk)
			if err := arr.WriteOp([]disk.WriteReq{{Disk: ad.Disk, Track: ad.Track, Src: buf[blk*b : (blk+1)*b]}}); err != nil {
				return err
			}
		}
		return nil
	}

	// Write initial contexts.
	ctxBuf := make([]uint64, muBlocks*b)
	enc := words.NewEncoder(nil)
	for id := 0; id < v; id++ {
		enc.Reset()
		p.NewVP(id).Save(enc)
		if enc.Len() > mu {
			return nil, fmt.Errorf("pdm: VP %d initial context exceeds µ", id)
		}
		clear(ctxBuf)
		copy(ctxBuf, enc.Words())
		sub := subArea(ctxArea, id*muBlocks, muBlocks)
		if err := writeWords(sub, muBlocks*b, ctxBuf); err != nil {
			return nil, err
		}
	}

	cellBuf := make([]uint64, cellBlocks*b)
	// One Env serves every VP: its send memory holds the current VP's
	// payloads, which go from there straight into the cell images.
	type sent struct {
		dst, seq int
		payload  []uint64
	}
	var env bsp.Env
	var outs []sent
	// One VP object serves every load, as an EM engine's slot does
	// (bsp.VP): NewVP makes it for the first VP loaded.
	var vp bsp.VP
	asleep := make([]bool, v)
	for step := 0; ; step++ {
		if step >= bsp.MaxSupersteps {
			return nil, fmt.Errorf("pdm: no convergence after %d supersteps", bsp.MaxSupersteps)
		}
		sleepers := 0
		sends := 0
		nextUsed := make([]int, v*v)
		for j := 0; j < v; j++ {
			// Fetch messages: one cell per sender.
			var inbox []bsp.Message
			for i := 0; i < v; i++ {
				w := used[i*v+j]
				if w == 0 {
					continue
				}
				if err := readWords(cells[step%2][i*v+j], w, cellBuf); err != nil {
					return nil, err
				}
				for off := 0; off < w; {
					seq := int(cellBuf[off])
					l := int(cellBuf[off+1])
					payload := make([]uint64, l)
					copy(payload, cellBuf[off+2:off+2+l])
					inbox = append(inbox, bsp.Message{Src: i, Dst: j, Seq: seq, Payload: payload})
					off += 2 + l
				}
			}
			if asleep[j] && len(inbox) == 0 {
				sleepers++
				continue
			}

			// Fetch context.
			sub := subArea(ctxArea, j*muBlocks, muBlocks)
			if err := readWords(sub, muBlocks*b, ctxBuf); err != nil {
				return nil, err
			}
			if vp == nil {
				vp = p.NewVP(j)
			}
			vp.Load(words.NewDecoder(ctxBuf))

			// Compute.
			outs = outs[:0]
			env.ClearSent()
			env.Reset(j, v, step, opts.Seed, func(dst int, payload []uint64) {
				outs = append(outs, sent{dst: dst, seq: len(outs), payload: payload})
			})
			halt, err := vp.Step(&env, inbox)
			if err != nil {
				return nil, fmt.Errorf("pdm: VP %d superstep %d: %w", j, step, err)
			}
			_, msgs, _ := env.SendTotals()
			sends += msgs
			asleep[j] = halt
			if halt {
				sleepers++
			}

			// Write generated messages to cells (j, d), in destination
			// order, each [seq, len, payload…] in send order.
			slices.SortStableFunc(outs, func(a, b sent) int { return a.dst - b.dst })
			for lo, hi := 0, 0; lo < len(outs); lo = hi {
				dIdx, n := outs[lo].dst, 0
				for hi = lo; hi < len(outs) && outs[hi].dst == dIdx; hi++ {
					n += 2 + len(outs[hi].payload)
				}
				if n > cellBlocks*b {
					return nil, fmt.Errorf("pdm: cell (%d,%d) overflow: %d words", j, dIdx, n)
				}
				clear(cellBuf[:((n+b-1)/b)*b])
				for at, m := 0, lo; m < hi; m++ {
					cellBuf[at], cellBuf[at+1] = uint64(outs[m].seq), uint64(len(outs[m].payload))
					at += 2 + copy(cellBuf[at+2:], outs[m].payload)
				}
				if err := writeWords(cells[(step+1)%2][j*v+dIdx], n, cellBuf); err != nil {
					return nil, err
				}
				nextUsed[j*v+dIdx] = n
			}

			// Write context back.
			enc.Reset()
			vp.Save(enc)
			if enc.Len() > mu {
				return nil, fmt.Errorf("pdm: VP %d context exceeds µ after superstep %d", j, step)
			}
			clear(ctxBuf)
			copy(ctxBuf, enc.Words())
			if err := writeWords(sub, muBlocks*b, ctxBuf); err != nil {
				return nil, err
			}
		}
		used = nextUsed
		if sleepers == v && sends == 0 {
			// Collect final VPs.
			vps := make([]bsp.VP, v)
			for id := 0; id < v; id++ {
				sub := subArea(ctxArea, id*muBlocks, muBlocks)
				if err := readWords(sub, muBlocks*b, ctxBuf); err != nil {
					return nil, err
				}
				vps[id] = p.NewVP(id)
				vps[id].Load(words.NewDecoder(ctxBuf))
			}
			return &SKResult{VPs: vps, Supersteps: step + 1, Disk: arr.Stats()}, nil
		}
	}
}

// subArea views a block range of an area as its own area-like
// accessor. The disk.Area type has no slicing, so we reconstruct
// addresses via the parent (blocks off..off+n-1).
func subArea(parent disk.Area, off, n int) disk.Area {
	return disk.Slice(parent, off, n)
}
