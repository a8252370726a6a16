package core

import (
	"fmt"
	"io"

	"embsp/internal/disk"
	"embsp/internal/mem"
	"embsp/internal/obs"
	"embsp/internal/prng"
)

// DemoRouting reproduces Figure 2 of the paper observably: it fills
// the writing-phase structures of one compound superstep with a
// synthetic all-to-all message pattern (every VP receives
// blocksPerVP blocks), prints the standard linked format (the
// per-drive bucket lists produced by the randomized writing phase),
// runs Algorithm 2 (SimulateRouting), and prints the resulting
// standard consecutive format, in which every group's blocks occupy
// consecutive tracks striped across all drives. tr (nil for none)
// records the demo's writing and routing phases as trace spans.
func DemoRouting(w io.Writer, tr *obs.Tracer, v, d, b, blocksPerVP, k int, seed uint64) error {
	cfg := disk.Config{D: d, B: b}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if b < headerWords+1 {
		return fmt.Errorf("core: B = %d too small for the block header", b)
	}
	if k < 1 || k > v {
		return fmt.Errorf("core: group size k = %d out of range [1, %d]", k, v)
	}
	arr := disk.MustNewArray(cfg)
	acct := mem.NewAccountant(0)
	groups := (v + k - 1) / k
	dir := newOutDirectory(groups, d)
	rng := prng.New(seed)
	var bufs stepBufs
	var writer blockWriter
	writer.init(arr, dir, nil, func(dst int) int { return groupOf(dst, k) }, rng, false, nil, &bufs)

	// Writing phase: every VP sends blocksPerVP single-block messages
	// to every... one block per (src, dst) round-robin pattern.
	spWrite := tr.Begin(obs.CatEngine, phWriteMsg, 0, 0)
	img := make([]uint64, b)
	for c := 0; c < blocksPerVP; c++ {
		for dst := 0; dst < v; dst++ {
			src := (dst + c) % v
			img[0], img[1], img[2], img[3], img[4] = uint64(dst), uint64(src), uint64(c), 0, uint64(b-headerWords)
			for i := headerWords; i < b; i++ {
				img[i] = rng.Uint64()
			}
			if err := writer.add(blockMeta{dst: dst, src: src, seq: c}, img); err != nil {
				return err
			}
		}
	}
	if err := writer.flush(); err != nil {
		return err
	}
	spWrite.End()

	fmt.Fprintf(w, "Figure 2 demo: v=%d VPs, D=%d drives, B=%d words, %d blocks per VP, groups of k=%d\n\n", v, d, b, blocksPerVP, k)
	fmt.Fprintln(w, "Standard linked format after the randomized writing phase")
	fmt.Fprintln(w, "(group lists per drive; entry = dst VP of the block):")
	for drive := 0; drive < d; drive++ {
		fmt.Fprintf(w, "  drive %d:", drive)
		for g := range dir.q {
			refs := dir.q[g][drive]
			if len(refs) == 0 {
				continue
			}
			fmt.Fprintf(w, "  group %d ->", g)
			for _, ref := range refs {
				fmt.Fprintf(w, " %d", ref.meta.dst)
			}
		}
		fmt.Fprintln(w)
	}

	before := arr.Stats()
	spRoute := tr.Begin(obs.CatEngine, phRoute, 0, 0)
	route, err := simulateRouting(arr, acct, dir)
	spRoute.End()
	if err != nil {
		return err
	}
	after := arr.Stats()

	fmt.Fprintln(w, "\nStandard consecutive format after SimulateRouting")
	fmt.Fprintln(w, "(per group: block slots with their physical (drive, track) addresses):")
	for g, regions := range route.regions {
		fmt.Fprintf(w, "  group %d (VPs %d..%d):", g, g*k, minDemo((g+1)*k, v)-1)
		for _, reg := range regions {
			for i := reg.lo; i < reg.hi; i++ {
				ad := reg.area.Addr(i)
				fmt.Fprintf(w, " (d%d,t%d)", ad.Disk, ad.Track)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nrouting I/O: %d parallel operations for %d blocks (utilization %.2f)\n",
		after.Ops-before.Ops, route.total, float64(after.Blocks()-before.Blocks())/float64((after.Ops-before.Ops)*int64(d)))
	fmt.Fprintf(w, "max bucket skew (Lemma 2's l): %.2f; ragged slots (paper: dummy blocks): %d\n",
		route.stats.maxSkew, route.stats.ragged)
	return nil
}

func minDemo(a, b int) int {
	if a < b {
		return a
	}
	return b
}
