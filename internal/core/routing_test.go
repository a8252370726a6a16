package core

import (
	"testing"
	"testing/quick"

	"embsp/internal/disk"
	"embsp/internal/mem"
	"embsp/internal/obs"
	"embsp/internal/prng"
)

// TestRoutingInvariants checks Definition 2 (standard consecutive
// format) and data conservation on the output of simulateRouting, for
// random traffic patterns and machine shapes.
func TestRoutingInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := prng.New(seed)
		d := r.Intn(6) + 1
		b := 8 + r.Intn(8)
		v := r.Intn(20) + 1
		k := r.Intn(v) + 1
		nBlocks := r.Intn(100)

		arr := disk.MustNewArray(disk.Config{D: d, B: b})
		acct := mem.NewAccountant(0)
		dir := newOutDirectory(d, d)
		var bufs stepBufs
		writer := newBlockWriter(arr, dir,
			func(m blockMeta) int { return bucketOf(m.dst, v, d) },
			r, false, nil, &bufs)

		// Random blocks with a payload checksum derived from their
		// identity, so reads can be validated.
		img := make([]uint64, b)
		type key struct{ dst, src, seq int }
		expected := make(map[key]bool)
		for i := 0; i < nBlocks; i++ {
			m := blockMeta{dst: r.Intn(v), src: r.Intn(v), seq: i}
			img[0], img[1], img[2], img[3], img[4] = uint64(m.dst), uint64(m.src), uint64(m.seq), 0, 1
			img[5] = prng.Derive(seed, uint64(m.dst), uint64(m.seq))
			if err := writer.add(m, img); err != nil {
				return false
			}
			expected[key{m.dst, m.src, m.seq}] = true
		}
		if err := writer.flush(); err != nil {
			return false
		}

		groups := (v + k - 1) / k
		route, err := simulateRouting(arr, acct, &bufs, dir, func(m blockMeta) int { return groupOf(m.dst, k) }, groups)
		if err != nil {
			return false
		}
		total := 0
		buf := make([]uint64, b)
		for g, regions := range route.regions {
			for _, reg := range regions {
				// Definition 2 within the region: any D consecutive
				// slots hit D distinct drives with per-drive
				// consecutive tracks.
				lastTrack := make(map[int]int)
				for i := reg.lo; i < reg.hi; i++ {
					ad := reg.area.Addr(i)
					if prev, ok := lastTrack[ad.Disk]; ok && ad.Track != prev+1 {
						return false
					}
					lastTrack[ad.Disk] = ad.Track
					// Block contents: right group, identity checksum.
					if err := arr.ReadOp([]disk.ReadReq{{Disk: ad.Disk, Track: ad.Track, Dst: buf}}); err != nil {
						return false
					}
					meta, _ := parseBlock(buf)
					if groupOf(meta.dst, k) != g {
						return false
					}
					if buf[5] != prng.Derive(seed, uint64(meta.dst), uint64(meta.seq)) {
						return false
					}
					if !expected[key{meta.dst, meta.src, meta.seq}] {
						return false
					}
					total++
				}
			}
		}
		return total == nBlocks && route.total == nBlocks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRoutingParallelism checks that for balanced traffic the
// reorganization stays close to full drive parallelism.
func TestRoutingParallelism(t *testing.T) {
	const d, b, v, k, perVP = 4, 16, 32, 8, 8
	arr := disk.MustNewArray(disk.Config{D: d, B: b})
	acct := mem.NewAccountant(0)
	dir := newOutDirectory(d, d)
	r := prng.New(7)
	var bufs stepBufs
	writer := newBlockWriter(arr, dir,
		func(m blockMeta) int { return bucketOf(m.dst, v, d) },
		r, false, nil, &bufs)
	img := make([]uint64, b)
	for c := 0; c < perVP; c++ {
		for dst := 0; dst < v; dst++ {
			img[0], img[1], img[2], img[3], img[4] = uint64(dst), uint64(c), uint64(c), 0, 0
			if err := writer.add(blockMeta{dst: dst, src: c, seq: c}, img); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := writer.flush(); err != nil {
		t.Fatal(err)
	}
	arr.ResetStats()
	route, err := simulateRouting(arr, acct, &bufs, dir, func(m blockMeta) int { return groupOf(m.dst, k) }, v/k)
	if err != nil {
		t.Fatal(err)
	}
	st := arr.Stats()
	util := float64(st.Blocks()) / float64(st.Ops*int64(d))
	if util < 0.7 {
		t.Errorf("routing utilization %.2f, want >= 0.7 for balanced traffic", util)
	}
	if route.stats.maxSkew > 3 {
		t.Errorf("bucket skew %.2f unexpectedly high", route.stats.maxSkew)
	}
}

func TestDemoRoutingRuns(t *testing.T) {
	var sink nopWriter
	tr := obs.New()
	if err := DemoRouting(&sink, tr, 8, 4, 8, 2, 2, 1); err != nil {
		t.Fatal(err)
	}
	if ph := tr.Phases(); len(ph) != 2 {
		t.Errorf("demo recorded %d phases, want write-msg and route: %+v", len(ph), ph)
	}
	if sink.n == 0 {
		t.Error("demo produced no output")
	}
}

type nopWriter struct{ n int }

func (w *nopWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
