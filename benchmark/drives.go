package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"embsp"
	"embsp/internal/cluster"
	"embsp/internal/disk"
	"embsp/internal/journal"
	"embsp/internal/mem"
	"embsp/internal/obs"
	"embsp/internal/prng"
	"embsp/internal/redundancy"
	"embsp/internal/workload"
)

// runDrives runs the layer drives: fixed, seed-deterministic loops over
// each layer's public functions, timed from outside. They are the same on
// every workload's traced run. A drive that fails is tallied like any
// verified operation and its metrics read 0.
func runDrives(e *env) map[string]float64 {
	v := make(map[string]float64)
	root := e.rec.start(-1, "drives")
	defer e.rec.end(root)
	drive := func(name string, f func() error) {
		sp := e.rec.start(root, "drive/"+name)
		err := f()
		e.rec.end(sp)
		e.check(err == nil, "drive %s: %v", name, err)
	}
	v["host.sleep_1ms_actual_ms"] = sleepActualMS(e.pick(50, 10))

	cfg := disk.Config{D: 4, B: 512}
	tracks := e.pick(4096, 256)
	for _, b := range []struct {
		name string
		open func(dir string) (disk.Backend, error)
	}{
		{"array", func(string) (disk.Backend, error) { return disk.NewArray(cfg) }},
		// The synchronous file store: with no I/O workers every transfer
		// happens inside the call, so the per-track times are the codec,
		// checksum and pread/pwrite and not a queue hand-off.
		{"file", func(dir string) (disk.Backend, error) { return disk.OpenFile(dir, cfg, false) }},
		{"mapped", func(dir string) (disk.Backend, error) {
			return disk.OpenMapped(dir, cfg, false, disk.MappedOptions{})
		}},
		{"tier", func(dir string) (disk.Backend, error) {
			f, err := disk.OpenFile(dir, cfg, false)
			if err != nil {
				return nil, err
			}
			return disk.NewTier(f, disk.TierOptions{}), nil
		}},
	} {
		if b.name == "mapped" && !disk.MmapSupported() {
			continue // reported as skipped in the header; never measured on the file store
		}
		drive("disk."+b.name, func() error { return driveBackend(e, v, "disk."+b.name, tracks, b.open) })
	}
	drive("disk.checksum", func() error {
		ws := make([]uint64, 1<<16)
		r := prng.New(e.seed)
		for i := range ws {
			ws[i] = r.Uint64()
		}
		reps := e.pick(64, 4)
		var sink uint64
		t, _ := clocked(func() error {
			for i := 0; i < reps; i++ {
				sink ^= disk.Checksum(ws)
			}
			return nil
		})
		if sink == 1 {
			return fmt.Errorf("impossible checksum") // keeps the loop live
		}
		v["disk.checksum_ns_per_word"] = t.wall * 1e9 / float64(reps*len(ws))
		return nil
	})
	drive("journal", func() error { return driveJournal(e, v) })
	drive("redundancy", func() error { return driveRedundancy(e, v, tracks) })
	drive("pdm", func() error { return drivePDM(e, v) })
	drive("cluster.link", func() error { return driveLink(e, v) })
	drive("mem", func() error {
		a := mem.NewAccountant(1 << 40)
		const reps = 1 << 16
		t, err := clocked(func() error {
			for i := 0; i < reps; i++ {
				if err := a.Grab(512); err != nil {
					return err
				}
				a.Release(512)
			}
			return nil
		})
		v["mem.grab_release_ns"] = t.wall * 1e9 / reps
		return err
	})
	drive("obs", func() error {
		const reps = 1 << 16
		for name, tr := range map[string]*obs.Tracer{"obs.span_ns": obs.New(), "obs.nil_span_ns": nil} {
			t, _ := clocked(func() error {
				for i := 0; i < reps; i++ {
					tr.Begin(obs.CatEngine, "drive", 0, 0).End()
				}
				return nil
			})
			v[name] = t.wall * 1e9 / reps
		}
		return nil
	})
	return v
}

// driveBackend writes tracks full stripes, syncs, reads them back, releases
// them and closes. Reads and writes are timed apart on purpose: a write-path
// gain that costs reads shows.
func driveBackend(e *env, v map[string]float64, name string, tracks int, open func(dir string) (disk.Backend, error)) error {
	dir, err := e.freshDir("drive")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	be, err := open(dir)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			be.Close() //nolint:errcheck // an earlier error is being returned
		}
	}()
	cfg := be.Config()
	stripes := tracks / cfg.D
	r := prng.New(e.seed)
	bufs := make([][]uint64, cfg.D)
	for d := range bufs {
		bufs[d] = make([]uint64, cfg.B)
		for i := range bufs[d] {
			bufs[d][i] = r.Uint64()
		}
	}
	at := make([][]int, stripes)
	for s := range at {
		at[s] = make([]int, cfg.D)
		for d := range at[s] {
			at[s][d] = be.Alloc(d)
		}
	}
	wr, err := clocked(func() error {
		reqs := make([]disk.WriteReq, cfg.D)
		for s := range at {
			for d := range reqs {
				bufs[d][0] = uint64(s) // every stripe differs
				reqs[d] = disk.WriteReq{Disk: d, Track: at[s][d], Src: bufs[d]}
			}
			if err := be.WriteOp(reqs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	sy, err := clocked(be.Sync)
	if err != nil {
		return err
	}
	rd, err := clocked(func() error {
		reqs := make([]disk.ReadReq, cfg.D)
		for s := range at {
			for d := range reqs {
				reqs[d] = disk.ReadReq{Disk: d, Track: at[s][d], Dst: bufs[d]}
			}
			if err := be.ReadOp(reqs); err != nil {
				return err
			}
			if bufs[0][0] != uint64(s) {
				return fmt.Errorf("stripe %d read back as %d", s, bufs[0][0])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ops := be.Stats().Ops
	for s := range at {
		for d, t := range at[s] {
			if err := be.Release(d, t); err != nil {
				return err
			}
		}
	}
	closed = true
	if err := be.Close(); err != nil {
		return err
	}
	n := float64(stripes * cfg.D)
	v[name+".write_us_per_track"] = wr.wall * 1e6 / n
	v[name+".read_us_per_track"] = rd.wall * 1e6 / n
	v[name+".sync_ms"] = sy.wall * 1e3
	v[name+".ops"] = float64(ops)
	return nil
}

// driveJournal appends 64 records of a 4096-word payload to a fresh journal.
func driveJournal(e *env, v map[string]float64) error {
	dir, err := e.freshDir("journal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := journal.Create(dir)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			j.Close() //nolint:errcheck // an earlier error is being returned
		}
	}()
	payload := make([]uint64, 4096)
	r := prng.New(e.seed)
	for i := range payload {
		payload[i] = r.Uint64()
	}
	n := e.pick(64, 8)
	xs := make([]float64, n)
	for i := range xs {
		t, err := clocked(func() error { return j.Append(payload) })
		if err != nil {
			return err
		}
		xs[i] = t.wall * 1e3
	}
	closed = true
	if err := j.Close(); err != nil {
		return err
	}
	info, err := os.Stat(filepath.Join(dir, "journal.wal"))
	if err != nil {
		return err
	}
	v["journal.append_ms"] = median(xs)
	v["journal.bytes_per_record"] = float64(info.Size()) / float64(n)
	return nil
}

// driveRedundancy writes tracks through the parity layer over an in-memory
// array and flushes (fresh stripes), then rewrites them and flushes again
// (read-modify-write parity updates).
func driveRedundancy(e *env, v map[string]float64, tracks int) error {
	arr, err := disk.NewArray(disk.Config{D: 4, B: 512})
	if err != nil {
		return err
	}
	s, err := redundancy.Wrap(arr)
	if err != nil {
		return err
	}
	cfg := s.Config()
	buf := make([]uint64, cfg.B)
	r := prng.New(e.seed)
	for i := range buf {
		buf[i] = r.Uint64()
	}
	// One track per operation on a rotating drive, so every stripe's
	// members are written apart, as the engines' scattered writes are.
	at := make([]disk.Addr, tracks)
	for i := range at {
		d := i % cfg.D
		at[i] = disk.Addr{Disk: d, Track: s.Alloc(d)}
	}
	pass := func() (timing, error) {
		return clocked(func() error {
			for i, a := range at {
				buf[0] = uint64(i)
				if err := s.WriteOp([]disk.WriteReq{{Disk: a.Disk, Track: a.Track, Src: buf}}); err != nil {
					return err
				}
			}
			return s.FlushParity()
		})
	}
	fresh, err := pass()
	if err != nil {
		return err
	}
	c := s.Counters()
	v["redundancy.parity_blocks_per_data_block"] = float64(c.ParityBlocks) / float64(c.StripedBlocks)
	rmw, err := pass()
	if err != nil {
		return err
	}
	v["redundancy.flush_us_per_track"] = fresh.wall * 1e6 / float64(tracks)
	v["redundancy.rmw_us_per_track"] = rmw.wall * 1e6 / float64(tracks)
	return nil
}

// drivePDM sorts sort_mem's keys with the classical PDM merge sort on
// sort_mem's machine — Table 1's "previous result" column — and sets the
// simulation's I/O count beside it. Both counts include staging the input
// onto the drives and reading the output back.
func drivePDM(e *env, v map[string]float64) error {
	c := sortCase(e, e.pick(65536, 1024), false)
	inst, err := c.spec.Build()
	if err != nil {
		return err
	}
	cfg := workload.Machine(inst.Program, c.p, c.d, c.b, c.mFactor, 1000)
	res, err := embsp.Run(inst.Program, cfg, embsp.Options{Seed: e.seed})
	if err != nil {
		return err
	}
	// The keys workload.Spec{Alg: "sort"} draws from this seed.
	keys := make([]uint64, c.spec.N)
	r := prng.New(e.seed)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	m, err := embsp.NewPDMMachine(max(cfg.M, 4*cfg.D*cfg.B), cfg.D, cfg.B)
	if err != nil {
		return err
	}
	var out []uint64
	t, err := clocked(func() error {
		f, err := m.WriteFile(keys)
		if err != nil {
			return err
		}
		sorted, err := m.MergeSort(f, 1)
		if err != nil {
			return err
		}
		out, err = m.ReadFile(sorted)
		return err
	})
	if err != nil {
		return err
	}
	for i := 1; i < len(out); i++ {
		if out[i-1] > out[i] {
			return fmt.Errorf("merge sort output not sorted at %d", i)
		}
	}
	if len(out) != len(keys) {
		return fmt.Errorf("merge sort returned %d of %d keys", len(out), len(keys))
	}
	ops := m.Arr.Stats().Ops
	em := res.EM
	v["pdm.mergesort_io_ops"] = float64(ops)
	v["pdm.mergesort_s"] = t.wall
	v["core.io_vs_pdm_x"] = float64(em.Setup.Ops+em.Run.Ops+em.Finish.Ops) / float64(ops)
	return nil
}

// driveLink makes stop-and-wait exchanges of a 256-word message between two
// cluster.Link ends over a loopback TCP pair.
func driveLink(e *env, v map[string]float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	acc := make(chan accepted, 1)
	go func() {
		conn, err := ln.Accept()
		acc <- accepted{conn, err}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	near := cluster.NewLink(conn, cluster.LinkConfig{Self: 0, Peer: 1, BackoffSeed: 1})
	defer near.Close()
	a := <-acc
	if a.err != nil {
		return a.err
	}
	far := cluster.NewLink(a.conn, cluster.LinkConfig{Self: 1, Peer: 0, BackoffSeed: 2})
	defer far.Close()

	n := e.pick(2000, 100)
	msg := make([]uint64, 256)
	echoed := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			m, err := far.Recv(10 * time.Second)
			if err == nil {
				err = far.Send(m)
			}
			if err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	t, err := clocked(func() error {
		for i := 0; i < n; i++ {
			msg[0] = uint64(i)
			if err := near.Send(msg); err != nil {
				return err
			}
			back, err := near.Recv(10 * time.Second)
			if err != nil {
				return err
			}
			if len(back) != len(msg) || back[0] != uint64(i) {
				return fmt.Errorf("exchange %d echoed wrongly", i)
			}
		}
		return nil
	})
	if err != nil {
		near.Close() // unblocks the echo side
		<-echoed
		return err
	}
	if err := <-echoed; err != nil {
		return err
	}
	v["cluster.link_rtt_us"] = t.wall * 1e6 / float64(n)
	v["cluster.link_mb_s"] = float64(2*n*len(msg)*8) / 1e6 / t.wall
	return nil
}
