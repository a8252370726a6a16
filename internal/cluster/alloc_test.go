package cluster

import (
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/core"
	"embsp/internal/words"
)

// testBatch builds a batch of the given blocks of B words from its wire
// form, the only way a BlockBatch is made outside the engine.
func testBatch(blocks, B int) core.BlockBatch {
	enc := words.NewEncoder(nil)
	enc.PutInt(int64(blocks))
	for i := 0; i < blocks; i++ {
		enc.PutInts([]int64{1, 0, int64(i), int64(i)})
		enc.PutUint(uint64(B))
		enc.PutWords(payloadOf(B))
	}
	return core.DecodeBlockBatch(words.NewDecoder(enc.Words()))
}

// TestEncodeExactFit: the messages that carry blocks are sized before
// they are encoded, so a fresh encoder's one buffer is exactly their
// length (Size and the codec agree), and a kept one grows no further.
func TestEncodeExactFit(t *testing.T) {
	in := []core.BlockBatch{testBatch(3, 8), {}, testBatch(1, 8)}
	bo := &core.BatchOut{Scatter: in, Pkts: []int64{1, 2, 3}, Wrds: []int64{4, 5, 6}}
	report := &core.NodeReport{Lo: 2, Hi: 4, Ctx: [][]uint64{{1, 2}, {}}}
	for name, encode := range map[string]func(*words.Encoder) []uint64{
		"WRITE":       func(enc *words.Encoder) []uint64 { return encodeWriteReq(enc, 1, 2, in) },
		"COMPUTE_OUT": func(enc *words.Encoder) []uint64 { return encodeComputeOut(enc, bo) },
		"FINAL_OUT":   func(enc *words.Encoder) []uint64 { return encodeFinalOut(enc, report) },
	} {
		var enc words.Encoder
		msg := encode(&enc)
		if len(msg) != cap(msg) {
			t.Errorf("%s: %d words in a buffer of %d: its size was not reserved exactly", name, len(msg), cap(msg))
		}
		if again := encode(&enc); &again[0] != &msg[0] {
			t.Errorf("%s: a second encode of the same message reallocated", name)
		}
	}
}

// TestLinkSteadyStateAllocs: once a link pair has carried two messages
// each way, a round trip of a W-word batch message — sent, relayed back
// as the coordinator relays a column, received — allocates no payload and
// next to nothing beside: the senders encode into memory they keep,
// frames stream through fixed chunks, each link reads into the two
// payloads it recycles (Link), the relay decodes into a decoder and a
// batch list it keeps, and the decoded batches alias the payload they
// came in. A hop that allocated its payload would cost the W words, 33
// KiB here.
func TestLinkSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const blocks, B, warm, rounds = 16, 256, 2, 20
	batch := []core.BlockBatch{testBatch(blocks, B)}
	a, b := linkPair(t)
	relayed := make(chan error, 1)
	go func() {
		var enc words.Encoder
		var dec words.Decoder
		var in []core.BlockBatch
		for i := 0; i < warm+rounds; i++ {
			msg, err := b.Recv(time.Minute)
			if err == nil {
				if err = expect(&dec, msg, msgWrite); err == nil {
					dec.Ints()
					in = decodeBatches(&dec, in)
					err = b.Send(encodeWriteReq(&enc, 0, 0, in))
				}
			}
			if err != nil {
				relayed <- err
				return
			}
		}
		relayed <- nil
	}()
	var enc words.Encoder
	var W int
	roundTrip := func() {
		msg := encodeWriteReq(&enc, 0, 0, batch)
		W = len(msg)
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
		back, err := a.Recv(time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != W {
			t.Fatalf("relayed message is %d words, sent %d", len(back), W)
		}
	}
	for i := 0; i < warm; i++ {
		roundTrip() // encoders, decoders and both payloads of each link grow to the message
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	if err := <-relayed; err != nil {
		t.Fatal(err)
	}
	perHop := float64(after.TotalAlloc-before.TotalAlloc) / (2 * rounds)
	objects := float64(after.Mallocs-before.Mallocs) / (2 * rounds)
	// Bytes and objects a hop may allocate: what the runtime's own
	// bookkeeping for the goroutines parked and woken at each hop adds,
	// and nothing the size of a message.
	const slack, maxObjects = 1024, 8
	t.Logf("%d-word message: %.0f bytes (%.1f objects) a hop", W, perHop, objects)
	if perHop > slack {
		t.Errorf("a hop allocates %.0f bytes, want at most %d: a received payload is recycled", perHop, slack)
	}
	if objects > maxObjects {
		t.Errorf("a hop allocates %.1f objects, want at most %d", objects, maxObjects)
	}
}

// loopbackRun runs prog on a coordinator and cfg.P workers over loopback
// TCP, with the workers' and the coordinator's directories under root.
// open, when set, is handed each worker before it dials.
func loopbackRun(t *testing.T, prog bsp.Program, cfg core.MachineConfig, opts core.Options, root string, open func(w *Worker)) (*core.Result, error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < cfg.P; i++ {
		w := &Worker{Prog: prog, Cfg: cfg, Opts: opts, NodeID: i, Dir: filepath.Join(root, fmt.Sprintf("node-%d", i))}
		if open != nil {
			open(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ln.Addr().String(), false, LinkConfig{Self: i, Peer: cfg.P}) //nolint:errcheck // the coordinator's result is what is checked
		}()
	}
	res, err := Run(Config{Prog: prog, Cfg: cfg, Opts: opts, Dir: filepath.Join(root, "coord"), Listener: ln})
	wg.Wait()
	return res, err
}

// clusterSteadyAllocs returns what one steady-state superstep of prog(rounds)
// allocates when a coordinator and P workers run it over loopback TCP, in
// bytes and objects, for the whole process: the difference of two runs
// that differ only in their number of supersteps, so set-up, handshake,
// warm-up and shutdown cancel; a first run, not counted, takes the
// process's one-time costs (the network poller's, the listener's). check
// verifies each run's result.
func clusterSteadyAllocs(t *testing.T, cfg core.MachineConfig, opts core.Options, prog func(rounds int) bsp.Program, check func(rounds int, res *core.Result)) (bytes, objs int64) {
	t.Helper()
	const short, long = 4, 12
	run := func(rounds int) (bytes, mallocs int64) {
		p, root := prog(rounds), t.TempDir()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := loopbackRun(t, p, cfg, opts, root, nil)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatalf("rounds=%d: %v", rounds, err)
		}
		check(rounds, res)
		return int64(m1.TotalAlloc - m0.TotalAlloc), int64(m1.Mallocs - m0.Mallocs)
	}
	run(short)
	b0, n0 := run(short)
	b1, n1 := run(long)
	return (b1 - b0) / (long - short), (n1 - n0) / (long - short)
}

// TestClusterSteadyStateAllocs is the cluster's allocation gate, the
// program and machine of core's TestSteadyStateAllocs run by a coordinator
// and two workers over loopback: once warm, a superstep's messages are
// encoded into memory their senders keep, received into the link's
// recycled payloads, decoded into lists the coordinator keeps and fanned
// out by goroutines that live for the run, and each worker's durable
// barrier reuses its memory.
func TestClusterSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const P, v, fan, ctxWords = 2, 64, 4, 512
	cfg := core.MachineConfig{
		P: P, M: 8 * ctxWords, D: 4, B: 256, G: 1,
		Cost: bsp.CostParams{GUnit: 1, GPkt: 1, Pkt: 256, L: 1},
	}
	perStep, objs := clusterSteadyAllocs(t, cfg, core.Options{Seed: 1},
		func(rounds int) bsp.Program { return bsptest.NewStaticProgram(v, rounds, fan, ctxWords) },
		func(rounds int, res *core.Result) {
			for id, vp := range res.VPs {
				want := uint64(0)
				for f := 1; f <= fan; f++ {
					want += uint64(rounds * ((id - f + v) % v))
				}
				if got := bsptest.StaticAcc(vp); got != want {
					t.Fatalf("rounds=%d VP %d: acc = %d, want %d", rounds, id, got, want)
				}
			}
		})
	// With a goroutine, a closure, a WaitGroup and reply and error lists
	// per fan-out, a timer per Recv, a payload per frame, a decoder per
	// reply and fresh lists for every COMPUTE_OUT and SUM_OUT, and the
	// workers' durable barriers allocating, a superstep allocated 36–39
	// KB and 448–455 objects. Now 1.7–2.8 KB and 23–28, of which the
	// standard library's os.OpenFile and os.Rename take seven at each of
	// the three journals' barriers (DESIGN.md §19). The ceilings are
	// about two and a half and six times that.
	const maxBytes, maxObjs = 16 << 10, 64
	t.Logf("P=%d: %d bytes and %d objects per superstep", P, perStep, objs)
	if perStep > maxBytes {
		t.Errorf("P=%d: %d bytes allocated per steady-state superstep, want at most %d", P, perStep, maxBytes)
	}
	if objs > maxObjs {
		t.Errorf("P=%d: %d objects allocated per steady-state superstep, want at most %d", P, objs, maxObjs)
	}
}
