package embsp_test

// Engine micro-benchmarks: raw simulator throughput, independent of
// the experiment harness. These measure the host cost of simulating
// EM behaviour (the model costs themselves are exact counters and do
// not vary).

import (
	"testing"

	"embsp"
	"embsp/internal/prng"
)

func sortWorkload(n, v int) embsp.Program {
	r := prng.New(99)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	p, err := embsp.NewSort(keys, 1, v)
	if err != nil {
		panic(err)
	}
	return p
}

func benchEngine(b *testing.B, procs int) {
	prog := sortWorkload(1<<15, 32)
	cfg := embsp.MachineConfig{
		P: procs, M: 6 * prog.MaxContextWords(), D: 4, B: 256, G: 1000,
		Cost: embsp.CostParams{GUnit: 1, GPkt: 256, Pkt: 256, L: 100},
	}
	b.ReportAllocs()
	b.SetBytes(8 << 15) // the sorted keys, in bytes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := embsp.Run(prog, cfg, embsp.Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.EM.Run.Ops), "io_ops")
	}
}

func BenchmarkEngineSeq(b *testing.B)  { benchEngine(b, 1) }
func BenchmarkEnginePar4(b *testing.B) { benchEngine(b, 4) }

// BenchmarkEngineSeqTraced is BenchmarkEngineSeq with a memory-only
// tracer and metrics registry attached. Compared against the untraced
// row it measures the observability overhead, which the nil-sink fast
// path is supposed to make the only cost tracing ever has.
func BenchmarkEngineSeqTraced(b *testing.B) {
	prog := sortWorkload(1<<15, 32)
	cfg := embsp.MachineConfig{
		P: 1, M: 6 * prog.MaxContextWords(), D: 4, B: 256, G: 1000,
		Cost: embsp.CostParams{GUnit: 1, GPkt: 256, Pkt: 256, L: 100},
	}
	b.ReportAllocs()
	b.SetBytes(8 << 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := embsp.NewTracer()
		reg := embsp.NewMetricsRegistry()
		tr.AttachRegistry(reg)
		if _, err := embsp.Run(prog, cfg, embsp.Options{Seed: uint64(i), Trace: tr, Metrics: reg}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineReference(b *testing.B) {
	prog := sortWorkload(1<<15, 32)
	b.ReportAllocs()
	b.SetBytes(8 << 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := embsp.RunReference(prog, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSK(b *testing.B) {
	prog := sortWorkload(1<<12, 16)
	b.ReportAllocs()
	b.SetBytes(8 << 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := embsp.RunSK(prog, 4, 256, embsp.SKOptions{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Disk.Ops), "io_ops")
	}
}

// TestLargeWorkloadEndToEnd is an opt-in stress test: a million-key
// sort through the sequential EM engine, verified sorted. Skipped
// under -short.
func TestLargeWorkloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("large workload skipped in -short mode")
	}
	prog := sortWorkload(1<<20, 64)
	cfg := embsp.MachineConfig{
		P: 1, M: 6 * prog.MaxContextWords(), D: 4, B: 1024, G: 1000,
		Cost: embsp.CostParams{GUnit: 1, GPkt: 1024, Pkt: 1024, L: 100},
	}
	res, err := embsp.Run(prog, cfg, embsp.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	out := prog.(*embsp.SortProgram).Output(res.VPs)
	if len(out) != 1<<20 {
		t.Fatalf("output has %d keys", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1] > out[i] {
			t.Fatalf("not sorted at %d", i)
		}
	}
	if u := res.EM.Run.Utilization(); u < 0.9 {
		t.Errorf("utilization %.2f at full scale, want >= 0.9", u)
	}
}
