package embsp_test

// One Go benchmark per reproduction experiment: every Table 1 row,
// Figure 2, the lemma validations and the scaling sweeps. Each bench
// runs its experiment at Small scale (the experiments verify their
// outputs against the in-memory reference internally, so the measured
// time covers verified end-to-end runs). Run the same experiments at
// larger scales with cmd/embsp-bench.

import (
	"io"
	"testing"

	"embsp/internal/bench"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, bench.Small); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 1, Group A.
func BenchmarkTable1Sorting(b *testing.B)     { benchExperiment(b, "table1/sorting") }
func BenchmarkTable1Permutation(b *testing.B) { benchExperiment(b, "table1/permutation") }
func BenchmarkTable1Transpose(b *testing.B)   { benchExperiment(b, "table1/transpose") }

// Table 1, Group B.
func BenchmarkTable1Hull(b *testing.B)         { benchExperiment(b, "table1/hull2d") }
func BenchmarkTable1Maxima(b *testing.B)       { benchExperiment(b, "table1/maxima3d") }
func BenchmarkTable1Dominance(b *testing.B)    { benchExperiment(b, "table1/dominance") }
func BenchmarkTable1RectUnion(b *testing.B)    { benchExperiment(b, "table1/rectunion") }
func BenchmarkTable1Envelope(b *testing.B)     { benchExperiment(b, "table1/envelope") }
func BenchmarkTable1GenEnvelope(b *testing.B)  { benchExperiment(b, "table1/genenvelope") }
func BenchmarkTable1SegTree(b *testing.B)      { benchExperiment(b, "table1/segtree") }
func BenchmarkTable1NextElem(b *testing.B)     { benchExperiment(b, "table1/nextelem") }
func BenchmarkTable1NN(b *testing.B)           { benchExperiment(b, "table1/nn2d") }
func BenchmarkTable1Separability(b *testing.B) { benchExperiment(b, "table1/separability") }

// Table 1, Group C.
func BenchmarkTable1ListRank(b *testing.B)  { benchExperiment(b, "table1/listrank") }
func BenchmarkTable1Euler(b *testing.B)     { benchExperiment(b, "table1/eulertour") }
func BenchmarkTable1CC(b *testing.B)        { benchExperiment(b, "table1/cc") }
func BenchmarkTable1LCA(b *testing.B)       { benchExperiment(b, "table1/lca") }
func BenchmarkTable1ExprTree(b *testing.B)  { benchExperiment(b, "table1/exprtree") }
func BenchmarkTable1BiCC(b *testing.B)      { benchExperiment(b, "table1/bicc") }
func BenchmarkTable1EarDecomp(b *testing.B) { benchExperiment(b, "table1/eardecomp") }

// Figure 2 and the lemma-level claims.
func BenchmarkFig2Routing(b *testing.B)   { benchExperiment(b, "fig2/layout") }
func BenchmarkLemma2Balance(b *testing.B) { benchExperiment(b, "lemma2/balance") }
func BenchmarkLemma10(b *testing.B)       { benchExperiment(b, "lemma10/balls") }
func BenchmarkLemma5(b *testing.B)        { benchExperiment(b, "lemma5/concentration") }

// Scaling and optimality claims.
func BenchmarkScaleDisks(b *testing.B)    { benchExperiment(b, "scale/disks") }
func BenchmarkScaleProcs(b *testing.B)    { benchExperiment(b, "scale/procs") }
func BenchmarkScaleBlocking(b *testing.B) { benchExperiment(b, "scale/blocking") }
func BenchmarkScaleMemory(b *testing.B)   { benchExperiment(b, "scale/memory") }
func BenchmarkScaleSlack(b *testing.B)    { benchExperiment(b, "scale/slack") }
func BenchmarkCOptimality(b *testing.B)   { benchExperiment(b, "copt/ratio") }
func BenchmarkObs1(b *testing.B)          { benchExperiment(b, "obs1/cgm") }
