package sigstream_test

// One benchmark per table/figure of the paper's evaluation. Each benchmark
// regenerates its figure at quick scale via the internal/exp harness and
// reports the headline metrics (LTC precision/ARE and the strongest
// baseline) as custom benchmark outputs, so
//
//	go test -bench=Fig -benchmem
//
// prints the whole evaluation. For paper-scale numbers use
// cmd/sigbench -scale paper. They sit in the external test package because
// internal/exp imports sigstream.

import (
	"strings"
	"testing"

	"sigstream/internal/exp"
)

// benchScale keeps each figure-benchmark iteration around a second.
var benchScale = exp.Scale{
	CAIDA: 150_000, Network: 150_000, Social: 150_000, Zipf: 150_000,
	Seed: 1, Quick: true,
}

// reportSeries attaches the mean of each series' metric to the benchmark.
func reportSeries(b *testing.B, r exp.Result, metric string) {
	b.Helper()
	type agg struct {
		sum float64
		n   int
	}
	byName := map[string]*agg{}
	for _, row := range r.Rows {
		if row.Metric != metric {
			continue
		}
		a := byName[row.Series]
		if a == nil {
			a = &agg{}
			byName[row.Series] = a
		}
		a.sum += row.Value
		a.n++
	}
	for name, a := range byName {
		// Benchmark metric units must not contain whitespace; series names
		// like "LTC 1:10" (Fig 14/15) get underscores.
		unit := strings.ReplaceAll(name, " ", "_") + "-" + metric
		b.ReportMetric(a.sum/float64(a.n), unit)
	}
}

func runFigure(b *testing.B, id, metric string) {
	b.Helper()
	e, ok := exp.Find(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	var last exp.Result
	for i := 0; i < b.N; i++ {
		last = e.Run(benchScale)
	}
	if metric != "" {
		reportSeries(b, last, metric)
	}
}

// BenchmarkFig06 regenerates Figure 6 (long-tail frequency distribution).
func BenchmarkFig06(b *testing.B) { runFigure(b, "6", "") }

// BenchmarkFig07a regenerates Figure 7(a) (correct-rate bound vs real).
func BenchmarkFig07a(b *testing.B) { runFigure(b, "7a", "correct-rate") }

// BenchmarkFig07b regenerates Figure 7(b) (error bound vs real).
func BenchmarkFig07b(b *testing.B) { runFigure(b, "7b", "error-rate") }

// BenchmarkFig08a regenerates Figure 8(a) (LTR ablation vs memory).
func BenchmarkFig08a(b *testing.B) { runFigure(b, "8a", "precision") }

// BenchmarkFig08b regenerates Figure 8(b) (LTR ablation vs α:β).
func BenchmarkFig08b(b *testing.B) { runFigure(b, "8b", "precision") }

// BenchmarkFig09 regenerates Figure 9(a–c) (frequent items, precision).
func BenchmarkFig09(b *testing.B) { runFigure(b, "9", "precision") }

// BenchmarkFig09d regenerates Figure 9(d) (frequent items, precision vs k).
func BenchmarkFig09d(b *testing.B) { runFigure(b, "9d", "precision") }

// BenchmarkFig10 regenerates Figure 10(a–c) (frequent items, ARE).
func BenchmarkFig10(b *testing.B) { runFigure(b, "10", "ARE") }

// BenchmarkFig10d regenerates Figure 10(d) (frequent items, ARE vs k).
func BenchmarkFig10d(b *testing.B) { runFigure(b, "10d", "ARE") }

// BenchmarkFig11 regenerates Figure 11 (Deviation Eliminator ablation).
func BenchmarkFig11(b *testing.B) { runFigure(b, "11", "precision") }

// BenchmarkFig12 regenerates Figure 12(a–c) (persistent items, precision).
func BenchmarkFig12(b *testing.B) { runFigure(b, "12", "precision") }

// BenchmarkFig12d regenerates Figure 12(d) (persistent items vs k).
func BenchmarkFig12d(b *testing.B) { runFigure(b, "12d", "precision") }

// BenchmarkFig13 regenerates Figure 13(a–c) (persistent items, ARE).
func BenchmarkFig13(b *testing.B) { runFigure(b, "13", "ARE") }

// BenchmarkFig13d regenerates Figure 13(d) (persistent items, ARE vs k).
func BenchmarkFig13d(b *testing.B) { runFigure(b, "13d", "ARE") }

// BenchmarkFig14 regenerates Figure 14 (significant items, precision).
func BenchmarkFig14(b *testing.B) { runFigure(b, "14", "precision") }

// BenchmarkFig15 regenerates Figure 15 (significant items, ARE).
func BenchmarkFig15(b *testing.B) { runFigure(b, "15", "ARE") }

// BenchmarkFigTput regenerates the throughput comparison.
func BenchmarkFigTput(b *testing.B) { runFigure(b, "tput", "Mops") }

// BenchmarkFigD regenerates the appendix bucket-width sweep.
func BenchmarkFigD(b *testing.B) { runFigure(b, "d", "precision") }

// BenchmarkFigPolicy regenerates the replacement-policy ablation.
func BenchmarkFigPolicy(b *testing.B) { runFigure(b, "policy", "ARE") }

// BenchmarkFigPeriods regenerates the appendix period-count sweep.
func BenchmarkFigPeriods(b *testing.B) { runFigure(b, "periods", "precision") }

// BenchmarkFigZipf regenerates the appendix Zipf-skew sweep.
func BenchmarkFigZipf(b *testing.B) { runFigure(b, "zipf", "precision") }

// BenchmarkFigExt regenerates the extensions regime-shift comparison.
func BenchmarkFigExt(b *testing.B) { runFigure(b, "ext", "recent-precision") }
