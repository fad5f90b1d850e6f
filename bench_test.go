package origin2000

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md section 4 maps each to its experiment). Benchmarks
// run at a reduced scale — problem sizes and the 4MB cache divided by the
// same factor, preserving working-set-to-cache ratios — so a full
// `go test -bench=. -benchmem` completes in minutes. Use
// `origin experiments -full` for paper-scale runs.

import (
	"io"
	"os"
	"testing"

	"origin2000/internal/experiments"
)

// benchOut streams experiment tables to stdout when ORIGIN_BENCH_VERBOSE
// is set; otherwise the output is discarded and only timings are reported.
func benchOut() io.Writer {
	if os.Getenv("ORIGIN_BENCH_VERBOSE") != "" {
		return os.Stdout
	}
	return io.Discard
}

// benchScale is the default reduction for the benchmark harness.
func benchScale() experiments.Scale {
	return experiments.Scale{Div: 16, CacheDiv: 16}
}

// sweepScale further trims the expensive size sweeps: the same size
// scaling but only the end-point machine sizes.
func sweepScale() experiments.Scale {
	return experiments.Scale{Div: 16, CacheDiv: 16, Procs: []int{32, 128}}
}

func runExperiment(b *testing.B, s experiments.Scale, name string) {
	b.Helper()
	w := benchOut()
	for i := 0; i < b.N; i++ {
		se := experiments.NewSession(s)
		if err := experiments.Run(name, se, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Latency regenerates Table 1 (machine latency comparison).
func BenchmarkTable1Latency(b *testing.B) { runExperiment(b, benchScale(), "table1") }

// BenchmarkTable2Sequential regenerates Table 2 (basic sizes, sequential times).
func BenchmarkTable2Sequential(b *testing.B) { runExperiment(b, benchScale(), "table2") }

// BenchmarkFigure2Speedups regenerates Figure 2 (speedups for basic sizes).
func BenchmarkFigure2Speedups(b *testing.B) { runExperiment(b, benchScale(), "fig2") }

// BenchmarkFigure3Breakdown regenerates Figure 3 (128-processor breakdowns).
func BenchmarkFigure3Breakdown(b *testing.B) { runExperiment(b, benchScale(), "fig3") }

// BenchmarkFigure4ProblemSize regenerates Figure 4 (efficiency vs size).
func BenchmarkFigure4ProblemSize(b *testing.B) { runExperiment(b, sweepScale(), "fig4") }

// BenchmarkFigure5to8Breakdowns regenerates the per-processor breakdown
// continua for Water-Spatial, FFT, Shear-Warp and Raytrace.
func BenchmarkFigure5to8Breakdowns(b *testing.B) { runExperiment(b, benchScale(), "fig5-8") }

// BenchmarkFigure9Restructured regenerates Figure 9 (restructured vs original).
func BenchmarkFigure9Restructured(b *testing.B) { runExperiment(b, sweepScale(), "fig9") }

// BenchmarkFigure10Restructured regenerates Figure 10 (breakdown comparison).
func BenchmarkFigure10Restructured(b *testing.B) { runExperiment(b, sweepScale(), "fig10") }

// BenchmarkTable3Placement regenerates Table 3 (placement policies) and
// with it the Section 6.2 page-migration result.
func BenchmarkTable3Placement(b *testing.B) { runExperiment(b, benchScale(), "table3") }

// BenchmarkSec61Prefetch regenerates the Section 6.1 prefetching study.
func BenchmarkSec61Prefetch(b *testing.B) { runExperiment(b, benchScale(), "sec61") }

// BenchmarkSec63Synchronization regenerates the Section 6.3 study of
// barrier/lock algorithms and the at-memory fetch&op.
func BenchmarkSec63Synchronization(b *testing.B) { runExperiment(b, benchScale(), "sec63") }

// BenchmarkSec71Mapping regenerates the Section 7.1 topology-mapping study.
func BenchmarkSec71Mapping(b *testing.B) { runExperiment(b, sweepScale(), "sec71") }

// BenchmarkSec72ProcsPerNode regenerates the Section 7.2 study of one
// versus two processors per node.
func BenchmarkSec72ProcsPerNode(b *testing.B) { runExperiment(b, benchScale(), "sec72") }

// BenchmarkAblation quantifies the machine model's design choices:
// contention on/off, scheduler quantum, cache capacity.
func BenchmarkAblation(b *testing.B) { runExperiment(b, benchScale(), "ablation") }
