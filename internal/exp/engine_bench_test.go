package exp

import (
	"testing"
	"time"
)

// Engine-throughput benchmarks: unlike the latency-bound pool benchmarks
// (which measure worker-pool overlap with a stub runner), these run the
// real single-threaded simulation engine on pinned cells and report the
// figures the CI regression gate tracks — ns per simulated task and the
// serial cell rate on a pinned mini-grid. ReportMetric overrides ns/op,
// so ompss-benchdiff gates directly on ns/simulated-task (ns/cell for
// the grid benchmark) against BENCH_baseline.json.

// engineHeavyCell is the pinned profiling cell: the heaviest registered
// workload (pbpi at quick size runs ~6.6k tasks through the versioning
// scheduler), so per-task engine costs dominate setup costs. The same
// spec is what `make profile` captures pprof profiles from.
func engineHeavyCell() RunSpec {
	return RunSpec{
		App: "pbpi-hyb", Size: SizeQuick, Scheduler: "versioning",
		SMPWorkers: 2, GPUs: 2, NoiseSigma: 0.05, Seed: 1,
	}
}

// BenchmarkEngineTaskNs reports ns per simulated task on the pinned
// heavy cell (as ns/op, for the bench-regression gate).
func BenchmarkEngineTaskNs(b *testing.B) {
	var tasks int64
	b.ReportAllocs()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		rr, err := Run(engineHeavyCell())
		if err != nil {
			b.Fatal(err)
		}
		tasks += int64(rr.Tasks)
	}
	elapsed := time.Since(start)
	if tasks > 0 {
		b.ReportMetric(float64(elapsed.Nanoseconds())/float64(tasks), "ns/op")
		b.ReportMetric(float64(tasks)/elapsed.Seconds(), "tasks/s")
	}
}

// BenchmarkEngineTaskNsNoChaos is the heavy cell with an explicitly
// empty chaos plan: the fault-injection axis must be free when unused.
// Pinned in BENCH_baseline.json at the same figure as the base
// benchmark — an empty plan short-circuits before parsing or arming, so
// any gap between the two is chaos-plumbing overhead on the hot path
// (and the allocation pin in alloc_test.go must also stay unchanged).
func BenchmarkEngineTaskNsNoChaos(b *testing.B) {
	spec := engineHeavyCell()
	spec.Chaos = ""
	var tasks int64
	b.ReportAllocs()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		rr, err := Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		tasks += int64(rr.Tasks)
	}
	elapsed := time.Since(start)
	if tasks > 0 {
		b.ReportMetric(float64(elapsed.Nanoseconds())/float64(tasks), "ns/op")
		b.ReportMetric(float64(tasks)/elapsed.Seconds(), "tasks/s")
	}
}

// BenchmarkEngineCellGrid reports ns per cell over the pinned acceptance
// grid, simulated serially (ns/op is ns/cell; cells/min is 6e10 divided
// by it). This is the campaign-facing figure: how fast one claimant
// retires sweep cells.
func BenchmarkEngineCellGrid(b *testing.B) { benchCells(b, benchGrid().Runs()) }

// benchCells simulates specs serially b.N times and reports ns per cell
// as ns/op, plus cells/min.
func benchCells(b *testing.B, specs []RunSpec) {
	var cells int64
	b.ReportAllocs()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := Run(s); err != nil {
				b.Fatal(err)
			}
		}
		cells += int64(len(specs))
	}
	elapsed := time.Since(start)
	if cells > 0 {
		b.ReportMetric(float64(elapsed.Nanoseconds())/float64(cells), "ns/op")
		b.ReportMetric(float64(cells)/elapsed.Minutes(), "cells/min")
	}
}

// engineBaselineCells are the pinned baseline-scheduler cells: paper-size
// matmul-hyb, whose main tile implementation is CUDA-only, under the
// central-queue policies bf and dep with 2 SMP workers and 1 GPU. The
// ready backlog grows to thousands of GPU tasks while the SMP workers
// keep asking for work, so every dispatch exercises the central queue —
// the path neither the versioning heavy cell nor the tiny grid reaches.
func engineBaselineCells() []RunSpec {
	var specs []RunSpec
	for _, s := range []string{"bf", "dep"} {
		specs = append(specs, RunSpec{
			App: "matmul-hyb", Size: SizeFull, Scheduler: s,
			SMPWorkers: 2, GPUs: 1, NoiseSigma: 0.05, Seed: 1,
		})
	}
	return specs
}

// BenchmarkEngineBaselineCell reports ns per cell over the pinned
// baseline-scheduler cells, simulated serially (as ns/op, for the
// bench-regression gate).
func BenchmarkEngineBaselineCell(b *testing.B) { benchCells(b, engineBaselineCells()) }

// BenchmarkEnginePaperMix runs the paper-mix grid serially: paper-size
// matmul-hyb and cholesky-potrf-hyb under the four compared policies,
// 2 SMP x {1, 2} GPUs, with and without a recovering GPU dropout, over
// four seeds (128 cells an op), reporting ns per cell. It is not gated;
// it is the profiling target for the Section V cells (see "Profiling
// the engine" in README.md).
func BenchmarkEnginePaperMix(b *testing.B) {
	var specs []RunSpec
	for seed := int64(1); seed <= 4; seed++ {
		specs = append(specs, Grid{
			Apps:       []string{"matmul-hyb", "cholesky-potrf-hyb"},
			Schedulers: DefaultSchedulers(),
			SMPWorkers: []int{2},
			GPUs:       []int{1, 2},
			Chaos:      []string{"none", "gpu1:drop@40%+recover@70%"},
			Noise:      []float64{0.05},
			Size:       SizeFull,
			BaseSeed:   seed,
		}.Runs()...)
	}
	benchCells(b, specs)
}
