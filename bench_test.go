// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation under testing.B, one benchmark per artifact,
// each through the same harness.Run path as ompss-bench, plus ablation
// benchmarks for the scheduler's and runtime's design choices (learning
// threshold, prefetch/overlap, the future-work extensions).
//
//	go test -bench=. -benchmem                 # everything, quick sizes
//	go test -bench=BenchmarkFig6 -paper        # one figure at paper size
//
// Artifact benchmarks report the rendered row count; the ablations report
// GFLOP/s, simulated seconds or transferred gigabytes.
package repro

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/ompss"
)

var paperSizes = flag.Bool("paper", false, "run benchmarks at full paper sizes instead of quick sizes")

func opts() harness.Options {
	return harness.Options{Quick: !*paperSizes}
}

// benchExperiment resolves one harness experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	var reps []*harness.Report
	for i := 0; i < b.N; i++ {
		var err error
		reps, err = harness.Run([]harness.Experiment{e}, opts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if reps != nil {
		b.ReportMetric(float64(len(reps[0].Rows)), "rows")
	}
}

// BenchmarkTableI regenerates Table I (the TaskVersionSet structure).
func BenchmarkTableI(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig5Decision regenerates the Figure 5 earliest-executor
// scenario.
func BenchmarkFig5Decision(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6MatmulPerf regenerates Figure 6 (matmul GFLOP/s).
func BenchmarkFig6MatmulPerf(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7MatmulTransfers regenerates Figure 7 (matmul transfers).
func BenchmarkFig7MatmulTransfers(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8MatmulTaskStats regenerates Figure 8 (matmul version shares).
func BenchmarkFig8MatmulTaskStats(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9CholeskyPerf regenerates Figure 9 (Cholesky GFLOP/s).
func BenchmarkFig9CholeskyPerf(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10CholeskyTransfers regenerates Figure 10 (Cholesky transfers).
func BenchmarkFig10CholeskyTransfers(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11CholeskyTaskStats regenerates Figure 11 (potrf version shares).
func BenchmarkFig11CholeskyTaskStats(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12PBPIPerf regenerates Figure 12 (PBPI execution time).
func BenchmarkFig12PBPIPerf(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13PBPITransfers regenerates Figure 13 (PBPI transfers).
func BenchmarkFig13PBPITransfers(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14PBPILoop1Stats regenerates Figure 14 (first-loop shares).
func BenchmarkFig14PBPILoop1Stats(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15PBPILoop2Stats regenerates Figure 15 (second-loop shares).
func BenchmarkFig15PBPILoop2Stats(b *testing.B) { benchExperiment(b, "fig15") }

// --- Ablations: the design knobs of the scheduler and runtime ---

// BenchmarkAblationLambda sweeps the learning threshold on Cholesky,
// where the paper observes the learning phase hurting (few potrf
// instances).
func BenchmarkAblationLambda(b *testing.B) {
	for _, lambda := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("lambda=%d", lambda), func(b *testing.B) {
			var res ompss.Result
			for i := 0; i < b.N; i++ {
				r, err := ompss.NewRuntime(ompss.Config{
					Scheduler: "versioning", SMPWorkers: 8, GPUs: 2, Lambda: lambda,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := apps.BuildCholesky(r, apps.CholeskyConfig{N: 16384, Variant: apps.CholeskyPotrfHybrid}); err != nil {
					b.Fatal(err)
				}
				res = r.Execute()
			}
			b.ReportMetric(res.GFlops, "GFLOP/s")
		})
	}
}

// BenchmarkAblationPrefetch compares transfer/compute overlap on and off
// (the evaluation enables it for all schedulers; this shows why).
func BenchmarkAblationPrefetch(b *testing.B) {
	for _, prefetch := range []bool{true, false} {
		b.Run(fmt.Sprintf("prefetch=%v", prefetch), func(b *testing.B) {
			var res ompss.Result
			for i := 0; i < b.N; i++ {
				r, err := ompss.NewRuntime(ompss.Config{
					Scheduler: "dep", SMPWorkers: 1, GPUs: 2, NoPrefetch: !prefetch,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := apps.BuildMatmul(r, apps.MatmulConfig{N: 8192, Variant: apps.MatmulGPU}); err != nil {
					b.Fatal(err)
				}
				res = r.Execute()
			}
			b.ReportMetric(res.GFlops, "GFLOP/s")
		})
	}
}

// BenchmarkAblationLocality compares the paper-faithful versioning
// scheduler against the Section VII locality extension on Cholesky
// transfers.
func BenchmarkAblationLocality(b *testing.B) {
	for _, locality := range []bool{false, true} {
		b.Run(fmt.Sprintf("locality=%v", locality), func(b *testing.B) {
			var res ompss.Result
			for i := 0; i < b.N; i++ {
				r, err := ompss.NewRuntime(ompss.Config{
					Scheduler: "versioning", SMPWorkers: 8, GPUs: 2, LocalityAware: locality,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := apps.BuildCholesky(r, apps.CholeskyConfig{N: 16384, Variant: apps.CholeskyPotrfHybrid}); err != nil {
					b.Fatal(err)
				}
				res = r.Execute()
			}
			b.ReportMetric(float64(res.DeviceTxBytes)/1e9, "devGB")
			b.ReportMetric(res.GFlops, "GFLOP/s")
		})
	}
}

// BenchmarkAblationPotrfPriority compares Cholesky with and without the
// OmpSs priority clause on potrf. Section V-B2: potrf "acts like a
// bottleneck and if it is not run as soon as its data dependencies are
// satisfied, there is less parallelism to exploit".
func BenchmarkAblationPotrfPriority(b *testing.B) {
	for _, prio := range []bool{false, true} {
		b.Run(fmt.Sprintf("priority=%v", prio), func(b *testing.B) {
			var res ompss.Result
			for i := 0; i < b.N; i++ {
				r, err := ompss.NewRuntime(ompss.Config{
					Scheduler: "dep", SMPWorkers: 1, GPUs: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := apps.BuildCholesky(r, apps.CholeskyConfig{
					N: 16384, Variant: apps.CholeskyPotrfGPU, PotrfPriority: prio,
				}); err != nil {
					b.Fatal(err)
				}
				res = r.Execute()
			}
			b.ReportMetric(res.GFlops, "GFLOP/s")
		})
	}
}

// BenchmarkAblationHints compares a cold run against a hints-warmed run
// (Section VII external hints) on a serial chain, where learning cost is
// unhidden.
func BenchmarkAblationHints(b *testing.B) {
	dir := b.TempDir()
	hintsPath := dir + "/hints.xml"
	build := func(r *ompss.Runtime) {
		work := r.DeclareTaskType("kernel")
		work.AddVersion("kernel_gpu", ompss.CUDA, ompss.Throughput{GFlops: 300, Overhead: 20 * time.Microsecond}, nil)
		work.AddVersion("kernel_smp", ompss.SMP, ompss.Throughput{GFlops: 5}, nil)
		obj := r.Register("chain", 8<<20)
		r.Main(func(m *ompss.Master) {
			for i := 0; i < 50; i++ {
				m.Submit(work, []ompss.Access{ompss.InOut(obj)}, ompss.Work{Flops: 2e9}, nil)
			}
			m.Taskwait()
		})
	}
	// Produce the hints once.
	{
		r, err := ompss.NewRuntime(ompss.Config{SMPWorkers: 2, GPUs: 1})
		if err != nil {
			b.Fatal(err)
		}
		build(r)
		r.Execute()
		if err := r.SaveHints(hintsPath); err != nil {
			b.Fatal(err)
		}
	}
	for _, warm := range []bool{false, true} {
		b.Run(fmt.Sprintf("warm=%v", warm), func(b *testing.B) {
			var res ompss.Result
			for i := 0; i < b.N; i++ {
				cfg := ompss.Config{SMPWorkers: 2, GPUs: 1}
				if warm {
					cfg.HintsFile = hintsPath
				}
				r, err := ompss.NewRuntime(cfg)
				if err != nil {
					b.Fatal(err)
				}
				build(r)
				res = r.Execute()
			}
			b.ReportMetric(res.Elapsed.Seconds(), "sim-s")
		})
	}
}

// BenchmarkAblationSizeTolerance compares exact-size grouping against the
// Section VII range-bucketing extension on a workload whose task sizes
// vary slightly call to call.
func BenchmarkAblationSizeTolerance(b *testing.B) {
	for _, tol := range []float64{0, 0.10} {
		b.Run(fmt.Sprintf("tolerance=%.2f", tol), func(b *testing.B) {
			var res ompss.Result
			for i := 0; i < b.N; i++ {
				r, err := ompss.NewRuntime(ompss.Config{
					Scheduler: "versioning", SMPWorkers: 2, GPUs: 1, SizeTolerance: tol,
				})
				if err != nil {
					b.Fatal(err)
				}
				work := r.DeclareTaskType("kernel")
				work.AddVersion("kernel_gpu", ompss.CUDA, ompss.Throughput{GFlops: 300, Overhead: 20 * time.Microsecond}, nil)
				work.AddVersion("kernel_smp", ompss.SMP, ompss.Throughput{GFlops: 5}, nil)
				obj := r.Register("chain", 8<<20)
				r.Main(func(m *ompss.Master) {
					for j := 0; j < 60; j++ {
						// Sizes jitter by a few bytes call to call: exact
						// matching opens a new learning phase every time.
						o := r.Register(fmt.Sprintf("x%d", j), 8<<20+int64(j%7))
						m.Submit(work, []ompss.Access{ompss.In(o), ompss.InOut(obj)}, ompss.Work{Flops: 2e9}, nil)
					}
					m.Taskwait()
				})
				res = r.Execute()
			}
			b.ReportMetric(res.Elapsed.Seconds(), "sim-s")
		})
	}
}

// BenchmarkEngineThroughput measures raw simulator performance: events
// processed per wall-clock second on the matmul workload.
func BenchmarkEngineThroughput(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		r, err := ompss.NewRuntime(ompss.Config{Scheduler: "versioning", SMPWorkers: 8, GPUs: 2})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := apps.BuildMatmul(r, apps.MatmulConfig{N: 8192, Variant: apps.MatmulHybrid}); err != nil {
			b.Fatal(err)
		}
		r.Execute()
		events = r.Engine().EventCount
	}
	b.ReportMetric(float64(events), "events/run")
}
