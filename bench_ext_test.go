// Extension benchmarks beyond the paper's figures: scheduler comparison
// on irregular graphs, cluster scaling, energy accounting, the two extra
// applications (stencil, n-body), and the analysis tooling itself.
package repro

import (
	"io"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/stats"
	"repro/ompss"
)

// BenchmarkSchedulerComparisonRandDAG regenerates ext-sched: the same
// irregular random DAG under every policy.
func BenchmarkSchedulerComparisonRandDAG(b *testing.B) { benchExperiment(b, "ext-sched") }

// BenchmarkSchedulerComparisonMatmul compares the policies on the paper's
// matmul: only the versioning scheduler can exploit the hybrid version
// set; the others run the main (CUBLAS) implementation exclusively.
func BenchmarkSchedulerComparisonMatmul(b *testing.B) {
	for _, s := range []string{"versioning", "bf", "dep", "affinity", "wf"} {
		b.Run(s, func(b *testing.B) {
			b.ReportAllocs()
			var res ompss.Result
			for i := 0; i < b.N; i++ {
				r, err := ompss.NewRuntime(ompss.Config{Scheduler: s, SMPWorkers: 8, GPUs: 2})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := apps.BuildMatmul(r, apps.MatmulConfig{N: 8192, Variant: apps.MatmulHybrid}); err != nil {
					b.Fatal(err)
				}
				res = r.Execute()
			}
			b.ReportMetric(res.GFlops, "GFLOP/s")
		})
	}
}

// BenchmarkClusterScaling regenerates ext-cluster: the hybrid matmul
// from one node to multi-node clusters with remote GPUs.
func BenchmarkClusterScaling(b *testing.B) { benchExperiment(b, "ext-cluster") }

// BenchmarkEnergyBySchedule regenerates ext-energy: the power model
// integrated over each policy's Cholesky schedule.
func BenchmarkEnergyBySchedule(b *testing.B) { benchExperiment(b, "ext-energy") }

// BenchmarkStencilVariants compares gpu-only, smp-only and hybrid Jacobi:
// bandwidth-bound tasks with halo transfers every sweep.
func BenchmarkStencilVariants(b *testing.B) {
	for _, v := range []apps.StencilVariant{apps.StencilGPUOnly, apps.StencilSMPOnly, apps.StencilHybrid} {
		b.Run(string(v), func(b *testing.B) {
			b.ReportAllocs()
			sched := "bf"
			if v == apps.StencilHybrid {
				sched = "versioning"
			}
			var res ompss.Result
			for i := 0; i < b.N; i++ {
				r, err := ompss.NewRuntime(ompss.Config{Scheduler: sched, SMPWorkers: 8, GPUs: 2})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := apps.BuildStencil(r, apps.StencilConfig{N: 8192, BS: 1024, Sweeps: 8, Variant: v}); err != nil {
					b.Fatal(err)
				}
				res = r.Execute()
			}
			b.ReportMetric(res.Elapsed.Seconds(), "sim-s")
		})
	}
}

// BenchmarkNBodyVariants compares gpu-only and hybrid n-body: compute-
// bound force blocks against cheap memory-bound updates.
func BenchmarkNBodyVariants(b *testing.B) {
	for _, v := range []apps.NBodyVariant{apps.NBodyGPU, apps.NBodyHybrid} {
		b.Run(string(v), func(b *testing.B) {
			b.ReportAllocs()
			sched := "bf"
			if v == apps.NBodyHybrid {
				sched = "versioning"
			}
			var res ompss.Result
			for i := 0; i < b.N; i++ {
				r, err := ompss.NewRuntime(ompss.Config{Scheduler: sched, SMPWorkers: 8, GPUs: 2})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := apps.BuildNBody(r, apps.NBodyConfig{N: 65536, BS: 8192, Steps: 4, Variant: v}); err != nil {
					b.Fatal(err)
				}
				res = r.Execute()
			}
			b.ReportMetric(res.Elapsed.Seconds(), "sim-s")
		})
	}
}

// BenchmarkAblationConfidenceCV compares the paper's fixed-lambda
// reliability gate against the confidence-gated extension. The workload
// is adversarial for lambda=3: two versions whose true means differ by
// only 20% under 40% log-normal noise, so three samples often rank them
// wrong, and a wrong "fastest executor" belief costs the whole run. The
// gate keeps such groups in the learning phase until the estimate
// stabilizes. Reported fraction-fast is how often the truly faster
// version was chosen after learning.
func BenchmarkAblationConfidenceCV(b *testing.B) {
	for _, cv := range []float64{0, 0.20} {
		name := "lambda-only"
		if cv > 0 {
			name = "cv0.20"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			const seeds = 20
			var fast, simSec float64
			for i := 0; i < b.N; i++ {
				fast, simSec = 0, 0
				for seed := int64(0); seed < seeds; seed++ {
					r, err := ompss.NewRuntime(ompss.Config{
						Scheduler:    "versioning",
						SMPWorkers:   2,
						GPUs:         0,
						NoiseSigma:   0.40,
						Seed:         seed,
						ConfidenceCV: cv,
					})
					if err != nil {
						b.Fatal(err)
					}
					tt := r.DeclareTaskType("closecall")
					tt.AddVersion("v_fast", ompss.SMP, ompss.Fixed{D: time.Millisecond}, nil)
					tt.AddVersion("v_slow", ompss.SMP, ompss.Fixed{D: 1200 * time.Microsecond}, nil)
					o := r.Register("x", 1000)
					r.Main(func(m *ompss.Master) {
						for j := 0; j < 400; j++ {
							m.Submit(tt, []ompss.Access{ompss.InOut(o)}, ompss.Work{}, nil)
						}
						m.Taskwait()
					})
					res := r.Execute()
					fast += res.VersionShare("closecall", "v_fast") / seeds
					simSec += res.Elapsed.Seconds() / seeds
				}
			}
			b.ReportMetric(simSec, "sim-s")
			b.ReportMetric(fast, "fraction-fast")
		})
	}
}

// BenchmarkAblationCommutative compares the inout accumulation chain
// against the commutative clause on the n-body force phase.
func BenchmarkAblationCommutative(b *testing.B) {
	for _, comm := range []bool{false, true} {
		name := "inout-chain"
		if comm {
			name = "commutative"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var res ompss.Result
			for i := 0; i < b.N; i++ {
				r, err := ompss.NewRuntime(ompss.Config{Scheduler: "bf", SMPWorkers: 4, GPUs: 2})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := apps.BuildNBody(r, apps.NBodyConfig{
					N: 65536, BS: 8192, Steps: 4, Variant: apps.NBodyGPU, Commutative: comm,
				}); err != nil {
					b.Fatal(err)
				}
				res = r.Execute()
			}
			b.ReportMetric(res.Elapsed.Seconds(), "sim-s")
		})
	}
}

// analysisFixture produces one medium trace for tooling benchmarks.
func analysisFixture(b *testing.B) *ompss.Runtime {
	b.Helper()
	r, err := ompss.NewRuntime(ompss.Config{Scheduler: "versioning", SMPWorkers: 8, GPUs: 2})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := apps.BuildRandDAG(r, apps.RandDAGConfig{Seed: 2, Layers: 25, Width: 20}); err != nil {
		b.Fatal(err)
	}
	r.Execute()
	return r
}

// BenchmarkCriticalPathAnalysis measures the post-processing cost of the
// critical-path computation on a 500-task trace.
func BenchmarkCriticalPathAnalysis(b *testing.B) {
	r := analysisFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := stats.ComputeCriticalPath(r.Tracer())
		if cp.Length <= 0 {
			b.Fatal("empty critical path")
		}
	}
}

// BenchmarkParaverExport measures trace-serialization throughput.
func BenchmarkParaverExport(b *testing.B) {
	r := analysisFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WriteParaver(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnergyCompute measures the energy-integration cost itself.
func BenchmarkEnergyCompute(b *testing.B) {
	r := analysisFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.EnergyReport(nil).TotalJoules() <= 0 {
			b.Fatal("no energy")
		}
	}
}
