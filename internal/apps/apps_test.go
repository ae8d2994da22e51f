package apps

import (
	"fmt"
	"testing"

	"repro/ompss"
)

func newRT(t *testing.T, cfg ompss.Config) *ompss.Runtime {
	t.Helper()
	r, err := ompss.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// --- matmul ---

// TestTileNameMatchesSprintf: the tile names are part of every trace and
// transfer record, so the fmt-free builder must spell them exactly as
// the format it replaced.
func TestTileNameMatchesSprintf(t *testing.T) {
	for _, m := range []byte{'A', 'B', 'C'} {
		for _, ij := range [][2]int{{0, 0}, {3, 17}, {99, 100}, {123456, 7}} {
			i, j := ij[0], ij[1]
			if got, want := tileName(m, i, j), fmt.Sprintf("%c[%d][%d]", m, i, j); got != want {
				t.Errorf("tileName(%c, %d, %d) = %q, want %q", m, i, j, got, want)
			}
		}
	}
}

func TestMatmulTaskCount(t *testing.T) {
	r := newRT(t, ompss.Config{SMPWorkers: 2, GPUs: 1})
	app, err := BuildMatmul(r, MatmulConfig{N: 4096, BS: 1024})
	if err != nil {
		t.Fatal(err)
	}
	res := r.Execute()
	if app.TaskCount() != 64 { // (4096/1024)^3
		t.Errorf("TaskCount = %d, want 64", app.TaskCount())
	}
	if res.Tasks != 64 {
		t.Errorf("executed %d tasks, want 64", res.Tasks)
	}
}

func TestMatmulRejectsBadTiling(t *testing.T) {
	r := newRT(t, ompss.Config{SMPWorkers: 1, GPUs: 1})
	if _, err := BuildMatmul(r, MatmulConfig{N: 1000, BS: 512}); err == nil {
		t.Error("non-divisible tiling should fail")
	}
}

func TestMatmulNumericsUnderEveryScheduler(t *testing.T) {
	for _, schedName := range []string{"versioning", "bf", "dep", "affinity"} {
		t.Run(schedName, func(t *testing.T) {
			r := newRT(t, ompss.Config{
				Scheduler:   schedName,
				SMPWorkers:  2,
				GPUs:        2,
				RealCompute: true,
			})
			app, err := BuildMatmul(r, MatmulConfig{N: 64, BS: 16, Variant: MatmulHybrid, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			r.Execute()
			if err := app.Check(); err != nil {
				t.Errorf("%s: %v", schedName, err)
			}
		})
	}
}

func TestMatmulGPUVariantHasSingleVersion(t *testing.T) {
	r := newRT(t, ompss.Config{SMPWorkers: 1, GPUs: 1})
	if _, err := BuildMatmul(r, MatmulConfig{N: 2048, BS: 1024, Variant: MatmulGPU}); err != nil {
		t.Fatal(err)
	}
	res := r.Execute()
	counts := res.VersionCounts[MatmulTaskType]
	if len(counts) != 1 || counts["matmul_tile_cublas"] != 8 {
		t.Errorf("mm-gpu version counts = %v", counts)
	}
}

func TestMatmulSMPTo60xGPURatio(t *testing.T) {
	// The calibration invariant the paper states: SMP tile time is ~60x
	// the CUBLAS tile time.
	smp := ompss.Throughput{GFlops: MatmulSMPGFlops}
	gpu := ompss.Throughput{GFlops: MatmulCublasGFlops, Overhead: gpuLaunchOverhead}
	w := ompss.Work{Flops: 2 * 1024 * 1024 * 1024 * 1024} // 2*BS^3, BS=1024
	ratio := float64(smp.Estimate(w)) / float64(gpu.Estimate(w))
	if ratio < 55 || ratio > 65 {
		t.Errorf("SMP/GPU tile ratio = %.1f, want ~60", ratio)
	}
}

// --- cholesky ---

func TestCholeskyTaskCount(t *testing.T) {
	r := newRT(t, ompss.Config{SMPWorkers: 1, GPUs: 1})
	app, err := BuildCholesky(r, CholeskyConfig{N: 8192, BS: 2048, Variant: CholeskyPotrfGPU})
	if err != nil {
		t.Fatal(err)
	}
	res := r.Execute()
	// t=4: potrf 4, trsm 6, syrk 6, gemm 4.
	if app.TaskCount() != 20 {
		t.Errorf("TaskCount = %d, want 20", app.TaskCount())
	}
	if res.Tasks != 20 {
		t.Errorf("executed %d, want 20", res.Tasks)
	}
}

func TestCholeskyNumericsUnderEveryScheduler(t *testing.T) {
	for _, schedName := range []string{"versioning", "bf", "dep", "affinity"} {
		t.Run(schedName, func(t *testing.T) {
			r := newRT(t, ompss.Config{
				Scheduler:   schedName,
				SMPWorkers:  2,
				GPUs:        2,
				RealCompute: true,
			})
			app, err := BuildCholesky(r, CholeskyConfig{N: 64, BS: 16, Variant: CholeskyPotrfHybrid, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			r.Execute()
			if err := app.Check(); err != nil {
				t.Errorf("%s: %v", schedName, err)
			}
		})
	}
}

func TestCholeskyVariantsDeclareRightVersions(t *testing.T) {
	cases := map[CholeskyVariant][]string{
		CholeskyPotrfSMP:    {"potrf_cblas"},
		CholeskyPotrfGPU:    {"potrf_magma"},
		CholeskyPotrfHybrid: {"potrf_magma", "potrf_cblas"},
	}
	for variant, wantVersions := range cases {
		r := newRT(t, ompss.Config{SMPWorkers: 1, GPUs: 1})
		if _, err := BuildCholesky(r, CholeskyConfig{N: 4096, BS: 2048, Variant: variant}); err != nil {
			t.Fatal(err)
		}
		tt := r.TaskType(CholPotrfType)
		if len(tt.Versions) != len(wantVersions) {
			t.Errorf("%s: %d versions", variant, len(tt.Versions))
			continue
		}
		for i, v := range tt.Versions {
			if v.Name != wantVersions[i] {
				t.Errorf("%s: version %d = %s, want %s", variant, i, v.Name, wantVersions[i])
			}
		}
	}
}

func TestCholeskyUnknownVariant(t *testing.T) {
	r := newRT(t, ompss.Config{SMPWorkers: 1, GPUs: 1})
	if _, err := BuildCholesky(r, CholeskyConfig{N: 4096, BS: 2048, Variant: "nope"}); err == nil {
		t.Error("unknown variant should fail")
	}
}

// --- pbpi ---

func TestPBPITaskCount(t *testing.T) {
	r := newRT(t, ompss.Config{SMPWorkers: 2, GPUs: 1})
	app, err := BuildPBPI(r, PBPIConfig{Elements: 800, Segments: 4, Loop2Chunks: 8, Generations: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := r.Execute()
	want := (4 + 32 + 1) * 3
	if app.TaskCount() != want || res.Tasks != want {
		t.Errorf("tasks = %d/%d, want %d", app.TaskCount(), res.Tasks, want)
	}
}

func TestPBPIDeterministicAcrossSchedulers(t *testing.T) {
	// The chain's final log-likelihood must be identical under every
	// scheduler: dataflow dependences fully determine the numerics.
	var ref float64
	for i, schedName := range []string{"versioning", "bf", "dep", "affinity"} {
		r := newRT(t, ompss.Config{
			Scheduler:   schedName,
			SMPWorkers:  3,
			GPUs:        2,
			RealCompute: true,
		})
		app, err := BuildPBPI(r, PBPIConfig{
			Elements: 512, Segments: 4, Loop2Chunks: 4, Generations: 5,
			Variant: PBPIHybrid, Verify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Execute()
		if app.LogLik == 0 {
			t.Fatalf("%s: log-likelihood never computed", schedName)
		}
		if i == 0 {
			ref = app.LogLik
		} else if app.LogLik != ref {
			t.Errorf("%s: loglik %v != reference %v", schedName, app.LogLik, ref)
		}
	}
}

func TestPBPISMPVariantNeverTransfers(t *testing.T) {
	r := newRT(t, ompss.Config{Scheduler: "bf", SMPWorkers: 4, GPUs: 2})
	if _, err := BuildPBPI(r, PBPIConfig{
		Elements: 800, Segments: 4, Loop2Chunks: 4, Generations: 3, Variant: PBPISMP,
	}); err != nil {
		t.Fatal(err)
	}
	res := r.Execute()
	if res.TotalTxBytes() != 0 {
		t.Errorf("pbpi-smp transferred %d bytes, want 0 (data always stays in host memory)", res.TotalTxBytes())
	}
}

func TestPBPIGenerationsSerialize(t *testing.T) {
	// chainState is inout in loop3 and read by loop1: generation g+1's
	// loop1 cannot start before generation g's loop3 finished.
	r := newRT(t, ompss.Config{Scheduler: "bf", SMPWorkers: 8})
	if _, err := BuildPBPI(r, PBPIConfig{
		Elements: 800, Segments: 4, Loop2Chunks: 2, Generations: 2, Variant: PBPISMP,
	}); err != nil {
		t.Fatal(err)
	}
	r.Execute()
	var loop3End, gen1Loop1Start int64 = -1, -1
	for _, rec := range r.Tracer().Tasks {
		if rec.Type == PBPILoop3Type && loop3End < 0 {
			loop3End = int64(rec.End)
		}
		if rec.Type == PBPILoop1Type && rec.TaskID > 11 && gen1Loop1Start < 0 {
			gen1Loop1Start = int64(rec.Start)
		}
	}
	if loop3End < 0 || gen1Loop1Start < 0 {
		t.Fatal("records missing")
	}
	if gen1Loop1Start < loop3End {
		t.Errorf("generation 2 loop1 started at %d before loop3 ended at %d", gen1Loop1Start, loop3End)
	}
}

func TestPBPIBadSegmentsRejected(t *testing.T) {
	r := newRT(t, ompss.Config{SMPWorkers: 1, GPUs: 1})
	if _, err := BuildPBPI(r, PBPIConfig{Elements: 10, Segments: 3}); err == nil {
		t.Error("non-divisible segmentation should fail")
	}
	r2 := newRT(t, ompss.Config{SMPWorkers: 1, GPUs: 1})
	if _, err := BuildPBPI(r2, PBPIConfig{Variant: "zzz", Elements: 8, Segments: 2}); err == nil {
		t.Error("unknown variant should fail")
	}
}
