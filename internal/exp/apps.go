package exp

import (
	"repro/internal/apps"
	"repro/ompss"
)

// appTable is every sweepable application: every internal/apps workload
// at three size tiers. Full and quick match the harness's paper/-quick
// sizes so the figure experiments can route through exp.Run unchanged;
// tiny is sweep scale.
var appTable = []App{
	// Matrix multiplication (Figures 6-8). mm-gpu has only the CUBLAS
	// version; mm-hyb adds hand CUDA + SMP CBLAS.
	matmulApp(apps.MatmulGPU),
	matmulApp(apps.MatmulHybrid),
	// Cholesky factorization (Figures 9-11), one app per potrf version
	// set.
	choleskyApp(apps.CholeskyPotrfSMP),
	choleskyApp(apps.CholeskyPotrfGPU),
	choleskyApp(apps.CholeskyPotrfHybrid),
	// PBPI (Figures 12-15). pbpi-smp never touches a device.
	pbpiApp(apps.PBPISMP, 0),
	pbpiApp(apps.PBPIGPU, 1),
	pbpiApp(apps.PBPIHybrid, 1),
	// N-body and Jacobi stencil (extension workloads).
	{Name: "nbody", MinGPUs: 1, Build: buildNBody},
	{Name: "stencil", MinGPUs: 1, Build: buildStencil},
	// Seeded random layered DAG (irregular stress workload). CUDA-only
	// task types appear from type 2 on.
	{Name: "randdag", MinGPUs: 1, Build: buildRandDAG},
}

func matmulApp(variant apps.MatmulVariant) App {
	return App{
		Name:    "matmul-" + string(variant),
		MinGPUs: 1, // the main implementation is CUBLAS
		Build: func(r *ompss.Runtime, size Size) error {
			n := 16384
			switch size {
			case SizeQuick:
				n = 8192
			case SizeTiny:
				n = 2048
			}
			bs := 1024
			if size == SizeTiny {
				bs = 512
			}
			_, err := apps.BuildMatmul(r, apps.MatmulConfig{N: n, BS: bs, Variant: variant})
			return err
		},
	}
}

func choleskyApp(variant apps.CholeskyVariant) App {
	return App{
		Name:    "cholesky-" + string(variant),
		MinGPUs: 1, // trsm/syrk/gemm are GPU-only, as in the paper
		Build: func(r *ompss.Runtime, size Size) error {
			n := 32768
			switch size {
			case SizeQuick:
				n = 16384
			case SizeTiny:
				n = 4096
			}
			bs := 2048
			if size == SizeTiny {
				bs = 1024
			}
			_, err := apps.BuildCholesky(r, apps.CholeskyConfig{N: n, BS: bs, Variant: variant})
			return err
		},
	}
}

func pbpiApp(variant apps.PBPIVariant, minGPUs int) App {
	return App{
		Name:    "pbpi-" + string(variant),
		MinGPUs: minGPUs,
		Build: func(r *ompss.Runtime, size Size) error {
			cfg := apps.PBPIConfig{Generations: 120, Variant: variant}
			switch size {
			case SizeQuick:
				cfg.Generations = 25
			case SizeTiny:
				cfg.Generations = 5
				cfg.Segments = 4
				cfg.Loop2Chunks = 8
			}
			_, err := apps.BuildPBPI(r, cfg)
			return err
		},
	}
}

func buildNBody(r *ompss.Runtime, size Size) error {
	cfg := apps.NBodyConfig{Variant: apps.NBodyHybrid}
	switch size {
	case SizeQuick:
		cfg.N = 32768
	case SizeTiny:
		cfg.N = 8192
		cfg.BS = 2048
		cfg.Steps = 2
	}
	_, err := apps.BuildNBody(r, cfg)
	return err
}

func buildStencil(r *ompss.Runtime, size Size) error {
	cfg := apps.StencilConfig{Variant: apps.StencilHybrid}
	switch size {
	case SizeQuick:
		cfg.N = 4096
		cfg.Sweeps = 4
	case SizeTiny:
		cfg.N = 2048
		cfg.BS = 512
		cfg.Sweeps = 2
	}
	_, err := apps.BuildStencil(r, cfg)
	return err
}

// buildRandDAG fixes the graph seed so every scheduler sees the same
// graph; the run seed only drives execution-time jitter.
func buildRandDAG(r *ompss.Runtime, size Size) error {
	layers, width := 20, 24
	switch size {
	case SizeQuick:
		layers, width = 10, 12
	case SizeTiny:
		layers, width = 6, 8
	}
	_, err := apps.BuildRandDAG(r, apps.RandDAGConfig{Seed: 1, Layers: layers, Width: width})
	return err
}

// DefaultApps is the pair of flagship workloads the ompss-sweep CLI
// sweeps when no -apps flag is given.
func DefaultApps() []string {
	return []string{
		"matmul-" + string(apps.MatmulHybrid),
		"cholesky-" + string(apps.CholeskyPotrfHybrid),
	}
}

// DefaultSchedulers is every policy the paper compares.
func DefaultSchedulers() []string { return []string{"bf", "dep", "affinity", "versioning"} }
