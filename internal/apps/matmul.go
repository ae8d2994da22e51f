// Package apps implements the paper's three evaluation applications on
// top of the public ompss API: tiled matrix multiplication, tiled
// Cholesky factorization, and PBPI (Bayesian phylogenetic inference).
// Each application declares its task types with the same version sets the
// paper used, with performance models calibrated to the published
// hardware throughputs (Xeon E5649, Tesla M2090) and the ratios stated in
// the text (e.g. the SMP matmul tile runs ~60x longer than the CUBLAS
// tile).
//
// Every app supports a RealCompute mode at small sizes in which genuine
// Go kernels run and results are verified numerically: the simulation's
// dependence handling is therefore checked end to end, not just its
// timing.
package apps

import (
	"fmt"
	"strconv"

	"repro/ompss"
)

// Kernel calibration for double-precision GEMM on 1024x1024 tiles
// (2*BS^3 = 2.147 GFlop per task):
//
//   - CUBLAS dgemm on an M2090 sustains ~300 GFLOP/s  -> ~7.2 ms/task;
//   - a straightforward hand-written CUDA kernel reaches ~90 GFLOP/s;
//   - CBLAS dgemm on one Xeon E5649 core sustains ~5 GFLOP/s -> ~430
//     ms/task, i.e. ~60x the CUBLAS time, matching "SMP task duration is
//     about 60 times the GPU task duration" (Section V-B1).
const (
	MatmulCublasGFlops = 300.0
	MatmulCudaGFlops   = 90.0
	MatmulSMPGFlops    = 5.0
	// GPU kernel launch overhead; negligible for CPU library calls.
	gpuLaunchOverhead = 20e3 // ns
)

// MatmulVariant selects which implementations the application provides.
type MatmulVariant string

const (
	// MatmulGPU is the paper's mm-gpu: only the CUBLAS version exists.
	MatmulGPU MatmulVariant = "gpu"
	// MatmulHybrid is mm-hyb: CUBLAS (main) + hand CUDA + SMP CBLAS.
	MatmulHybrid MatmulVariant = "hyb"
)

// MatmulConfig sizes the tiled matrix multiplication.
type MatmulConfig struct {
	// N is the matrix dimension in elements (paper: 16384).
	N int
	// BS is the tile dimension in elements (paper: 1024).
	BS int
	// Variant selects mm-gpu or mm-hyb.
	Variant MatmulVariant
	// Verify enables real computation on small sizes and checks the
	// product against a sequential reference after the run.
	Verify bool
}

func (c *MatmulConfig) fillDefaults() {
	if c.N == 0 {
		c.N = 16384
	}
	if c.BS == 0 {
		c.BS = 1024
	}
	if c.Variant == "" {
		c.Variant = MatmulHybrid
	}
}

// Matmul is a built matrix-multiplication application instance.
type Matmul struct {
	cfg MatmulConfig
	rt  *ompss.Runtime

	// Real data (Verify mode only): row-major tiles, and each tile
	// object's tile for the kernel to find through its accesses.
	a, b, c [][]float64
	data    tileData
	tiles   int
}

// TaskTypeName is the version-set name of the single task type.
const MatmulTaskType = "matmul_tile"

// BuildMatmul declares the matmul task versions, registers the tile
// objects and installs the master function on the runtime. Call
// r.Execute() afterwards.
func BuildMatmul(r *ompss.Runtime, cfg MatmulConfig) (*Matmul, error) {
	cfg.fillDefaults()
	if cfg.N%cfg.BS != 0 {
		return nil, fmt.Errorf("apps: matmul N=%d not divisible by BS=%d", cfg.N, cfg.BS)
	}
	app := &Matmul{cfg: cfg, rt: r, tiles: cfg.N / cfg.BS}
	bs := cfg.BS
	tileBytes := int64(bs) * int64(bs) * 8 // double precision
	tileFlops := 2 * float64(bs) * float64(bs) * float64(bs)

	tt := r.DeclareTaskType(MatmulTaskType)
	// Main implementation: CUBLAS on the GPU (Figure 2).
	tt.AddVersion("matmul_tile_cublas", ompss.CUDA,
		ompss.Throughput{GFlops: MatmulCublasGFlops, Overhead: gpuLaunchOverhead}, app.realTile)
	if cfg.Variant == MatmulHybrid {
		// implements(matmul_tile): hand-coded CUDA kernel (Figure 3).
		tt.AddVersion("matmul_tile_cuda", ompss.CUDA,
			ompss.Throughput{GFlops: MatmulCudaGFlops, Overhead: gpuLaunchOverhead}, app.realTile)
		// implements(matmul_tile): CBLAS on one SMP core (Figure 1).
		tt.AddVersion("matmul_tile_smp", ompss.SMP,
			ompss.Throughput{GFlops: MatmulSMPGFlops}, app.realTile)
	}

	t := app.tiles
	objA := make([][]*ompss.Object, t)
	objB := make([][]*ompss.Object, t)
	objC := make([][]*ompss.Object, t)
	for i := 0; i < t; i++ {
		objA[i] = make([]*ompss.Object, t)
		objB[i] = make([]*ompss.Object, t)
		objC[i] = make([]*ompss.Object, t)
		for j := 0; j < t; j++ {
			objA[i][j] = r.Register(tileName('A', i, j), tileBytes)
			objB[i][j] = r.Register(tileName('B', i, j), tileBytes)
			objC[i][j] = r.Register(tileName('C', i, j), tileBytes)
		}
	}
	if cfg.Verify {
		app.initData(objA, objB, objC)
	}

	r.Main(func(m *ompss.Master) {
		for i := 0; i < t; i++ {
			for j := 0; j < t; j++ {
				for k := 0; k < t; k++ {
					m.Submit(tt, []ompss.Access{ompss.In(objA[i][k]), ompss.In(objB[k][j]), ompss.InOut(objC[i][j])},
						ompss.Work{Flops: tileFlops, Bytes: 3 * tileBytes}, nil)
				}
			}
		}
		m.Taskwait()
	})
	return app, nil
}

// tileData maps each tile object to its real data (Verify mode). The
// tiled apps' kernels find their tiles through the task's accesses, in
// clause order, so their tasks carry no args.
type tileData map[*ompss.Object][]float64

// arg returns the tile of the task's i-th access.
func (d tileData) arg(ctx *ompss.ExecContext, i int) []float64 {
	return d[ctx.Task.Accesses[i].Obj]
}

// TaskCount returns the number of tile tasks the app submits.
func (a *Matmul) TaskCount() int { return a.tiles * a.tiles * a.tiles }

// TotalFlops returns the application's floating-point operation count.
func (a *Matmul) TotalFlops() float64 {
	n := float64(a.cfg.N)
	return 2 * n * n * n
}

// initData allocates and fills the real tiles of the objects (Verify
// mode).
func (a *Matmul) initData(objA, objB, objC [][]*ompss.Object) {
	t := a.tiles
	bs := a.cfg.BS
	a.data = make(tileData, 3*t*t)
	alloc := func(obj [][]*ompss.Object, fill func(i, j, x, y int) float64) [][]float64 {
		tiles := make([][]float64, t*t)
		for i := 0; i < t; i++ {
			for j := 0; j < t; j++ {
				tile := make([]float64, bs*bs)
				for x := 0; x < bs; x++ {
					for y := 0; y < bs; y++ {
						tile[x*bs+y] = fill(i, j, x, y)
					}
				}
				tiles[i*t+j] = tile
				a.data[obj[i][j]] = tile
			}
		}
		return tiles
	}
	a.a = alloc(objA, func(i, j, x, y int) float64 {
		gi, gj := i*bs+x, j*bs+y
		return float64((gi+2*gj)%7) * 0.25
	})
	a.b = alloc(objB, func(i, j, x, y int) float64 {
		gi, gj := i*bs+x, j*bs+y
		return float64((3*gi+gj)%5) * 0.5
	})
	a.c = alloc(objC, func(i, j, x, y int) float64 { return 0 })
}

// realTile is the genuine Go kernel used by every version in Verify mode
// (all implementations compute the same function, as the paper requires).
func (a *Matmul) realTile(ctx *ompss.ExecContext) {
	if a.data == nil {
		return
	}
	dgemmAcc(a.data.arg(ctx, 0), a.data.arg(ctx, 1), a.data.arg(ctx, 2), a.cfg.BS)
}

// Check recomputes the product sequentially and compares (Verify mode).
func (a *Matmul) Check() error {
	if a.a == nil {
		return fmt.Errorf("apps: matmul built without Verify")
	}
	t, bs := a.tiles, a.cfg.BS
	ref := make([][]float64, t*t)
	for i := range ref {
		ref[i] = make([]float64, bs*bs)
	}
	for i := 0; i < t; i++ {
		for j := 0; j < t; j++ {
			for k := 0; k < t; k++ {
				dgemmAcc(a.a[i*t+k], a.b[k*t+j], ref[i*t+j], bs)
			}
		}
	}
	for idx := range ref {
		for e := range ref[idx] {
			if diff := ref[idx][e] - a.c[idx][e]; diff > 1e-9 || diff < -1e-9 {
				return fmt.Errorf("apps: matmul mismatch at tile %d elem %d: %g vs %g",
					idx, e, a.c[idx][e], ref[idx][e])
			}
		}
	}
	return nil
}

// dgemmAcc computes c += a*b for square row-major tiles of dimension bs,
// with a k-blocked inner loop (the "real kernel" of the reproduction).
func dgemmAcc(a, b, c []float64, bs int) {
	for i := 0; i < bs; i++ {
		ai := a[i*bs : (i+1)*bs]
		ci := c[i*bs : (i+1)*bs]
		for k := 0; k < bs; k++ {
			aik := ai[k]
			if aik == 0 {
				continue
			}
			bk := b[k*bs : (k+1)*bs]
			for j := 0; j < bs; j++ {
				ci[j] += aik * bk[j]
			}
		}
	}
}

// tileName is the object name of tile (i, j) of matrix m, "m[i][j]",
// built without fmt: a paper-size build registers hundreds of tiles.
func tileName(m byte, i, j int) string {
	var buf [24]byte
	b := append(buf[:0], m, '[')
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, ']', '[')
	b = strconv.AppendInt(b, int64(j), 10)
	return string(append(b, ']'))
}
