package apps

import (
	"fmt"
	"math"

	"repro/ompss"
)

// Kernel calibration for single-precision BLAS-3 on 2048x2048 tiles
// (M2090 SP peak 1331 GFLOP/s; Xeon E5649 core SP peak ~20 GFLOP/s):
//
//   - sgemm via CUBLAS sustains ~550 GFLOP/s;
//   - strsm ~350, ssyrk ~450 (less regular than gemm);
//   - spotrf via MAGMA ~200 GFLOP/s (panel factorizations limit it);
//   - spotrf via CBLAS/LAPACK on one core ~9 GFLOP/s.
//
// Per-task flop counts for tile dimension BS: potrf BS^3/3, trsm BS^3,
// syrk BS^3 (+BS^2, ignored), gemm 2*BS^3.
const (
	CholGemmGFlops     = 550.0
	CholTrsmGFlops     = 350.0
	CholSyrkGFlops     = 450.0
	CholPotrfGPUGFlops = 200.0
	CholPotrfSMPGFlops = 9.0
)

// CholeskyVariant selects which potrf implementations exist (the other
// three kernels are always GPU-only, as in the paper: "running them on
// the CPU would take too much time").
type CholeskyVariant string

const (
	// CholeskyPotrfSMP is potrf-smp: potrf only has the CBLAS version.
	CholeskyPotrfSMP CholeskyVariant = "potrf-smp"
	// CholeskyPotrfGPU is potrf-gpu: potrf only has the MAGMA version.
	CholeskyPotrfGPU CholeskyVariant = "potrf-gpu"
	// CholeskyPotrfHybrid is potrf-hyb: both implementations exist.
	CholeskyPotrfHybrid CholeskyVariant = "potrf-hyb"
)

// CholeskyConfig sizes the tiled Cholesky factorization.
type CholeskyConfig struct {
	// N is the matrix dimension in elements (paper: 32768).
	N int
	// BS is the tile dimension in elements (paper: 2048).
	BS int
	// Variant selects the potrf version set.
	Variant CholeskyVariant
	// Verify enables real computation and checks L*L^T == A.
	Verify bool
	// PotrfPriority schedules potrf tasks ahead of queued updates (the
	// OmpSs priority clause). Section V-B2 motivates it: potrf "acts
	// like a bottleneck and if it is not run as soon as its data
	// dependencies are satisfied, there is less parallelism to exploit".
	PotrfPriority bool
}

func (c *CholeskyConfig) fillDefaults() {
	if c.N == 0 {
		c.N = 32768
	}
	if c.BS == 0 {
		c.BS = 2048
	}
	if c.Variant == "" {
		c.Variant = CholeskyPotrfHybrid
	}
}

// Cholesky is a built factorization application instance.
type Cholesky struct {
	cfg   CholeskyConfig
	rt    *ompss.Runtime
	tiles int

	// Real data (Verify mode): lower-triangle tiles, row-major.
	a    [][]float64 // working matrix, becomes L
	orig [][]float64 // copy of the input for the final check
	data tileData    // each tile object's working tile
}

// Task type names (one version set per kernel).
const (
	CholPotrfType = "potrf"
	CholTrsmType  = "trsm"
	CholSyrkType  = "syrk"
	CholGemmType  = "gemm"
)

// BuildCholesky declares the four kernel task types, registers tiles and
// installs the master function.
func BuildCholesky(r *ompss.Runtime, cfg CholeskyConfig) (*Cholesky, error) {
	cfg.fillDefaults()
	if cfg.N%cfg.BS != 0 {
		return nil, fmt.Errorf("apps: cholesky N=%d not divisible by BS=%d", cfg.N, cfg.BS)
	}
	app := &Cholesky{cfg: cfg, rt: r, tiles: cfg.N / cfg.BS}
	bs := float64(cfg.BS)
	tileBytes := int64(cfg.BS) * int64(cfg.BS) * 4 // single precision

	potrf := r.DeclareTaskType(CholPotrfType)
	switch cfg.Variant {
	case CholeskyPotrfSMP:
		potrf.AddVersion("potrf_cblas", ompss.SMP,
			ompss.Throughput{GFlops: CholPotrfSMPGFlops}, app.realPotrf)
	case CholeskyPotrfGPU:
		potrf.AddVersion("potrf_magma", ompss.CUDA,
			ompss.Throughput{GFlops: CholPotrfGPUGFlops, Overhead: gpuLaunchOverhead}, app.realPotrf)
	case CholeskyPotrfHybrid:
		potrf.AddVersion("potrf_magma", ompss.CUDA,
			ompss.Throughput{GFlops: CholPotrfGPUGFlops, Overhead: gpuLaunchOverhead}, app.realPotrf)
		potrf.AddVersion("potrf_cblas", ompss.SMP,
			ompss.Throughput{GFlops: CholPotrfSMPGFlops}, app.realPotrf)
	default:
		return nil, fmt.Errorf("apps: unknown cholesky variant %q", cfg.Variant)
	}

	trsm := r.DeclareTaskType(CholTrsmType)
	trsm.AddVersion("trsm_cublas", ompss.CUDA,
		ompss.Throughput{GFlops: CholTrsmGFlops, Overhead: gpuLaunchOverhead}, app.realTrsm)
	syrk := r.DeclareTaskType(CholSyrkType)
	syrk.AddVersion("syrk_cublas", ompss.CUDA,
		ompss.Throughput{GFlops: CholSyrkGFlops, Overhead: gpuLaunchOverhead}, app.realSyrk)
	gemm := r.DeclareTaskType(CholGemmType)
	gemm.AddVersion("gemm_magma", ompss.CUDA,
		ompss.Throughput{GFlops: CholGemmGFlops, Overhead: gpuLaunchOverhead}, app.realGemm)

	t := app.tiles
	obj := make([][]*ompss.Object, t)
	for i := 0; i < t; i++ {
		obj[i] = make([]*ompss.Object, t)
		for j := 0; j <= i; j++ {
			obj[i][j] = r.Register(tileName('A', i, j), tileBytes)
		}
	}
	if cfg.Verify {
		app.initData(obj)
	}

	potrfFlops := bs * bs * bs / 3
	trsmFlops := bs * bs * bs
	syrkFlops := bs * bs * bs
	gemmFlops := 2 * bs * bs * bs

	potrfPrio := 0
	if cfg.PotrfPriority {
		potrfPrio = 1
	}
	r.Main(func(m *ompss.Master) {
		for k := 0; k < t; k++ {
			m.SubmitPriority(potrf, []ompss.Access{ompss.InOut(obj[k][k])},
				ompss.Work{Flops: potrfFlops, Bytes: tileBytes}, nil, potrfPrio)
			for i := k + 1; i < t; i++ {
				m.Submit(trsm, []ompss.Access{ompss.In(obj[k][k]), ompss.InOut(obj[i][k])},
					ompss.Work{Flops: trsmFlops, Bytes: 2 * tileBytes}, nil)
			}
			for i := k + 1; i < t; i++ {
				for j := k + 1; j < i; j++ {
					m.Submit(gemm, []ompss.Access{ompss.In(obj[i][k]), ompss.In(obj[j][k]), ompss.InOut(obj[i][j])},
						ompss.Work{Flops: gemmFlops, Bytes: 3 * tileBytes}, nil)
				}
				m.Submit(syrk, []ompss.Access{ompss.In(obj[i][k]), ompss.InOut(obj[i][i])},
					ompss.Work{Flops: syrkFlops, Bytes: 2 * tileBytes}, nil)
			}
		}
		m.Taskwait()
	})
	return app, nil
}

// TaskCount returns the number of tasks the factorization submits.
func (a *Cholesky) TaskCount() int {
	t := a.tiles
	// potrf: t; trsm: t(t-1)/2; syrk: t(t-1)/2; gemm: t(t-1)(t-2)/6.
	return t + t*(t-1)/2 + t*(t-1)/2 + t*(t-1)*(t-2)/6
}

// TotalFlops returns the factorization's operation count (~N^3/3).
func (a *Cholesky) TotalFlops() float64 {
	n := float64(a.cfg.N)
	return n * n * n / 3
}

// initData builds a symmetric positive definite matrix in the tiles of
// obj (Verify mode): A = M*M^T + N*I with small integer M.
func (a *Cholesky) initData(obj [][]*ompss.Object) {
	t, bs := a.tiles, a.cfg.BS
	n := a.cfg.N
	// Dense build (small sizes only).
	m := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m[i*n+j] = float64((i+2*j)%5) * 0.125
		}
	}
	full := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += m[i*n+k] * m[j*n+k]
			}
			if i == j {
				s += float64(n)
			}
			full[i*n+j] = s
			full[j*n+i] = s
		}
	}
	a.a = make([][]float64, t*t)
	a.orig = make([][]float64, t*t)
	a.data = make(tileData, t*(t+1)/2)
	for ti := 0; ti < t; ti++ {
		for tj := 0; tj <= ti; tj++ {
			tile := make([]float64, bs*bs)
			for x := 0; x < bs; x++ {
				for y := 0; y < bs; y++ {
					tile[x*bs+y] = full[(ti*bs+x)*n+(tj*bs+y)]
				}
			}
			a.a[ti*t+tj] = tile
			a.data[obj[ti][tj]] = tile
			cp := make([]float64, len(tile))
			copy(cp, tile)
			a.orig[ti*t+tj] = cp
		}
	}
}

func (a *Cholesky) tile(i, j int) []float64 { return a.a[i*a.tiles+j] }

// realPotrf factorizes the diagonal tile in place (unblocked Cholesky).
func (a *Cholesky) realPotrf(ctx *ompss.ExecContext) {
	if a.data == nil {
		return
	}
	potrfKernel(a.data.arg(ctx, 0), a.cfg.BS)
}

// realTrsm solves X * L^T = A for the panel tile: A[i][k] = A[i][k] *
// L[k][k]^-T.
func (a *Cholesky) realTrsm(ctx *ompss.ExecContext) {
	if a.data == nil {
		return
	}
	trsmKernel(a.data.arg(ctx, 0), a.data.arg(ctx, 1), a.cfg.BS)
}

// realSyrk updates the diagonal: A[i][i] -= A[i][k] * A[i][k]^T.
func (a *Cholesky) realSyrk(ctx *ompss.ExecContext) {
	if a.data == nil {
		return
	}
	syrkKernel(a.data.arg(ctx, 0), a.data.arg(ctx, 1), a.cfg.BS)
}

// realGemm updates below the diagonal: A[i][j] -= A[i][k] * A[j][k]^T.
func (a *Cholesky) realGemm(ctx *ompss.ExecContext) {
	if a.data == nil {
		return
	}
	gemmNTKernel(a.data.arg(ctx, 0), a.data.arg(ctx, 1), a.data.arg(ctx, 2), a.cfg.BS)
}

// Check verifies L*L^T equals the original matrix (Verify mode).
func (a *Cholesky) Check() error {
	if a.a == nil {
		return fmt.Errorf("apps: cholesky built without Verify")
	}
	t, bs, n := a.tiles, a.cfg.BS, a.cfg.N
	// Reassemble L (lower triangle of the worked matrix).
	l := make([]float64, n*n)
	for ti := 0; ti < t; ti++ {
		for tj := 0; tj <= ti; tj++ {
			tile := a.tile(ti, tj)
			for x := 0; x < bs; x++ {
				for y := 0; y < bs; y++ {
					gi, gj := ti*bs+x, tj*bs+y
					if gj <= gi {
						l[gi*n+gj] = tile[x*bs+y]
					}
				}
			}
		}
	}
	// Compare L*L^T against the original, relative tolerance.
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += l[i*n+k] * l[j*n+k]
			}
			ti, tj := i/bs, j/bs
			want := a.orig[ti*t+tj][(i%bs)*bs+(j%bs)]
			if math.Abs(s-want) > 1e-6*math.Max(1, math.Abs(want)) {
				return fmt.Errorf("apps: cholesky mismatch at (%d,%d): %g vs %g", i, j, s, want)
			}
		}
	}
	return nil
}

// --- real kernels (unblocked reference implementations) ---

// potrfKernel: in-place lower Cholesky of an bs x bs tile.
func potrfKernel(t []float64, bs int) {
	for j := 0; j < bs; j++ {
		d := t[j*bs+j]
		for k := 0; k < j; k++ {
			d -= t[j*bs+k] * t[j*bs+k]
		}
		if d <= 0 {
			panic("apps: matrix not positive definite")
		}
		d = math.Sqrt(d)
		t[j*bs+j] = d
		for i := j + 1; i < bs; i++ {
			s := t[i*bs+j]
			for k := 0; k < j; k++ {
				s -= t[i*bs+k] * t[j*bs+k]
			}
			t[i*bs+j] = s / d
		}
		for i := 0; i < j; i++ {
			t[i*bs+j] = 0 // keep strict lower form
		}
	}
}

// trsmKernel: x = x * l^-T (right-solve with the transposed lower tile).
func trsmKernel(l, x []float64, bs int) {
	for i := 0; i < bs; i++ {
		xi := x[i*bs : (i+1)*bs]
		for j := 0; j < bs; j++ {
			s := xi[j]
			for k := 0; k < j; k++ {
				s -= xi[k] * l[j*bs+k]
			}
			xi[j] = s / l[j*bs+j]
		}
	}
}

// syrkKernel: c -= a * a^T (lower update of the diagonal tile).
func syrkKernel(a, c []float64, bs int) {
	for i := 0; i < bs; i++ {
		for j := 0; j < bs; j++ {
			var s float64
			ai := a[i*bs : (i+1)*bs]
			aj := a[j*bs : (j+1)*bs]
			for k := 0; k < bs; k++ {
				s += ai[k] * aj[k]
			}
			c[i*bs+j] -= s
		}
	}
}

// gemmNTKernel: c -= a * b^T.
func gemmNTKernel(a, b, c []float64, bs int) {
	for i := 0; i < bs; i++ {
		ai := a[i*bs : (i+1)*bs]
		ci := c[i*bs : (i+1)*bs]
		for j := 0; j < bs; j++ {
			bj := b[j*bs : (j+1)*bs]
			var s float64
			for k := 0; k < bs; k++ {
				s += ai[k] * bj[k]
			}
			ci[j] -= s
		}
	}
}
