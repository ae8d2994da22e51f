package apps

import (
	"fmt"
	"math"

	"repro/ompss"
)

// Jacobi 2D stencil: a fourth evaluation workload beyond the paper's
// three, exercising a dependence pattern none of them has — every tile
// task reads its four neighbours' tiles from the previous sweep, so the
// DAG is a wide lattice whose tasks each touch five objects. Stencils are
// memory-bound: the GPU version wins on raw bandwidth but pays PCIe halos
// every sweep, which is exactly the balance the versioning scheduler has
// to discover (the motivation of Section II applied to a bandwidth-bound
// code).
//
// Calibration: a 5-point Jacobi sweep streams ~6 doubles per point
// (5 reads + 1 write). An M2090 sustains ~120 GB/s effective on such a
// kernel; one Xeon E5649 core ~4 GB/s out of its shared ~25 GB/s socket
// bandwidth.
const (
	StencilGPUBytesPerSec = 120e9
	StencilSMPBytesPerSec = 4e9
)

// StencilVariant selects which implementations the application provides.
type StencilVariant string

const (
	// StencilGPUOnly gives only the CUDA version.
	StencilGPUOnly StencilVariant = "gpu"
	// StencilSMPOnly gives only the SMP version.
	StencilSMPOnly StencilVariant = "smp"
	// StencilHybrid gives both (versioning scheduler decides).
	StencilHybrid StencilVariant = "hyb"
)

// StencilConfig sizes the tiled Jacobi solver.
type StencilConfig struct {
	// N is the grid dimension in points (default 8192).
	N int
	// BS is the tile dimension (default 1024).
	BS int
	// Sweeps is the number of Jacobi iterations (default 8).
	Sweeps int
	// Variant selects the version set (default hybrid).
	Variant StencilVariant
	// Verify enables real computation and a numerical check.
	Verify bool
}

func (c *StencilConfig) fillDefaults() {
	if c.N == 0 {
		c.N = 8192
	}
	if c.BS == 0 {
		c.BS = 1024
	}
	if c.Sweeps == 0 {
		c.Sweeps = 8
	}
	if c.Variant == "" {
		c.Variant = StencilHybrid
	}
}

// StencilTaskType is the version-set name of the sweep task.
const StencilTaskType = "jacobi_tile"

// Stencil is a built Jacobi application instance.
type Stencil struct {
	cfg   StencilConfig
	tiles int

	// Real data (Verify mode): two full grids, ping-pong per sweep.
	grid [2][]float64
}

// BuildStencil declares the Jacobi task versions, registers the tile
// objects (two generations, ping-pong) and installs the master function.
func BuildStencil(r *ompss.Runtime, cfg StencilConfig) (*Stencil, error) {
	cfg.fillDefaults()
	if cfg.N%cfg.BS != 0 {
		return nil, fmt.Errorf("apps: stencil N=%d not divisible by BS=%d", cfg.N, cfg.BS)
	}
	app := &Stencil{cfg: cfg, tiles: cfg.N / cfg.BS}
	t := app.tiles
	bs := cfg.BS
	tileBytes := int64(bs) * int64(bs) * 8
	// Per-task footprint: center + up to 4 halo tiles read, 1 written.
	work := ompss.Work{
		Flops: 4 * float64(bs) * float64(bs), // 3 adds + 1 mul per point, counted as 4 flops
		Bytes: 6 * tileBytes,
		Elems: int64(bs) * int64(bs),
	}

	tt := r.DeclareTaskType(StencilTaskType)
	switch cfg.Variant {
	case StencilGPUOnly:
		tt.AddVersion("jacobi_tile_cuda", ompss.CUDA,
			ompss.Bandwidth{BytesPerSec: StencilGPUBytesPerSec, Overhead: gpuLaunchOverhead}, app.realTile)
	case StencilSMPOnly:
		tt.AddVersion("jacobi_tile_smp", ompss.SMP,
			ompss.Bandwidth{BytesPerSec: StencilSMPBytesPerSec}, app.realTile)
	case StencilHybrid:
		tt.AddVersion("jacobi_tile_cuda", ompss.CUDA,
			ompss.Bandwidth{BytesPerSec: StencilGPUBytesPerSec, Overhead: gpuLaunchOverhead}, app.realTile)
		tt.AddVersion("jacobi_tile_smp", ompss.SMP,
			ompss.Bandwidth{BytesPerSec: StencilSMPBytesPerSec}, app.realTile)
	default:
		return nil, fmt.Errorf("apps: unknown stencil variant %q", cfg.Variant)
	}

	// Two generations of tile objects (Jacobi is not in-place).
	var gen [2][][]*ompss.Object
	for g := 0; g < 2; g++ {
		gen[g] = make([][]*ompss.Object, t)
		for i := 0; i < t; i++ {
			gen[g][i] = make([]*ompss.Object, t)
			for j := 0; j < t; j++ {
				gen[g][i][j] = r.Register(fmt.Sprintf("U%d[%d][%d]", g, i, j), tileBytes)
			}
		}
	}
	if cfg.Verify {
		app.initData()
	}

	// Every sweep submits the same tile pattern; only the grid parity
	// alternates. The two parities' boxed args are built once (boxing a
	// [3]int per Submit allocates); the kernel only consumes s mod 2, so
	// boxing the parity preserves it.
	var genArgs [2][]any
	for p := 0; p < 2; p++ {
		genArgs[p] = make([]any, t*t)
		for i := 0; i < t; i++ {
			for j := 0; j < t; j++ {
				genArgs[p][i*t+j] = [3]int{i, j, p}
			}
		}
	}

	r.Main(func(m *ompss.Master) {
		var buf [6]ompss.Access // center, output, up to four halos
		for s := 0; s < cfg.Sweeps; s++ {
			p := s % 2
			cur, next := gen[p], gen[1-p]
			for i := 0; i < t; i++ {
				for j := 0; j < t; j++ {
					accs := append(buf[:0], ompss.In(cur[i][j]), ompss.Out(next[i][j]))
					if i > 0 {
						accs = append(accs, ompss.In(cur[i-1][j]))
					}
					if i < t-1 {
						accs = append(accs, ompss.In(cur[i+1][j]))
					}
					if j > 0 {
						accs = append(accs, ompss.In(cur[i][j-1]))
					}
					if j < t-1 {
						accs = append(accs, ompss.In(cur[i][j+1]))
					}
					m.Submit(tt, accs, work, genArgs[p][i*t+j])
				}
			}
		}
		m.Taskwait()
	})
	return app, nil
}

// TaskCount returns the number of sweep tasks submitted.
func (a *Stencil) TaskCount() int { return a.tiles * a.tiles * a.cfg.Sweeps }

// initData fills generation 0 with a deterministic bump and generation 1
// with zeros.
func (a *Stencil) initData() {
	n := a.cfg.N
	for g := 0; g < 2; g++ {
		a.grid[g] = make([]float64, n*n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.grid[0][i*n+j] = math.Sin(float64(i)*0.7) * math.Cos(float64(j)*0.3)
		}
	}
}

// realTile applies one Jacobi sweep to one tile (Verify mode). Boundary
// points keep their previous value (Dirichlet boundary held fixed).
func (a *Stencil) realTile(ctx *ompss.ExecContext) {
	if a.grid[0] == nil {
		return
	}
	idx := ctx.Task.Args.([3]int)
	ti, tj, s := idx[0], idx[1], idx[2]
	jacobiTile(a.grid[s%2], a.grid[(s+1)%2], a.cfg.N, ti*a.cfg.BS, tj*a.cfg.BS, a.cfg.BS)
}

// jacobiTile sweeps src into dst over the tile at (r0, c0).
func jacobiTile(src, dst []float64, n, r0, c0, bs int) {
	for i := r0; i < r0+bs; i++ {
		for j := c0; j < c0+bs; j++ {
			if i == 0 || j == 0 || i == n-1 || j == n-1 {
				dst[i*n+j] = src[i*n+j]
				continue
			}
			dst[i*n+j] = 0.25 * (src[(i-1)*n+j] + src[(i+1)*n+j] + src[i*n+j-1] + src[i*n+j+1])
		}
	}
}

// Check recomputes the sweeps sequentially and compares (Verify mode).
func (a *Stencil) Check() error {
	if a.grid[0] == nil {
		return fmt.Errorf("apps: stencil built without Verify")
	}
	n := a.cfg.N
	ref := [2][]float64{make([]float64, n*n), make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ref[0][i*n+j] = math.Sin(float64(i)*0.7) * math.Cos(float64(j)*0.3)
		}
	}
	for s := 0; s < a.cfg.Sweeps; s++ {
		jacobiTile(ref[s%2], ref[(s+1)%2], n, 0, 0, n)
	}
	got := a.grid[a.cfg.Sweeps%2]
	want := ref[a.cfg.Sweeps%2]
	for i := range want {
		if d := got[i] - want[i]; d > 1e-12 || d < -1e-12 {
			return fmt.Errorf("apps: stencil mismatch at %d: %g vs %g", i, got[i], want[i])
		}
	}
	return nil
}

// ResidualNorm returns the L2 norm of the difference between the last two
// generations — the Jacobi convergence measure (Verify mode).
func (a *Stencil) ResidualNorm() float64 {
	if a.grid[0] == nil {
		return 0
	}
	var sum float64
	for i := range a.grid[0] {
		d := a.grid[0][i] - a.grid[1][i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
