package apps

import (
	"fmt"
	"math"

	"repro/ompss"
)

// Direct-summation N-body: a compute-bound workload whose force phase is
// embarrassingly parallel across block pairs while the update phase is a
// narrow per-block chain — the opposite profile of the stencil. All-pairs
// gravity is the textbook GPU win (O(n^2) flops over O(n) bytes), so the
// interesting scheduling question is whether the versioning scheduler
// keeps SMP workers contributing on the cheap update tasks while the GPUs
// grind the force blocks.
//
// Calibration: an all-pairs force kernel sustains ~200 GFLOP/s on an
// M2090 (it is FMA-dense and cache-friendly) and ~4 GFLOP/s on one Xeon
// E5649 core; updates are trivially memory-bound.
const (
	NBodyForceGPUGFlops = 200.0
	NBodyForceSMPGFlops = 4.0
	// flops per body-body interaction (dx,dy,dz, r2, inv sqrt, accum).
	nbodyFlopsPerPair = 20.0
)

// NBodyVariant selects which implementations the application provides.
type NBodyVariant string

const (
	// NBodyGPU gives only the CUDA force kernel (updates stay on SMP).
	NBodyGPU NBodyVariant = "gpu"
	// NBodyHybrid gives CUDA + SMP force kernels.
	NBodyHybrid NBodyVariant = "hyb"
)

// NBodyConfig sizes the simulation.
type NBodyConfig struct {
	// N is the number of bodies (default 65536).
	N int
	// BS is the block size in bodies (default 8192).
	BS int
	// Steps is the number of leapfrog steps (default 4).
	Steps int
	// Variant selects the version set (default hybrid).
	Variant NBodyVariant
	// Commutative declares the force accumulations with the OmpSs
	// commutative clause instead of an inout chain: the j-blocks of one
	// accumulator may then run in any order (still mutually excluded),
	// so a free device can take whichever block is staged first.
	Commutative bool
	// Verify enables real computation and a numerical check.
	Verify bool
}

func (c *NBodyConfig) fillDefaults() {
	if c.N == 0 {
		c.N = 65536
	}
	if c.BS == 0 {
		c.BS = 8192
	}
	if c.Steps == 0 {
		c.Steps = 4
	}
	if c.Variant == "" {
		c.Variant = NBodyHybrid
	}
}

// Task-type names of the two phases.
const (
	NBodyForceTaskType  = "nbody_force"
	NBodyUpdateTaskType = "nbody_update"
)

const nbodyDt = 0.01

// NBody is a built N-body application instance.
type NBody struct {
	cfg    NBodyConfig
	blocks int

	// Real data (Verify mode): structure-of-arrays per block.
	pos, vel, acc [][]float64 // [block][3*BS]
}

// BuildNBody declares the force/update task versions, registers the
// per-block objects and installs the master function.
func BuildNBody(r *ompss.Runtime, cfg NBodyConfig) (*NBody, error) {
	cfg.fillDefaults()
	if cfg.N%cfg.BS != 0 {
		return nil, fmt.Errorf("apps: nbody N=%d not divisible by BS=%d", cfg.N, cfg.BS)
	}
	app := &NBody{cfg: cfg, blocks: cfg.N / cfg.BS}
	nb := app.blocks
	bs := cfg.BS
	blockBytes := int64(bs) * 3 * 8
	forceWork := ompss.Work{
		Flops: nbodyFlopsPerPair * float64(bs) * float64(bs),
		Bytes: 3 * blockBytes, // pos i, pos j, acc i
		Elems: int64(bs) * int64(bs),
	}
	updateWork := ompss.Work{
		Flops: 12 * float64(bs),
		Bytes: 3 * blockBytes,
		Elems: int64(bs),
	}

	force := r.DeclareTaskType(NBodyForceTaskType)
	force.AddVersion("nbody_force_cuda", ompss.CUDA,
		ompss.Throughput{GFlops: NBodyForceGPUGFlops, Overhead: gpuLaunchOverhead}, app.realForce)
	if cfg.Variant == NBodyHybrid {
		force.AddVersion("nbody_force_smp", ompss.SMP,
			ompss.Throughput{GFlops: NBodyForceSMPGFlops}, app.realForce)
	}
	update := r.DeclareTaskType(NBodyUpdateTaskType)
	update.AddVersion("nbody_update_smp", ompss.SMP,
		ompss.Bandwidth{BytesPerSec: StencilSMPBytesPerSec}, app.realUpdate)

	posObj := make([]*ompss.Object, nb)
	velObj := make([]*ompss.Object, nb)
	accObj := make([]*ompss.Object, nb)
	for i := 0; i < nb; i++ {
		posObj[i] = r.Register(fmt.Sprintf("pos[%d]", i), blockBytes)
		velObj[i] = r.Register(fmt.Sprintf("vel[%d]", i), blockBytes)
		accObj[i] = r.Register(fmt.Sprintf("acc[%d]", i), blockBytes)
	}
	if cfg.Verify {
		app.initData()
	}

	// Every step submits the identical dependence pattern, and the boxed
	// args depend only on the block pair, never on the step, so they are
	// boxed once rather than per Submit (boxing a [2]int allocates).
	forceArgs := make([]any, nb*nb)
	updateArgs := make([]any, nb)
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			forceArgs[i*nb+j] = [2]int{i, j}
		}
		updateArgs[i] = i
	}

	r.Main(func(m *ompss.Master) {
		var buf [3]ompss.Access // own positions, the source's, the accumulator
		for s := 0; s < cfg.Steps; s++ {
			for i := 0; i < nb; i++ {
				for j := 0; j < nb; j++ {
					accs := append(buf[:0], ompss.In(posObj[i]))
					if j != i {
						accs = append(accs, ompss.In(posObj[j]))
					}
					switch {
					case j == 0:
						// First pair overwrites the accumulator: no
						// dependence on last step's acc contents.
						accs = append(accs, ompss.Out(accObj[i]))
					case cfg.Commutative:
						accs = append(accs, ompss.Commutative(accObj[i]))
					default:
						accs = append(accs, ompss.InOut(accObj[i]))
					}
					m.Submit(force, accs, forceWork, forceArgs[i*nb+j])
				}
			}
			for i := 0; i < nb; i++ {
				m.Submit(update, []ompss.Access{ompss.InOut(posObj[i]), ompss.InOut(velObj[i]), ompss.In(accObj[i])},
					updateWork, updateArgs[i])
			}
		}
		m.Taskwait()
	})
	return app, nil
}

// TaskCount returns the number of submitted tasks.
func (a *NBody) TaskCount() int {
	return a.cfg.Steps * (a.blocks*a.blocks + a.blocks)
}

// initData places bodies on a deterministic spiral with zero velocity.
func (a *NBody) initData() {
	nb, bs := a.blocks, a.cfg.BS
	a.pos = make([][]float64, nb)
	a.vel = make([][]float64, nb)
	a.acc = make([][]float64, nb)
	for b := 0; b < nb; b++ {
		a.pos[b] = make([]float64, 3*bs)
		a.vel[b] = make([]float64, 3*bs)
		a.acc[b] = make([]float64, 3*bs)
		for k := 0; k < bs; k++ {
			g := float64(b*bs + k)
			a.pos[b][3*k+0] = math.Cos(g*0.5) * (1 + g*0.01)
			a.pos[b][3*k+1] = math.Sin(g*0.5) * (1 + g*0.01)
			a.pos[b][3*k+2] = g * 0.001
		}
	}
}

// realForce accumulates block j's gravity on block i (Verify mode).
func (a *NBody) realForce(ctx *ompss.ExecContext) {
	if a.pos == nil {
		return
	}
	idx := ctx.Task.Args.([2]int)
	i, j := idx[0], idx[1]
	if j == 0 {
		for k := range a.acc[i] {
			a.acc[i][k] = 0
		}
	}
	forceBlock(a.pos[i], a.pos[j], a.acc[i], a.cfg.BS, i == j)
}

// realUpdate integrates one block (Verify mode).
func (a *NBody) realUpdate(ctx *ompss.ExecContext) {
	if a.pos == nil {
		return
	}
	i := ctx.Task.Args.(int)
	updateBlock(a.pos[i], a.vel[i], a.acc[i], a.cfg.BS)
}

// forceBlock adds the softened gravitational pull of src bodies onto dst
// accumulators (unit masses, softening eps^2 = 1e-4).
func forceBlock(dstPos, srcPos, dstAcc []float64, bs int, self bool) {
	const eps2 = 1e-4
	for p := 0; p < bs; p++ {
		px, py, pz := dstPos[3*p], dstPos[3*p+1], dstPos[3*p+2]
		var ax, ay, az float64
		for q := 0; q < bs; q++ {
			if self && p == q {
				continue
			}
			dx := srcPos[3*q] - px
			dy := srcPos[3*q+1] - py
			dz := srcPos[3*q+2] - pz
			r2 := dx*dx + dy*dy + dz*dz + eps2
			inv := 1 / (r2 * math.Sqrt(r2))
			ax += dx * inv
			ay += dy * inv
			az += dz * inv
		}
		dstAcc[3*p] += ax
		dstAcc[3*p+1] += ay
		dstAcc[3*p+2] += az
	}
}

// updateBlock advances positions and velocities one Euler step.
func updateBlock(pos, vel, acc []float64, bs int) {
	for k := 0; k < 3*bs; k++ {
		vel[k] += acc[k] * nbodyDt
		pos[k] += vel[k] * nbodyDt
	}
}

// Check recomputes the trajectory sequentially and compares (Verify mode).
func (a *NBody) Check() error {
	if a.pos == nil {
		return fmt.Errorf("apps: nbody built without Verify")
	}
	nb, bs := a.blocks, a.cfg.BS
	pos := make([][]float64, nb)
	vel := make([][]float64, nb)
	acc := make([][]float64, nb)
	for b := 0; b < nb; b++ {
		pos[b] = make([]float64, 3*bs)
		vel[b] = make([]float64, 3*bs)
		acc[b] = make([]float64, 3*bs)
		for k := 0; k < bs; k++ {
			g := float64(b*bs + k)
			pos[b][3*k+0] = math.Cos(g*0.5) * (1 + g*0.01)
			pos[b][3*k+1] = math.Sin(g*0.5) * (1 + g*0.01)
			pos[b][3*k+2] = g * 0.001
		}
	}
	for s := 0; s < a.cfg.Steps; s++ {
		for i := 0; i < nb; i++ {
			for k := range acc[i] {
				acc[i][k] = 0
			}
			for j := 0; j < nb; j++ {
				forceBlock(pos[i], pos[j], acc[i], bs, i == j)
			}
		}
		for i := 0; i < nb; i++ {
			updateBlock(pos[i], vel[i], acc[i], bs)
		}
	}
	for b := 0; b < nb; b++ {
		for k := range pos[b] {
			if d := pos[b][k] - a.pos[b][k]; d > 1e-9 || d < -1e-9 {
				return fmt.Errorf("apps: nbody mismatch block %d elem %d: %g vs %g",
					b, k, a.pos[b][k], pos[b][k])
			}
		}
	}
	return nil
}

// TotalEnergyProxy returns a cheap deterministic checksum of the state
// (sum of position coordinates), used by tests to detect divergence
// between two runs without a full reference.
func (a *NBody) TotalEnergyProxy() float64 {
	var sum float64
	for b := range a.pos {
		for _, v := range a.pos[b] {
			sum += v
		}
	}
	return sum
}
