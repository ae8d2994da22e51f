package apps

import (
	"fmt"
	"math"

	"repro/ompss"
)

// PBPI is a parallel Bayesian phylogenetic inference code: a Markov chain
// Monte Carlo sampler whose per-generation cost is dominated by three
// computational loops (Section V-B3). The paper's input is a DNA data set
// of 50 000 elements (500 MB); that data is proprietary-scale biology
// data we do not have, so this reproduction generates a synthetic
// alignment with the same element count, footprint and loop/task
// structure — the scheduler-visible behaviour (task counts, data-set
// sizes, SMP:GPU speed ratios, transfer pattern) is what matters, and all
// of it is preserved:
//
//   - loop 1: per-segment partial-likelihood recomputation (taskified;
//     SMP and/or GPU versions);
//   - loop 2: per-chunk site-likelihood evaluation — the "hundreds of
//     thousands of tasks" loop (taskified; SMP and/or GPU versions);
//   - loop 3: the log-likelihood reduction and chain-state update, always
//     a single SMP task (as in the paper), which forces loop-2 results
//     back to host memory every generation.
//
// The SMP loop bodies are ~3.5x slower than the GPU ones ("the task
// itself is between three and four times slower for the SMP versions"),
// while the GPU pays the generation-boundary transfers.
const (
	// PBPIElements is the paper's data-set element count.
	PBPIElements = 50000
	// PBPIDataBytes is the paper's data-set footprint (500 MB).
	PBPIDataBytes = 500 << 20

	// Loop kernel calibration (per element, nanoseconds).
	pbpiLoop1SMPNsPerElem = 3000.0
	pbpiLoop1GPUNsPerElem = 857.0 // 3.5x faster
	pbpiLoop2SMPNsPerElem = 3100.0
	pbpiLoop2GPUNsPerElem = 886.0
	// loop 3 is a small reduction on the host.
	pbpiLoop3Time = 200e3 // ns

	// Data sizes derived per segment/chunk.
	pbpiPartialBytesPerSeg = 8 << 20
	pbpiLikBytesPerChunk   = 200 << 10
	pbpiChainStateBytes    = 4 << 20
)

// PBPIVariant selects which loop implementations exist.
type PBPIVariant string

const (
	// PBPISMP is pbpi-smp: SMP versions only; data never leaves host.
	PBPISMP PBPIVariant = "smp"
	// PBPIGPU is pbpi-gpu: loops 1 and 2 have only GPU versions.
	PBPIGPU PBPIVariant = "gpu"
	// PBPIHybrid is pbpi-hyb: loops 1 and 2 have both.
	PBPIHybrid PBPIVariant = "hyb"
)

// PBPIConfig sizes the sampler.
type PBPIConfig struct {
	// Elements is the alignment length (paper: 50000).
	Elements int
	// Segments partitions the alignment for loop-1 tasks.
	Segments int
	// Loop2Chunks is the number of loop-2 tasks per segment per
	// generation (the paper's run reaches hundreds of thousands of
	// loop-2 tasks in total).
	Loop2Chunks int
	// Generations is the Markov chain length.
	Generations int
	// Variant selects smp/gpu/hyb.
	Variant PBPIVariant
	// Verify runs the real (tiny) computation and records the final
	// log-likelihood for cross-scheduler comparison.
	Verify bool
}

func (c *PBPIConfig) fillDefaults() {
	if c.Elements == 0 {
		c.Elements = PBPIElements
	}
	if c.Segments == 0 {
		c.Segments = 8
	}
	if c.Loop2Chunks == 0 {
		c.Loop2Chunks = 32
	}
	if c.Generations == 0 {
		c.Generations = 20
	}
	if c.Variant == "" {
		c.Variant = PBPIHybrid
	}
}

// PBPI is a built sampler instance.
type PBPI struct {
	cfg PBPIConfig
	rt  *ompss.Runtime

	// Real data (Verify mode).
	seq     [][]float64 // per segment
	partial [][]float64 // per segment
	lik     [][]float64 // per segment*chunk
	state   []float64
	// LogLik is the final chain log-likelihood (Verify mode), a
	// deterministic function of the synthetic data — equal across
	// schedulers.
	LogLik float64
}

// Task type names.
const (
	PBPILoop1Type = "pbpi_loop1"
	PBPILoop2Type = "pbpi_loop2"
	PBPILoop3Type = "pbpi_loop3"
)

// BuildPBPI declares the three loop task types, registers the synthetic
// data set and installs the master function.
func BuildPBPI(r *ompss.Runtime, cfg PBPIConfig) (*PBPI, error) {
	cfg.fillDefaults()
	if cfg.Elements%cfg.Segments != 0 {
		return nil, fmt.Errorf("apps: pbpi Elements=%d not divisible by Segments=%d", cfg.Elements, cfg.Segments)
	}
	app := &PBPI{cfg: cfg, rt: r}
	elemsPerSeg := cfg.Elements / cfg.Segments
	elemsPerChunk := (elemsPerSeg + cfg.Loop2Chunks - 1) / cfg.Loop2Chunks
	seqBytesPerSeg := int64(PBPIDataBytes) / int64(cfg.Segments) *
		int64(cfg.Elements) / int64(PBPIElements) // scale footprint with element count

	loop1 := r.DeclareTaskType(PBPILoop1Type)
	loop2 := r.DeclareTaskType(PBPILoop2Type)
	loop3 := r.DeclareTaskType(PBPILoop3Type)
	switch cfg.Variant {
	case PBPISMP:
		loop1.AddVersion("loop1_smp", ompss.SMP, ompss.PerElement{NsPerElem: pbpiLoop1SMPNsPerElem}, app.realLoop1)
		loop2.AddVersion("loop2_smp", ompss.SMP, ompss.PerElement{NsPerElem: pbpiLoop2SMPNsPerElem}, app.realLoop2)
	case PBPIGPU:
		loop1.AddVersion("loop1_gpu", ompss.CUDA, ompss.PerElement{NsPerElem: pbpiLoop1GPUNsPerElem, Overhead: gpuLaunchOverhead}, app.realLoop1)
		loop2.AddVersion("loop2_gpu", ompss.CUDA, ompss.PerElement{NsPerElem: pbpiLoop2GPUNsPerElem, Overhead: gpuLaunchOverhead}, app.realLoop2)
	case PBPIHybrid:
		loop1.AddVersion("loop1_gpu", ompss.CUDA, ompss.PerElement{NsPerElem: pbpiLoop1GPUNsPerElem, Overhead: gpuLaunchOverhead}, app.realLoop1)
		loop1.AddVersion("loop1_smp", ompss.SMP, ompss.PerElement{NsPerElem: pbpiLoop1SMPNsPerElem}, app.realLoop1)
		loop2.AddVersion("loop2_gpu", ompss.CUDA, ompss.PerElement{NsPerElem: pbpiLoop2GPUNsPerElem, Overhead: gpuLaunchOverhead}, app.realLoop2)
		loop2.AddVersion("loop2_smp", ompss.SMP, ompss.PerElement{NsPerElem: pbpiLoop2SMPNsPerElem}, app.realLoop2)
	default:
		return nil, fmt.Errorf("apps: unknown pbpi variant %q", cfg.Variant)
	}
	// The third computational loop is always SMP-targeted (Section V-B3).
	loop3.AddVersion("loop3_smp", ompss.SMP, ompss.Fixed{D: pbpiLoop3Time}, app.realLoop3)

	seq := make([]*ompss.Object, cfg.Segments)
	partial := make([]*ompss.Object, cfg.Segments)
	lik := make([]*ompss.Object, cfg.Segments*cfg.Loop2Chunks)
	for s := 0; s < cfg.Segments; s++ {
		seq[s] = r.Register(fmt.Sprintf("seq[%d]", s), seqBytesPerSeg)
		partial[s] = r.Register(fmt.Sprintf("partial[%d]", s), pbpiPartialBytesPerSeg)
		for c := 0; c < cfg.Loop2Chunks; c++ {
			lik[s*cfg.Loop2Chunks+c] = r.Register(fmt.Sprintf("lik[%d][%d]", s, c), pbpiLikBytesPerChunk)
		}
	}
	chain := r.Register("chainState", pbpiChainStateBytes)
	if cfg.Verify {
		app.initData()
	}

	// The boxed args depend only on (s) / (s, c), never on g, so they are
	// boxed once rather than per Submit (boxing a [2]int allocates). The
	// loop-3 access list is the same every generation too; Submit copies
	// it into each task.
	loop1Args := make([]any, cfg.Segments)
	loop2Args := make([]any, cfg.Segments*cfg.Loop2Chunks)
	for s := 0; s < cfg.Segments; s++ {
		loop1Args[s] = s
		for c := 0; c < cfg.Loop2Chunks; c++ {
			loop2Args[s*cfg.Loop2Chunks+c] = [2]int{s, c}
		}
	}
	loop3Accs := make([]ompss.Access, 0, len(lik)+1)
	for _, l := range lik {
		loop3Accs = append(loop3Accs, ompss.In(l))
	}
	loop3Accs = append(loop3Accs, ompss.InOut(chain))
	loop1Work := ompss.Work{Elems: int64(elemsPerSeg), Bytes: seqBytesPerSeg + pbpiPartialBytesPerSeg}
	loop2Work := ompss.Work{Elems: int64(elemsPerChunk), Bytes: pbpiPartialBytesPerSeg}
	loop3Work := ompss.Work{Elems: int64(len(lik))}

	r.Main(func(m *ompss.Master) {
		for g := 0; g < cfg.Generations; g++ {
			for s := 0; s < cfg.Segments; s++ {
				m.Submit(loop1, []ompss.Access{ompss.In(seq[s]), ompss.In(chain), ompss.InOut(partial[s])}, loop1Work, loop1Args[s])
			}
			for s := 0; s < cfg.Segments; s++ {
				for c := 0; c < cfg.Loop2Chunks; c++ {
					i := s*cfg.Loop2Chunks + c
					m.Submit(loop2, []ompss.Access{ompss.In(partial[s]), ompss.Out(lik[i])}, loop2Work, loop2Args[i])
				}
			}
			m.Submit(loop3, loop3Accs, loop3Work, nil)
		}
		m.Taskwait()
	})
	return app, nil
}

// TaskCount returns the tasks per full run.
func (a *PBPI) TaskCount() int {
	perGen := a.cfg.Segments + a.cfg.Segments*a.cfg.Loop2Chunks + 1
	return perGen * a.cfg.Generations
}

// --- real computation (Verify mode): a deterministic toy MCMC whose
// final log-likelihood must be identical under every scheduler. ---

func (a *PBPI) initData() {
	segs := a.cfg.Segments
	elems := a.cfg.Elements / segs
	a.seq = make([][]float64, segs)
	a.partial = make([][]float64, segs)
	for s := 0; s < segs; s++ {
		a.seq[s] = make([]float64, elems)
		for i := range a.seq[s] {
			a.seq[s][i] = float64((s*31+i*17)%97) / 97
		}
		a.partial[s] = make([]float64, elems)
	}
	a.lik = make([][]float64, segs*a.cfg.Loop2Chunks)
	chunk := (elems + a.cfg.Loop2Chunks - 1) / a.cfg.Loop2Chunks
	for i := range a.lik {
		a.lik[i] = make([]float64, chunk)
	}
	a.state = []float64{1.0}
}

// realLoop1 recomputes a segment's partial likelihoods from the sequence
// data and the chain state.
func (a *PBPI) realLoop1(ctx *ompss.ExecContext) {
	if a.seq == nil {
		return
	}
	s := ctx.Task.Args.(int)
	theta := a.state[0]
	for i, x := range a.seq[s] {
		a.partial[s][i] = math.Exp(-theta * x)
	}
}

// realLoop2 evaluates site likelihoods for one chunk.
func (a *PBPI) realLoop2(ctx *ompss.ExecContext) {
	if a.seq == nil {
		return
	}
	args := ctx.Task.Args.([2]int)
	s, c := args[0], args[1]
	elems := len(a.partial[s])
	chunk := (elems + a.cfg.Loop2Chunks - 1) / a.cfg.Loop2Chunks
	out := a.lik[s*a.cfg.Loop2Chunks+c]
	for i := range out {
		idx := c*chunk + i
		if idx < elems {
			out[i] = math.Log(a.partial[s][idx] + 1e-9)
		} else {
			out[i] = 0
		}
	}
}

// realLoop3 reduces the site likelihoods and advances the chain state
// deterministically (a fixed "acceptance" rule in place of random MCMC
// moves, so every scheduler produces the identical chain).
func (a *PBPI) realLoop3(ctx *ompss.ExecContext) {
	if a.seq == nil {
		return
	}
	var sum float64
	for _, l := range a.lik {
		for _, x := range l {
			sum += x
		}
	}
	a.LogLik = sum
	// Deterministic proposal: nudge theta toward 0.5 scaled by the
	// (bounded) likelihood signal.
	a.state[0] = 0.5 + 0.4*math.Tanh(sum/float64(a.cfg.Elements)/10)
}
