// Package ompss is the public API of the OmpSs versioning-scheduler
// reproduction: a task-based runtime in the style of OmpSs/Nanos++ that
// runs applications over a simulated heterogeneous node (SMP cores +
// GPUs) in deterministic virtual time.
//
// The headline feature is the paper's contribution: task types may carry
// multiple implementations ("versions", the `implements` clause), and the
// versioning scheduler profiles them online and picks the earliest
// executor for every task. Three classic schedulers (breadth-first,
// dependency-aware, affinity) are available for comparison; they run only
// each task's main implementation.
//
// A minimal program:
//
//	r, _ := ompss.NewRuntime(ompss.Config{SMPWorkers: 4, GPUs: 1})
//	mul := r.DeclareTaskType("mul")
//	mul.AddVersion("mul_gpu", ompss.CUDA, ompss.Throughput{GFlops: 300}, nil)
//	mul.AddVersion("mul_smp", ompss.SMP, ompss.Throughput{GFlops: 5}, nil)
//	a := r.Register("a", 8<<20)
//	r.Main(func(m *ompss.Master) {
//		m.Submit(mul, []ompss.Access{ompss.InOut(a)}, ompss.Work{Flops: 2e9}, nil)
//		m.Taskwait()
//	})
//	res := r.Execute()
//	fmt.Println(res.Elapsed, res.GFlops)
//
// Submit copies its access list into the task, so a literal like the one
// above stays on the master's stack, and a loop may rebuild one scratch
// slice for every task it submits.
package ompss

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/deps"
	"repro/internal/hints"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/perfmodel"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/sched/versioning"
	"repro/internal/trace"
	"repro/internal/verprof"
	"repro/internal/xfer"
)

// Re-exported core types: the facade keeps one import path for users.
type (
	// Machine describes the simulated node.
	Machine = machine.Machine
	// DeviceKind selects a device class for a task version.
	DeviceKind = machine.DeviceKind
	// Access is one dependence clause (input/output/inout over an object
	// or byte range).
	Access = deps.Access
	// Work describes the computation of one task instance.
	Work = perfmodel.Work
	// Model estimates a version's duration (stands in for the hardware).
	Model = perfmodel.Model
	// TaskType is a set of versions implementing the same task.
	TaskType = rt.TaskType
	// Version is one registered implementation.
	Version = rt.Version
	// Task is one submitted task instance.
	Task = rt.Task
	// Master is the application main thread inside the runtime.
	Master = rt.Master
	// ExecContext is passed to real Go implementations.
	ExecContext = rt.ExecContext
	// StrandedError is the panic value of Execute when faults leave
	// ready tasks that no up worker can run.
	StrandedError = rt.StrandedError
	// Object is a registered data region.
	Object = mem.Object
	// Throughput models a compute-bound kernel (GFLOP/s + overhead).
	Throughput = perfmodel.Throughput
	// PerElement models a per-element kernel.
	PerElement = perfmodel.PerElement
	// Fixed models a constant-duration kernel.
	Fixed = perfmodel.Fixed
	// Bandwidth models a memory-bound streaming kernel.
	Bandwidth = perfmodel.Bandwidth
	// Scaled derives a model as a multiple of another.
	Scaled = perfmodel.Scaled
	// Tracer collects per-task and per-transfer records.
	Tracer = trace.Tracer
)

// Device kinds accepted by AddVersion (the OmpSs device(...) clause).
const (
	SMP  = machine.KindSMP
	CUDA = machine.KindCUDA
)

// Dependence clause constructors (whole-object and byte-range forms,
// plus the commutative clause).
var (
	In          = deps.In
	Out         = deps.Out
	InOut       = deps.InOut
	InRange     = deps.InRange
	OutRange    = deps.OutRange
	InOutRange  = deps.InOutRange
	Commutative = deps.Commutative
)

// MinoTauro builds the paper's evaluation node (cores in 1..12, GPUs in
// 0..2).
func MinoTauro(cores, gpus int) *Machine { return machine.MinoTauro(cores, gpus) }

// Config selects the machine, workers and scheduling policy of a run.
// The zero value of every field has a sensible default.
type Config struct {
	// Machine is the node model; nil selects MinoTauro sized to the
	// worker counts.
	Machine *Machine
	// Scheduler is the policy name: "versioning" (default), "dep",
	// "affinity" or "bf" — the OmpSs plug-in selection (NX_SCHEDULE).
	Scheduler string
	// SMPWorkers is the number of SMP worker threads (default 1).
	SMPWorkers int
	// GPUs is the number of GPU workers (default 0).
	GPUs int
	// Lambda is the versioning learning threshold (default 3).
	Lambda int
	// SizeTolerance enables the size-range grouping extension (0 = the
	// paper's exact matching).
	SizeTolerance float64
	// EWMAAlpha enables the weighted-mean extension (0 = arithmetic).
	EWMAAlpha float64
	// ConfidenceCV enables the confidence-gated learning extension: a
	// size group is trusted only once every version's coefficient of
	// variation falls below this bound (0 = the paper's fixed lambda).
	ConfidenceCV float64
	// LocalityAware enables the versioning scheduler's data-locality
	// extension (paper future work, Section VII): near-tied earliest
	// executors are broken toward the worker already holding the data.
	LocalityAware bool
	// HintsFile, if set and existing, pre-seeds the versioning profiles
	// (XML hints, the paper's future-work warm start). Ignored by other
	// schedulers.
	HintsFile string
	// NoPrefetch disables transfer/compute overlap (on by default, as in
	// the evaluation).
	NoPrefetch bool
	// NoTrace runs without a trace: Execute and Result still report every
	// figure, but the trace analyses (EnergyReport, CriticalPath,
	// Summarize, Timeline, WriteParaver*, ValidateTrace) fail and Tracer
	// returns nil. Runs that only need the Result are cheaper this way.
	NoTrace bool
	// NoiseSigma adds log-normal execution-time jitter (0 = exact).
	NoiseSigma float64
	// Seed seeds the jitter RNG.
	Seed int64
	// RealCompute executes the versions' real Go code.
	RealCompute bool
	// CreateOverhead is the per-task creation cost on the master thread.
	CreateOverhead time.Duration
}

func (c *Config) fillDefaults() {
	if c.Scheduler == "" {
		c.Scheduler = "versioning"
	}
	if c.SMPWorkers <= 0 {
		c.SMPWorkers = 1
	}
	if c.GPUs < 0 {
		c.GPUs = 0
	}
	if c.Machine == nil {
		cores := c.SMPWorkers
		if cores > machine.MinoTauroCores {
			cores = machine.MinoTauroCores
		}
		gpus := c.GPUs
		if gpus > machine.MinoTauroGPUs {
			gpus = machine.MinoTauroGPUs
		}
		c.Machine = machine.MinoTauro(cores, gpus)
	}
}

// Runtime wraps the task runtime with policy construction, hints and
// result summarization.
type Runtime struct {
	*rt.Runtime
	cfg    Config
	vsched *versioning.Versioning // non-nil when the policy is "versioning"
}

// NewRuntime builds a runtime from the configuration.
func NewRuntime(cfg Config) (*Runtime, error) {
	cfg.fillDefaults()
	if cfg.NoiseSigma < 0 || math.IsNaN(cfg.NoiseSigma) {
		return nil, fmt.Errorf("ompss: noise sigma %v: want a non-negative number", cfg.NoiseSigma)
	}

	var policy rt.Scheduler
	var vs *versioning.Versioning
	if cfg.Scheduler == "versioning" {
		store := verprof.NewStore(cfg.Lambda)
		store.SizeTolerance = cfg.SizeTolerance
		store.EWMAAlpha = cfg.EWMAAlpha
		store.ConfidenceCV = cfg.ConfidenceCV
		if cfg.HintsFile != "" {
			if _, err := os.Stat(cfg.HintsFile); err == nil {
				if err := hints.LoadFile(cfg.HintsFile, store); err != nil {
					return nil, fmt.Errorf("ompss: loading hints: %w", err)
				}
			}
		}
		vs = versioning.New(versioning.Options{Store: store, LocalityAware: cfg.LocalityAware})
		policy = vs
	} else {
		p, err := sched.New(cfg.Scheduler)
		if err != nil {
			return nil, err
		}
		if s, ok := p.(sched.Seedable); ok {
			s.SetSeed(cfg.Seed)
		}
		policy = p
	}

	inner := rt.New(rt.Config{
		Machine:        cfg.Machine,
		SMPWorkers:     cfg.SMPWorkers,
		GPUWorkers:     cfg.GPUs,
		Scheduler:      policy,
		NoiseSigma:     cfg.NoiseSigma,
		Seed:           cfg.Seed,
		Prefetch:       !cfg.NoPrefetch,
		RealCompute:    cfg.RealCompute,
		CreateOverhead: cfg.CreateOverhead,
		NoTrace:        cfg.NoTrace,
	})
	return &Runtime{Runtime: inner, cfg: cfg, vsched: vs}, nil
}

// Main registers the application's main function (the master thread).
func (r *Runtime) Main(fn func(m *Master)) { r.SpawnMain(fn) }

// Execute runs the simulation to completion and summarizes.
func (r *Runtime) Execute() Result {
	r.Run()
	return r.Result()
}

// Result summarizes the run so far.
func (r *Runtime) Result() Result {
	fb := r.Fabric()
	return Result{
		Scheduler:      r.cfg.Scheduler,
		SMPWorkers:     r.cfg.SMPWorkers,
		GPUs:           r.cfg.GPUs,
		Elapsed:        r.Now().Duration(),
		GFlops:         r.GFlops(),
		Tasks:          r.TasksCompleted(),
		InputTxBytes:   fb.TotalBytes[xfer.CatInput],
		OutputTxBytes:  fb.TotalBytes[xfer.CatOutput],
		DeviceTxBytes:  fb.TotalBytes[xfer.CatDevice],
		VersionCounts:  r.VersionCounts(),
		FaultsInjected: r.FaultsInjected,
		TasksRequeued:  r.TasksRequeued,
		ReadaptSec:     r.ReadaptMax.Seconds(),
	}
}

// ProfileStore exposes the versioning scheduler's profile store (nil for
// other policies).
func (r *Runtime) ProfileStore() *verprof.Store {
	if r.vsched == nil {
		return nil
	}
	return r.vsched.Store()
}

// ProfileTable renders the profiles in the layout of the paper's Table I
// (empty for non-versioning policies).
func (r *Runtime) ProfileTable() string {
	if r.vsched == nil {
		return ""
	}
	return verprof.FormatTable(r.vsched.Store().Snapshot())
}

// SaveHints persists the versioning profiles as an XML hints file; it is
// an error for other policies.
func (r *Runtime) SaveHints(path string) error {
	if r.vsched == nil {
		return fmt.Errorf("ompss: scheduler %q has no profiles to save", r.cfg.Scheduler)
	}
	return hints.SaveFile(path, r.vsched.Store())
}

// Result is the summary of one run: the quantities the paper's evaluation
// reports.
type Result struct {
	Scheduler  string
	SMPWorkers int
	GPUs       int
	// Elapsed is the virtual makespan.
	Elapsed time.Duration
	// GFlops is achieved GFLOP/s (Figures 6 and 9).
	GFlops float64
	// Tasks is the number of executed task instances.
	Tasks int
	// Transfer volumes by category (Figures 7, 10, 13).
	InputTxBytes  int64
	OutputTxBytes int64
	DeviceTxBytes int64
	// VersionCounts maps task type -> version -> executions (Figures 8,
	// 11, 14, 15).
	VersionCounts map[string]map[string]int
	// Fault-injection outcomes (zero unless a chaos plan was armed):
	// chaos events applied, tasks re-queued by device drops, and the
	// worst re-adaptation latency in virtual seconds.
	FaultsInjected int64
	TasksRequeued  int64
	ReadaptSec     float64
}

// TotalTxBytes is the sum of all three transfer categories.
func (r Result) TotalTxBytes() int64 {
	return r.InputTxBytes + r.OutputTxBytes + r.DeviceTxBytes
}

// VersionShare returns the fraction of a task type's instances that ran
// a given version (0 if the type never ran).
func (r Result) VersionShare(taskType, version string) float64 {
	counts := r.VersionCounts[taskType]
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(counts[version]) / float64(total)
}

func (r Result) String() string {
	return fmt.Sprintf("%s smp=%d gpu=%d: %.3fs, %.1f GFLOP/s, %d tasks, tx in/out/dev = %s/%s/%s",
		r.Scheduler, r.SMPWorkers, r.GPUs, r.Elapsed.Seconds(), r.GFlops, r.Tasks,
		fmtBytes(r.InputTxBytes), fmtBytes(r.OutputTxBytes), fmtBytes(r.DeviceTxBytes))
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
