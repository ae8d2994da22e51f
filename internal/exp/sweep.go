package exp

import (
	"time"

	"repro/internal/stats"
)

// CellSummary aggregates one grid cell's seed replicas.
type CellSummary struct {
	App           string      `json:"app"`
	Size          Size        `json:"size"`
	Scheduler     string      `json:"scheduler"`
	Machine       MachineSpec `json:"machine"`
	SMPWorkers    int         `json:"smp"`
	GPUs          int         `json:"gpus"`
	Lambda        int         `json:"lambda"`
	SizeTolerance float64     `json:"size_tolerance"`
	EWMAAlpha     float64     `json:"ewma_alpha"`
	LocalityAware bool        `json:"locality_aware"`
	Chaos         string      `json:"chaos,omitempty"`
	Noise         float64     `json:"noise"`
	Replicas      int         `json:"replicas"`
	// Tasks is the per-run task count (identical across replicas — the
	// graph does not depend on the seed).
	Tasks int `json:"tasks"`
	// MakespanSec aggregates the virtual makespans, in seconds.
	MakespanSec stats.Dist `json:"makespan_s"`
	// GFlops aggregates achieved GFLOP/s.
	GFlops stats.Dist `json:"gflops"`
	// TxBytes aggregates total transferred bytes (input+output+device).
	TxBytes stats.Dist `json:"tx_bytes"`
	// Requeued aggregates tasks re-queued by fault injection per run,
	// and ReadaptSec the worst re-adaptation latency in virtual seconds
	// (both all-zero for no-chaos cells).
	Requeued   stats.Dist `json:"requeued"`
	ReadaptSec stats.Dist `json:"readapt_s"`
}

// SweepResult is a completed sweep: every run in grid-expansion order
// plus the per-cell aggregation. A budgeted campaign's result can be
// partial: Skipped lists the runs the budget priced out, their Runs
// entries are zero values, and cells with any skipped replica are
// excluded from Cells (so rendered outputs contain only fully resolved
// cells — still deterministic, still byte-stable at any parallelism).
type SweepResult struct {
	Grid  Grid          `json:"grid"`
	Runs  []RunResult   `json:"-"`
	Cells []CellSummary `json:"cells"`
	// Skipped lists budget-skipped runs in expansion order (empty for
	// unbudgeted campaigns). Like the cache counters it is an execution
	// fact, excluded from the deterministic outputs.
	Skipped []SkippedRun `json:"-"`
	// BudgetAdmitted counts the uncached runs the budget let through —
	// the denominator of the skip report's admission decision. Cache
	// hits are not admitted (they cost nothing); always zero without a
	// budget.
	BudgetAdmitted int `json:"-"`
	// Simulated and CacheHits count how the runs were satisfied. Like
	// Wall they are execution facts, not results, and are excluded from
	// the deterministic outputs (a warm re-run must stay byte-identical
	// to a cold one).
	Simulated int `json:"-"`
	CacheHits int `json:"-"`
	// Requeued sums the fault-injection task re-queues across this
	// process's own simulated runs (see ClaimStats.Requeued) — an
	// execution fact like Simulated, zero on warm renders.
	Requeued int64 `json:"-"`
	// PreRuns counts this process's faulted runs that pre-ran their
	// no-chaos baseline (see ClaimStats.PreRuns), an execution fact too.
	PreRuns int `json:"-"`
	// Wall is the host time for the whole sweep (not written to CSV/JSON
	// outputs, which must be deterministic).
	Wall time.Duration `json:"-"`
}

// aggregate groups consecutive replicas (expansion order puts a cell's
// replicas adjacent) into CellSummaries. Groups touching a skipped run
// (budgeted campaigns) are left out entirely: a summary over a partial
// replica set would be a different statistic, not a partial one.
func aggregate(runs []RunResult, replicas int, skipped map[int]bool) []CellSummary {
	if replicas <= 0 {
		replicas = 1
	}
	cells := make([]CellSummary, 0, len(runs)/replicas)
group:
	for i := 0; i < len(runs); i += replicas {
		group := runs[i : i+replicas]
		for j := range group {
			if skipped[i+j] {
				continue group
			}
		}
		spec := group[0].Spec
		c := CellSummary{
			App:           spec.App,
			Size:          spec.Size,
			Scheduler:     spec.Scheduler,
			Machine:       spec.Machine,
			SMPWorkers:    spec.SMPWorkers,
			GPUs:          spec.GPUs,
			Lambda:        spec.Lambda,
			SizeTolerance: spec.SizeTolerance,
			EWMAAlpha:     spec.EWMAAlpha,
			LocalityAware: spec.LocalityAware,
			Chaos:         spec.Chaos,
			Noise:         spec.NoiseSigma,
			Replicas:      len(group),
			Tasks:         group[0].Tasks,
		}
		makespans := make([]float64, len(group))
		gflops := make([]float64, len(group))
		tx := make([]float64, len(group))
		requeued := make([]float64, len(group))
		readapt := make([]float64, len(group))
		for j, r := range group {
			makespans[j] = r.Elapsed.Seconds()
			gflops[j] = r.GFlops
			tx[j] = float64(r.TotalTxBytes())
			requeued[j] = float64(r.TasksRequeued)
			readapt[j] = r.ReadaptSec
		}
		c.MakespanSec = stats.NewDist(makespans)
		c.GFlops = stats.NewDist(gflops)
		c.TxBytes = stats.NewDist(tx)
		c.Requeued = stats.NewDist(requeued)
		c.ReadaptSec = stats.NewDist(readapt)
		cells = append(cells, c)
	}
	return cells
}
