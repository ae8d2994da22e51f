// Package harness defines one runnable experiment per table/figure of the
// paper's evaluation (Section V) and formats the same rows/series the
// paper reports. The cmd/ompss-bench tool and the root bench_test.go both
// drive these definitions.
//
// Absolute numbers come from the calibrated machine model, so they are
// not the authors' measurements; the shapes (who wins, by what factor,
// where crossovers fall) are the reproduction target, and each
// experiment states the shape it expects in its Report.Notes.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/exp"
	"repro/ompss"
)

// Options tune an experiment run.
type Options struct {
	// Quick shrinks problem sizes for fast CI runs; full sizes follow the
	// paper.
	Quick bool
	// Seed seeds execution-time jitter (same seed = same run).
	Seed int64
	// Noise is the log-normal execution-time jitter sigma.
	Noise float64
}

// Report is a rendered experiment result.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the report as an aligned text table.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(opts Options) (*Report, error)
}

// experiments is every experiment in paper order: Table I, the paper's
// figures in number order, then the extensions beyond the paper.
var experiments = []Experiment{
	{ID: "table1", Title: "TaskVersionSet data structure (profiling store dump)", Run: runTable1},
	{ID: "fig5", Title: "Earliest-executor scheduling decision (busy GPU vs idle SMP)", Run: runFig5},
	{ID: "fig6", Title: "Matrix multiplication performance (GFLOP/s)", Run: runFig6},
	{ID: "fig7", Title: "Data transferred for matrix multiplication (GB)", Run: runFig7},
	{ID: "fig8", Title: "Matrix multiplication task statistics for the versioning scheduler", Run: runFig8},
	{ID: "fig9", Title: "Cholesky factorization performance (GFLOP/s)", Run: runFig9},
	{ID: "fig10", Title: "Data transferred for Cholesky (GB)", Run: runFig10},
	{ID: "fig11", Title: "Cholesky task statistics for the versioning scheduler (potrf versions)", Run: runFig11},
	{ID: "fig12", Title: "PBPI execution time (s, lower is better)", Run: runFig12},
	{ID: "fig13", Title: "Data transferred for PBPI (GB)", Run: runFig13},
	pbpiLoopStats("fig14", "PBPI task statistics for the versioning scheduler (first loop)",
		apps.PBPILoop1Type, "loop1_gpu", "loop1_smp"),
	pbpiLoopStats("fig15", "PBPI task statistics for the versioning scheduler (second loop)",
		apps.PBPILoop2Type, "loop2_gpu", "loop2_smp"),
	{ID: "ext-sched", Title: "Scheduler comparison on an irregular random DAG", Run: runExtSched},
	{ID: "ext-cluster", Title: "Hybrid matmul on multi-node clusters (InfiniBand staging)", Run: runExtCluster},
	{ID: "ext-energy", Title: "Energy account per scheduling policy (Cholesky)", Run: runExtEnergy},
}

// All returns every experiment in paper order.
func All() []Experiment {
	out := make([]Experiment, len(experiments))
	copy(out, experiments)
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists the experiment IDs, sorted.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}

// expSize maps harness options onto the sweep subsystem's size tiers.
func expSize(opts Options) exp.Size {
	if opts.Quick {
		return exp.SizeQuick
	}
	return exp.SizeFull
}

// expCase runs one experiment cell through internal/exp's Campaign
// engine — the same resolution path ompss-sweep campaigns use — as an
// explicit-spec campaign; every figure experiment is a thin wrapper over
// this. Seeds and noise pass through verbatim (explicit specs are not
// grid-defaulted), so harness results are identical to the pre-Campaign
// exp.Run call sites.
func expCase(app, sched string, smp, gpus int, opts Options) (ompss.Result, error) {
	runs, err := expSpecs(exp.RunSpec{
		App:        app,
		Size:       expSize(opts),
		Scheduler:  sched,
		SMPWorkers: smp,
		GPUs:       gpus,
		NoiseSigma: opts.Noise,
		Seed:       opts.Seed,
	})
	if err != nil {
		return ompss.Result{}, err
	}
	return runs[0].Result, nil
}

// expSpecs resolves explicit specs through one serial Campaign and
// returns the runs in spec order.
func expSpecs(specs ...exp.RunSpec) ([]exp.RunResult, error) {
	camp := exp.Campaign{Specs: specs, Parallel: 1}
	res, _, err := camp.Execute()
	if err != nil {
		return nil, err
	}
	return res.Runs, nil
}

// gb formats bytes as decimal gigabytes, the unit of Figures 7/10/13.
func gb(b int64) string { return fmt.Sprintf("%.2f", float64(b)/1e9) }

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
