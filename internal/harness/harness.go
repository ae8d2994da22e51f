// Package harness defines one experiment per table/figure of the paper's
// evaluation (Section V) and formats the same rows/series the paper
// reports. Figures are declared as data: rows of key columns plus one
// exp.RunSpec each, and a projection of a run's result onto the value
// columns. Run resolves any selection of experiments through one
// deduplicated exp.Campaign; cmd/ompss-bench, the root bench_test.go and
// this package's tests all go through it.
//
// Absolute numbers come from the calibrated machine model, so they are
// not the authors' measurements; the shapes (who wins, by what factor,
// where crossovers fall) are the reproduction target, and each
// experiment states the shape it expects in its Report.Notes. The tests
// assert those shapes at quick and paper size; EXPERIMENTS.md records
// where a paper-size table contradicts its note.
package harness

import (
	"fmt"
	"slices"
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

// Experiment is one reproducible table/figure. A campaign-backed
// experiment declares its rows as data — key columns plus one run spec
// each — and a projection of a run's result onto the value columns; Run
// resolves every selected experiment's rows together. The experiments
// that drive their own runtime (table1, fig5, ext-energy) set Render
// instead.
type Experiment struct {
	ID     string
	Title  string
	Header []string
	// Rows declares the table rows in print order. Specs leave Size,
	// NoiseSigma and Seed zero: Run fills them from the Options.
	Rows func(quick bool) []Row
	// Project renders one run's result as a row's value columns.
	Project func(ompss.Result) []string
	// Note, if set, derives a leading note from the projected rows.
	Note func(rows [][]string) string
	// Notes are the fixed notes printed under the table.
	Notes []string
	// Render fills rows (and any notes after the fixed ones) for an
	// experiment that drives its own runtime.
	Render func(opts Options, rep *Report) error
}

// Row is one declared table row: its leading key columns and the run
// whose projected result fills the rest.
type Row struct {
	Keys []string
	Spec exp.RunSpec
}

// experiments is every experiment in paper order: Table I, the paper's
// figures in number order, then the extensions beyond the paper.
var experiments = []Experiment{
	table1, fig5,
	seriesFig("fig6", "Matrix multiplication performance (GFLOP/s)", "series",
		byGPUs(matmulSeries), gflops,
		"expected shape: mm-gpu flat in SMP threads, ~2x from 1->2 GPUs;",
		"mm-hyb-ver slightly below mm-gpu at 1 SMP thread, overtakes as SMP threads grow"),
	seriesFig("fig7", "Data transferred for matrix multiplication (GB)", "config",
		bySeries(matmulConfigs), transfers,
		"expected shape: HV transfers exceed GA/GD and grow with SMP threads;",
		"HV shows device-device traffic that GA/GD mostly avoid"),
	shareFig("fig8", "Matrix multiplication task statistics for the versioning scheduler",
		"matmul-hyb", []int{1, 2}, apps.MatmulTaskType, []version{
			{"SMP", "matmul_tile_smp"}, {"CUDA", "matmul_tile_cuda"}, {"CUBLAS", "matmul_tile_cublas"}},
		"expected shape: CUBLAS dominates, hand-coded CUDA is a sliver (learning only),",
		"SMP share ~10% on average, growing with SMP threads, larger with 1 GPU than 2"),
	seriesFig("fig9", "Cholesky factorization performance (GFLOP/s)", "series",
		byGPUs(choleskySeries), gflops,
		"expected shape: potrf-smp worst everywhere;",
		"potrf-hyb-ver trails at low SMP counts (learning cost on few task instances), improves with SMP threads"),
	seriesFig("fig10", "Data transferred for Cholesky (GB)", "config",
		bySeries(choleskyConfigs), transfers,
		"expected shape: with 2 GPUs, affinity's stealing under load imbalance raises its transfers;",
		"the versioning scheduler moves less data than affinity here"),
	shareFig("fig11", "Cholesky task statistics for the versioning scheduler (potrf versions)",
		"cholesky-potrf-hyb", []int{1, 2}, apps.CholPotrfType, []version{
			{"potrf SMP", "potrf_cblas"}, {"potrf GPU", "potrf_magma"}},
		"expected shape: the GPU takes essentially all potrf work — the task graph",
		"gives too little look-ahead to hide the slow SMP version (Section V-B2)"),
	seriesFig("fig12", "PBPI execution time (s, lower is better)", "series",
		pbpiSeries, seconds,
		"expected shape: pbpi-smp beats pbpi-gpu at higher SMP counts (GPU-only pays",
		"generation-boundary transfers); pbpi-hyb-ver finds the balance and wins"),
	seriesFig("fig13", "Data transferred for PBPI (GB)", "series",
		pbpiSeries, transfers,
		"expected shape: pbpi-smp transfers nothing; the hybrid transfers the most",
		"but overlaps them with computation (look-ahead scheduling)"),
	shareFig("fig14", "PBPI task statistics for the versioning scheduler (first loop)",
		"pbpi-hyb", []int{2}, apps.PBPILoop1Type, []version{{"SMP", "loop1_smp"}, {"GPU", "loop1_gpu"}}),
	shareFig("fig15", "PBPI task statistics for the versioning scheduler (second loop)",
		"pbpi-hyb", []int{2}, apps.PBPILoop2Type, []version{{"SMP", "loop2_smp"}, {"GPU", "loop2_gpu"}}),
	extSched, extCluster, extEnergy,
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

// Run resolves the experiments' reports, in the order given. The rows
// of every campaign-backed experiment join one exp.Campaign — the
// engine ompss-sweep campaigns use — deduplicated by canonical spec
// hash, so a run several figures read (Figs. 7 and 8 project Fig. 6's
// matmul runs) simulates once. The campaign renders the same bytes at
// any parallelism, so it runs at its default.
func Run(exps []Experiment, opts Options) ([]*Report, error) {
	rows, cells, specs := collect(exps, opts)
	var runs []exp.RunResult
	if len(specs) > 0 {
		camp := exp.Campaign{Specs: specs}
		res, _, err := camp.Execute()
		if err != nil {
			return nil, err
		}
		runs = res.Runs
	}
	reps := make([]*Report, len(exps))
	for i, e := range exps {
		rep := &Report{ID: e.ID, Title: e.Title, Header: e.Header}
		if e.Render != nil {
			rep.Notes = slices.Clone(e.Notes)
			if err := e.Render(opts, rep); err != nil {
				return nil, fmt.Errorf("%s: %w", e.ID, err)
			}
		} else {
			for j, r := range rows[i] {
				rep.Rows = append(rep.Rows, slices.Concat(r.Keys, e.Project(runs[cells[i][j]].Result)))
			}
			if e.Note != nil {
				rep.Notes = append(rep.Notes, e.Note(rep.Rows))
			}
			rep.Notes = append(rep.Notes, e.Notes...)
		}
		reps[i] = rep
	}
	return reps, nil
}

// collect declares the experiments' rows and deduplicates their specs
// by canonical hash: cells[i][j] is the index in specs of experiment i's
// row j.
func collect(exps []Experiment, opts Options) (rows [][]Row, cells [][]int, specs []exp.RunSpec) {
	index := make(map[string]int) // spec hash -> index in specs
	rows = make([][]Row, len(exps))
	cells = make([][]int, len(exps))
	for i, e := range exps {
		if e.Rows == nil {
			continue
		}
		rows[i] = e.Rows(opts.Quick)
		for _, r := range rows[i] {
			s := r.Spec
			s.Size, s.NoiseSigma, s.Seed = expSize(opts), opts.Noise, opts.Seed
			h := s.Hash()
			c, ok := index[h]
			if !ok {
				c = len(specs)
				index[h] = c
				specs = append(specs, s)
			}
			cells[i] = append(cells[i], c)
		}
	}
	return rows, cells, specs
}

// expSize maps harness options onto the sweep subsystem's size tiers.
func expSize(opts Options) exp.Size {
	if opts.Quick {
		return exp.SizeQuick
	}
	return exp.SizeFull
}

// gb formats bytes as decimal gigabytes, the unit of Figures 7/10/13.
func gb(b int64) string { return fmt.Sprintf("%.2f", float64(b)/1e9) }

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
