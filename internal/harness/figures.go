package harness

import (
	"fmt"

	"repro/internal/exp"
	"repro/ompss"
)

// series is one plotted line of Figs. 6, 7, 9, 10, 12 and 13: an
// application under a scheduler on a GPU count.
type series struct {
	label, app, sched string
	gpus              int
}

// matmulSeries are the series of Figure 6: the regular application under
// the two baseline schedulers and the hybrid under versioning.
var matmulSeries = []series{
	{"mm-gpu-dep", "matmul-gpu", "dep", 0},
	{"mm-gpu-aff", "matmul-gpu", "affinity", 0},
	{"mm-hyb-ver", "matmul-hyb", "versioning", 0},
}

// matmulConfigs are Figure 7's configurations: GA = mm-gpu + affinity,
// GD = mm-gpu + dep, HV = mm-hyb + versioning.
var matmulConfigs = []series{
	{"GA", "matmul-gpu", "affinity", 0},
	{"GD", "matmul-gpu", "dep", 0},
	{"HV", "matmul-hyb", "versioning", 0},
}

// choleskySeries are the series of Figure 9.
var choleskySeries = []series{
	{"potrf-smp-dep", "cholesky-potrf-smp", "dep", 0},
	{"potrf-smp-aff", "cholesky-potrf-smp", "affinity", 0},
	{"potrf-gpu-dep", "cholesky-potrf-gpu", "dep", 0},
	{"potrf-gpu-aff", "cholesky-potrf-gpu", "affinity", 0},
	{"potrf-hyb-ver", "cholesky-potrf-hyb", "versioning", 0},
}

// choleskyConfigs are Figure 10's GA/GD/HV configurations.
var choleskyConfigs = []series{
	{"GA", "cholesky-potrf-gpu", "affinity", 0},
	{"GD", "cholesky-potrf-gpu", "dep", 0},
	{"HV", "cholesky-potrf-hyb", "versioning", 0},
}

// pbpiSeries are the series of Figures 12 and 13. pbpi-smp has no device
// code, so its scheduler choice is immaterial; the paper's regular
// versions use the baseline schedulers.
var pbpiSeries = []series{
	{"pbpi-smp", "pbpi-smp", "dep", 0},
	{"pbpi-gpu-dep", "pbpi-gpu", "dep", 2},
	{"pbpi-gpu-aff", "pbpi-gpu", "affinity", 2},
	{"pbpi-hyb-ver", "pbpi-hyb", "versioning", 2},
}

// byGPUs places every series at 1 and then 2 GPUs, the GPU count
// outermost (the grouping of the performance figures).
func byGPUs(ss []series) []series {
	var out []series
	for _, gpus := range []int{1, 2} {
		for _, s := range ss {
			s.gpus = gpus
			out = append(out, s)
		}
	}
	return out
}

// bySeries places each series at 1 and 2 GPUs, the series outermost
// (the grouping of the transfer figures).
func bySeries(ss []series) []series {
	var out []series
	for _, s := range ss {
		for _, gpus := range []int{1, 2} {
			s.gpus = gpus
			out = append(out, s)
		}
	}
	return out
}

// smpCounts are the SMP thread counts every figure sweeps.
func smpCounts(quick bool) []int {
	if quick {
		return []int{1, 4, 8}
	}
	return []int{1, 2, 4, 8}
}

// metric is the value columns of a series figure and their projection.
type metric struct {
	cols    []string
	project func(ompss.Result) []string
}

var (
	gflops = metric{[]string{"GFLOP/s"}, func(r ompss.Result) []string {
		return []string{fmt.Sprintf("%.1f", r.GFlops)}
	}}
	seconds = metric{[]string{"time (s)"}, func(r ompss.Result) []string {
		return []string{fmt.Sprintf("%.2f", r.Elapsed.Seconds())}
	}}
	transfers = metric{[]string{"Input Tx", "Output Tx", "Device Tx"}, func(r ompss.Result) []string {
		return []string{gb(r.InputTxBytes), gb(r.OutputTxBytes), gb(r.DeviceTxBytes)}
	}}
)

// seriesFig declares a figure with one row per series and SMP thread
// count, keyed by the series label (column keyCol), GPUs and SMP threads.
func seriesFig(id, title, keyCol string, ss []series, m metric, notes ...string) Experiment {
	return Experiment{
		ID: id, Title: title,
		Header: append([]string{keyCol, "GPUs", "SMP threads"}, m.cols...),
		Rows: func(quick bool) []Row {
			var rows []Row
			for _, s := range ss {
				for _, smp := range smpCounts(quick) {
					rows = append(rows, Row{
						Keys: []string{s.label, fmt.Sprint(s.gpus), fmt.Sprint(smp)},
						Spec: exp.RunSpec{App: s.app, Scheduler: s.sched, SMPWorkers: smp, GPUs: s.gpus},
					})
				}
			}
			return rows
		},
		Project: m.project,
		Notes:   notes,
	}
}

// version is one column of a version-share figure: the share of a task
// type's instances that ran the named implementation.
type version struct{ col, name string }

// shareFig declares a version-share table of the versioning scheduler
// (Figs. 8, 11, 14 and 15): one row per GPU and SMP thread count, one
// column per version of taskType.
func shareFig(id, title, app string, gpuCounts []int, taskType string, versions []version, notes ...string) Experiment {
	header := []string{"GPUs", "SMP threads"}
	for _, v := range versions {
		header = append(header, v.col)
	}
	return Experiment{
		ID: id, Title: title, Header: header,
		Rows: func(quick bool) []Row {
			var rows []Row
			for _, gpus := range gpuCounts {
				for _, smp := range smpCounts(quick) {
					rows = append(rows, Row{
						Keys: []string{fmt.Sprint(gpus), fmt.Sprint(smp)},
						Spec: exp.RunSpec{App: app, Scheduler: "versioning", SMPWorkers: smp, GPUs: gpus},
					})
				}
			}
			return rows
		},
		Project: func(r ompss.Result) []string {
			out := make([]string, len(versions))
			for i, v := range versions {
				out[i] = pct(r.VersionShare(taskType, v.name))
			}
			return out
		},
		Notes: notes,
	}
}
