package harness

import (
	"fmt"

	"repro/internal/apps"
	"repro/ompss"
)

// choleskyCase runs one Cholesky configuration through the sweep
// subsystem ("cholesky-potrf-{smp,gpu,hyb}"; paper sizes at full).
func choleskyCase(variant apps.CholeskyVariant, schedName string, smp, gpus int, opts Options) (ompss.Result, error) {
	return expCase("cholesky-"+string(variant), schedName, smp, gpus, opts)
}

// choleskySeries are the series of Figure 9.
var choleskySeries = []struct {
	label   string
	variant apps.CholeskyVariant
	sched   string
}{
	{"potrf-smp-dep", apps.CholeskyPotrfSMP, "dep"},
	{"potrf-smp-aff", apps.CholeskyPotrfSMP, "affinity"},
	{"potrf-gpu-dep", apps.CholeskyPotrfGPU, "dep"},
	{"potrf-gpu-aff", apps.CholeskyPotrfGPU, "affinity"},
	{"potrf-hyb-ver", apps.CholeskyPotrfHybrid, "versioning"},
}

func runFig9(opts Options) (*Report, error) {
	rep := &Report{ID: "fig9", Title: "Cholesky factorization performance (GFLOP/s)",
		Header: []string{"series", "GPUs", "SMP threads", "GFLOP/s"}}
	for _, gpus := range []int{1, 2} {
		for _, s := range choleskySeries {
			for _, smp := range smpCounts(opts) {
				res, err := choleskyCase(s.variant, s.sched, smp, gpus, opts)
				if err != nil {
					return nil, err
				}
				rep.Rows = append(rep.Rows, []string{
					s.label, fmt.Sprint(gpus), fmt.Sprint(smp), fmt.Sprintf("%.1f", res.GFlops),
				})
			}
		}
	}
	rep.Notes = append(rep.Notes,
		"expected shape: potrf-smp worst everywhere;",
		"potrf-hyb-ver trails at low SMP counts (learning cost on few task instances), improves with SMP threads")
	return rep, nil
}

func runFig10(opts Options) (*Report, error) {
	rep := &Report{ID: "fig10", Title: "Data transferred for Cholesky (GB)",
		Header: []string{"config", "GPUs", "SMP threads", "Input Tx", "Output Tx", "Device Tx"}}
	for _, c := range []struct {
		label   string
		variant apps.CholeskyVariant
		sched   string
	}{
		{"GA", apps.CholeskyPotrfGPU, "affinity"},
		{"GD", apps.CholeskyPotrfGPU, "dep"},
		{"HV", apps.CholeskyPotrfHybrid, "versioning"},
	} {
		for _, gpus := range []int{1, 2} {
			for _, smp := range smpCounts(opts) {
				res, err := choleskyCase(c.variant, c.sched, smp, gpus, opts)
				if err != nil {
					return nil, err
				}
				rep.Rows = append(rep.Rows, []string{
					c.label, fmt.Sprint(gpus), fmt.Sprint(smp),
					gb(res.InputTxBytes), gb(res.OutputTxBytes), gb(res.DeviceTxBytes),
				})
			}
		}
	}
	rep.Notes = append(rep.Notes,
		"expected shape: with 2 GPUs, affinity's stealing under load imbalance raises its transfers;",
		"the versioning scheduler moves less data than affinity here")
	return rep, nil
}

func runFig11(opts Options) (*Report, error) {
	rep := &Report{ID: "fig11", Title: "Cholesky task statistics for the versioning scheduler (potrf versions)",
		Header: []string{"GPUs", "SMP threads", "potrf SMP", "potrf GPU"}}
	for _, gpus := range []int{1, 2} {
		for _, smp := range smpCounts(opts) {
			res, err := choleskyCase(apps.CholeskyPotrfHybrid, "versioning", smp, gpus, opts)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprint(gpus), fmt.Sprint(smp),
				pct(res.VersionShare(apps.CholPotrfType, "potrf_cblas")),
				pct(res.VersionShare(apps.CholPotrfType, "potrf_magma")),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"expected shape: the GPU takes essentially all potrf work — the task graph",
		"gives too little look-ahead to hide the slow SMP version (Section V-B2)")
	return rep, nil
}
