package harness

import (
	"fmt"

	"repro/internal/apps"
	"repro/ompss"
)

// pbpiCase runs one PBPI configuration through the sweep subsystem
// ("pbpi-{smp,gpu,hyb}"; 120 generations at full, 25 at quick).
func pbpiCase(variant apps.PBPIVariant, schedName string, smp, gpus int, opts Options) (ompss.Result, error) {
	return expCase("pbpi-"+string(variant), schedName, smp, gpus, opts)
}

// pbpiSeries are the series of Figure 12. pbpi-smp has no device code,
// so its scheduler choice is immaterial; the paper's regular versions use
// the baseline schedulers.
var pbpiSeries = []struct {
	label   string
	variant apps.PBPIVariant
	sched   string
	gpus    int
}{
	{"pbpi-smp", apps.PBPISMP, "dep", 0},
	{"pbpi-gpu-dep", apps.PBPIGPU, "dep", 2},
	{"pbpi-gpu-aff", apps.PBPIGPU, "affinity", 2},
	{"pbpi-hyb-ver", apps.PBPIHybrid, "versioning", 2},
}

func runFig12(opts Options) (*Report, error) {
	rep := &Report{ID: "fig12", Title: "PBPI execution time (s, lower is better)",
		Header: []string{"series", "GPUs", "SMP threads", "time (s)"}}
	for _, s := range pbpiSeries {
		for _, smp := range smpCounts(opts) {
			res, err := pbpiCase(s.variant, s.sched, smp, s.gpus, opts)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				s.label, fmt.Sprint(s.gpus), fmt.Sprint(smp), fmt.Sprintf("%.2f", res.Elapsed.Seconds()),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"expected shape: pbpi-smp beats pbpi-gpu at higher SMP counts (GPU-only pays",
		"generation-boundary transfers); pbpi-hyb-ver finds the balance and wins")
	return rep, nil
}

func runFig13(opts Options) (*Report, error) {
	rep := &Report{ID: "fig13", Title: "Data transferred for PBPI (GB)",
		Header: []string{"series", "GPUs", "SMP threads", "Input Tx", "Output Tx", "Device Tx"}}
	for _, s := range pbpiSeries {
		for _, smp := range smpCounts(opts) {
			res, err := pbpiCase(s.variant, s.sched, smp, s.gpus, opts)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				s.label, fmt.Sprint(s.gpus), fmt.Sprint(smp),
				gb(res.InputTxBytes), gb(res.OutputTxBytes), gb(res.DeviceTxBytes),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"expected shape: pbpi-smp transfers nothing; the hybrid transfers the most",
		"but overlaps them with computation (look-ahead scheduling)")
	return rep, nil
}

// pbpiLoopStats builds the per-loop version-share experiment (figs 14
// and 15): one loop's task type and its two versions.
func pbpiLoopStats(id, title, taskType, gpuVer, smpVer string) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Run: func(opts Options) (*Report, error) {
			rep := &Report{ID: id, Title: title,
				Header: []string{"GPUs", "SMP threads", "SMP", "GPU"}}
			for _, smp := range smpCounts(opts) {
				res, err := pbpiCase(apps.PBPIHybrid, "versioning", smp, 2, opts)
				if err != nil {
					return nil, err
				}
				rep.Rows = append(rep.Rows, []string{
					"2", fmt.Sprint(smp),
					pct(res.VersionShare(taskType, smpVer)),
					pct(res.VersionShare(taskType, gpuVer)),
				})
			}
			return rep, nil
		},
	}
}
