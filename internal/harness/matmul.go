package harness

import (
	"fmt"

	"repro/internal/apps"
	"repro/ompss"
)

// matmulCase runs one matrix-multiplication configuration through the
// sweep subsystem ("matmul-gpu"/"matmul-hyb"; paper sizes at full,
// harness -quick sizes at quick).
func matmulCase(variant apps.MatmulVariant, schedName string, smp, gpus int, opts Options) (ompss.Result, error) {
	return expCase("matmul-"+string(variant), schedName, smp, gpus, opts)
}

// matmulSeries are the series of Figure 6: the regular application under
// the two baseline schedulers and the hybrid under versioning.
var matmulSeries = []struct {
	label   string
	variant apps.MatmulVariant
	sched   string
}{
	{"mm-gpu-dep", apps.MatmulGPU, "dep"},
	{"mm-gpu-aff", apps.MatmulGPU, "affinity"},
	{"mm-hyb-ver", apps.MatmulHybrid, "versioning"},
}

func smpCounts(opts Options) []int {
	if opts.Quick {
		return []int{1, 4, 8}
	}
	return []int{1, 2, 4, 8}
}

func runFig6(opts Options) (*Report, error) {
	rep := &Report{ID: "fig6", Title: "Matrix multiplication performance (GFLOP/s)",
		Header: []string{"series", "GPUs", "SMP threads", "GFLOP/s"}}
	for _, gpus := range []int{1, 2} {
		for _, s := range matmulSeries {
			for _, smp := range smpCounts(opts) {
				res, err := matmulCase(s.variant, s.sched, smp, gpus, opts)
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
		"expected shape: mm-gpu flat in SMP threads, ~2x from 1->2 GPUs;",
		"mm-hyb-ver slightly below mm-gpu at 1 SMP thread, overtakes as SMP threads grow")
	return rep, nil
}

func runFig7(opts Options) (*Report, error) {
	rep := &Report{ID: "fig7", Title: "Data transferred for matrix multiplication (GB)",
		Header: []string{"config", "GPUs", "SMP threads", "Input Tx", "Output Tx", "Device Tx"}}
	type cfgRow struct {
		label   string
		variant apps.MatmulVariant
		sched   string
	}
	// GA = mm-gpu + affinity, GD = mm-gpu + dep, HV = mm-hyb + versioning.
	for _, c := range []cfgRow{
		{"GA", apps.MatmulGPU, "affinity"},
		{"GD", apps.MatmulGPU, "dep"},
		{"HV", apps.MatmulHybrid, "versioning"},
	} {
		for _, gpus := range []int{1, 2} {
			for _, smp := range smpCounts(opts) {
				res, err := matmulCase(c.variant, c.sched, smp, gpus, opts)
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
		"expected shape: HV transfers exceed GA/GD and grow with SMP threads;",
		"HV shows device-device traffic that GA/GD mostly avoid")
	return rep, nil
}

func runFig8(opts Options) (*Report, error) {
	rep := &Report{ID: "fig8", Title: "Matrix multiplication task statistics for the versioning scheduler",
		Header: []string{"GPUs", "SMP threads", "SMP", "CUDA", "CUBLAS"}}
	for _, gpus := range []int{1, 2} {
		for _, smp := range smpCounts(opts) {
			res, err := matmulCase(apps.MatmulHybrid, "versioning", smp, gpus, opts)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprint(gpus), fmt.Sprint(smp),
				pct(res.VersionShare(apps.MatmulTaskType, "matmul_tile_smp")),
				pct(res.VersionShare(apps.MatmulTaskType, "matmul_tile_cuda")),
				pct(res.VersionShare(apps.MatmulTaskType, "matmul_tile_cublas")),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"expected shape: CUBLAS dominates, hand-coded CUDA is a sliver (learning only),",
		"SMP share ~10% on average, growing with SMP threads, larger with 1 GPU than 2")
	return rep, nil
}
