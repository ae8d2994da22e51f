package harness

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/exp"
)

// Extension experiments beyond the paper's figures. They cover the
// capabilities this reproduction adds on top of the IPDPS'13 evaluation
// (documented in DESIGN.md §5/6): a scheduler bake-off on an irregular
// graph, cluster scaling with remote GPUs, and energy accounting per
// schedule. ompss-bench runs them alongside the figures.

func runExtSched(opts Options) (*Report, error) {
	rep := &Report{ID: "ext-sched",
		Title:  "Scheduler comparison on an irregular random DAG",
		Header: []string{"scheduler", "makespan (s)", "tasks", "tx total (GB)"},
		Notes: []string{
			"same seeded layered DAG for every policy; 8 SMP + 2 GPU workers",
			"only the versioning scheduler may use non-main implementations",
		}}
	tasks := 0
	for _, s := range []string{"versioning", "bf", "dep", "affinity", "wf", "random"} {
		res, err := expCase("randdag", s, 8, 2, opts)
		if err != nil {
			return nil, err
		}
		tasks = res.Tasks // same fixed-seed DAG for every policy
		rep.Rows = append(rep.Rows, []string{
			s, fmt.Sprintf("%.4f", res.Elapsed.Seconds()),
			fmt.Sprintf("%d", res.Tasks), gb(res.TotalTxBytes()),
		})
	}
	rep.Notes[0] = fmt.Sprintf("same seeded %d-task layered DAG for every policy; 8 SMP + 2 GPU workers", tasks)
	return rep, nil
}

func runExtCluster(opts Options) (*Report, error) {
	rep := &Report{ID: "ext-cluster",
		Title:  "Hybrid matmul on multi-node clusters (InfiniBand staging)",
		Header: []string{"machine", "workers", "GFLOP/s", "input (GB)", "output (GB)", "device (GB)"},
		Notes: []string{
			"remote GPU data stages over two hops: InfiniBand to the node, PCIe onward",
		}}
	// Machine shapes are exp.MachineSpec values, the same enumerable axis
	// ompss-sweep grids use (-machines): node 0 keeps 8 cores + 2 GPUs,
	// the remote nodes consume the rest of the worker counts.
	cases := []struct {
		name    string
		machine exp.MachineSpec
		smp     int
		gpus    int
	}{
		{"1 node", exp.MachineNode, 8, 2},
		{"+2 nodes (cores)", "cluster:2x6", 20, 2},
		{"+2 nodes (1 GPU each)", "cluster:2x6+1g", 20, 4},
		{"+4 nodes (1 GPU each)", "cluster:4x6+1g", 32, 6},
	}
	// The scaling series runs as one explicit-spec Campaign: the machine
	// axis is not a cartesian product with the worker counts, so the
	// cases are listed cell by cell and resolved through the same engine
	// ompss-sweep uses.
	specs := make([]exp.RunSpec, len(cases))
	for i, c := range cases {
		specs[i] = exp.RunSpec{
			App:        "matmul-" + string(apps.MatmulHybrid),
			Size:       expSize(opts),
			Scheduler:  "versioning",
			Machine:    c.machine,
			SMPWorkers: c.smp,
			GPUs:       c.gpus,
			NoiseSigma: opts.Noise,
			Seed:       opts.Seed,
		}
	}
	runs, err := expSpecs(specs...)
	if err != nil {
		return nil, err
	}
	for i, c := range cases {
		res := runs[i].Result
		rep.Rows = append(rep.Rows, []string{
			c.name, fmt.Sprintf("%d smp + %d gpu", c.smp, c.gpus),
			fmt.Sprintf("%.1f", res.GFlops),
			gb(res.InputTxBytes), gb(res.OutputTxBytes), gb(res.DeviceTxBytes),
		})
	}
	return rep, nil
}

func runExtEnergy(opts Options) (*Report, error) {
	rep := &Report{ID: "ext-energy",
		Title:  "Energy account per scheduling policy (Cholesky)",
		Header: []string{"scheduler", "makespan (s)", "energy (J)", "avg power (W)", "EDP (J*s)"},
		Notes: []string{
			"MinoTauro power model: Xeon cores 13.3/2.5 W busy/idle, M2090 225/40 W, 90 W base",
			"baselines run potrf-gpu (their best); versioning runs potrf-hyb",
		}}
	for _, s := range []string{"bf", "dep", "affinity", "versioning"} {
		variant := apps.CholeskyPotrfGPU
		if s == "versioning" {
			variant = apps.CholeskyPotrfHybrid
		}
		// Build+Execute instead of Run: the energy account needs the
		// runtime after the simulation finishes.
		r, err := exp.Build(exp.RunSpec{
			App:        "cholesky-" + string(variant),
			Size:       expSize(opts),
			Scheduler:  s,
			SMPWorkers: 8,
			GPUs:       2,
			NoiseSigma: opts.Noise,
			Seed:       opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		res := r.Execute()
		e := r.EnergyReport(nil)
		rep.Rows = append(rep.Rows, []string{
			s, fmt.Sprintf("%.3f", res.Elapsed.Seconds()),
			fmt.Sprintf("%.1f", e.TotalJoules()),
			fmt.Sprintf("%.1f", e.AveragePowerWatts()),
			fmt.Sprintf("%.1f", e.EDP()),
		})
	}
	return rep, nil
}
