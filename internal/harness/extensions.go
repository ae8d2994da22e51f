package harness

import (
	"fmt"

	"repro/internal/exp"
	"repro/ompss"
)

// Extension experiments beyond the paper's figures. They cover the
// capabilities this reproduction adds on top of the IPDPS'13 evaluation:
// a scheduler bake-off on an irregular graph, cluster scaling with
// remote GPUs, and energy accounting per schedule. ompss-bench runs them
// alongside the figures.

// extSched runs the same seeded random DAG under every policy.
var extSched = Experiment{
	ID:     "ext-sched",
	Title:  "Scheduler comparison on an irregular random DAG",
	Header: []string{"scheduler", "makespan (s)", "tasks", "tx total (GB)"},
	Rows: func(bool) []Row {
		var rows []Row
		for _, s := range []string{"versioning", "bf", "dep", "affinity", "wf", "random"} {
			rows = append(rows, Row{Keys: []string{s},
				Spec: exp.RunSpec{App: "randdag", Scheduler: s, SMPWorkers: 8, GPUs: 2}})
		}
		return rows
	},
	Project: func(r ompss.Result) []string {
		return []string{fmt.Sprintf("%.4f", r.Elapsed.Seconds()), fmt.Sprintf("%d", r.Tasks), gb(r.TotalTxBytes())}
	},
	// Every policy runs the same fixed-seed DAG, so any row's task count
	// is the DAG's.
	Note: func(rows [][]string) string {
		return fmt.Sprintf("same seeded %s-task layered DAG for every policy; 8 SMP + 2 GPU workers", rows[len(rows)-1][2])
	},
	Notes: []string{"only the versioning scheduler may use non-main implementations"},
}

// extCluster scales the hybrid matmul from one node to multi-node
// clusters. Machine shapes are exp.MachineSpec values, the same axis
// ompss-sweep grids use (-machines): node 0 keeps 8 cores + 2 GPUs, the
// remote nodes consume the rest of the worker counts.
var extCluster = Experiment{
	ID:     "ext-cluster",
	Title:  "Hybrid matmul on multi-node clusters (InfiniBand staging)",
	Header: []string{"machine", "workers", "GFLOP/s", "input (GB)", "output (GB)", "device (GB)"},
	Rows: func(bool) []Row {
		var rows []Row
		for _, c := range []struct {
			name      string
			machine   exp.MachineSpec
			smp, gpus int
		}{
			{"1 node", exp.MachineNode, 8, 2},
			{"+2 nodes (cores)", "cluster:2x6", 20, 2},
			{"+2 nodes (1 GPU each)", "cluster:2x6+1g", 20, 4},
			{"+4 nodes (1 GPU each)", "cluster:4x6+1g", 32, 6},
		} {
			rows = append(rows, Row{
				Keys: []string{c.name, fmt.Sprintf("%d smp + %d gpu", c.smp, c.gpus)},
				Spec: exp.RunSpec{App: "matmul-hyb", Scheduler: "versioning", Machine: c.machine,
					SMPWorkers: c.smp, GPUs: c.gpus},
			})
		}
		return rows
	},
	Project: func(r ompss.Result) []string {
		return append(gflops.project(r), transfers.project(r)...)
	},
	Notes: []string{"remote GPU data stages over two hops: InfiniBand to the node, PCIe onward"},
}

// extEnergy integrates the power model over each policy's Cholesky
// schedule. It builds and executes each run itself: the energy account
// needs the runtime after the simulation finishes.
var extEnergy = Experiment{
	ID:     "ext-energy",
	Title:  "Energy account per scheduling policy (Cholesky)",
	Header: []string{"scheduler", "makespan (s)", "energy (J)", "avg power (W)", "EDP (J*s)"},
	Notes: []string{
		"MinoTauro power model: Xeon cores 13.3/2.5 W busy/idle, M2090 225/40 W, 90 W base",
		"baselines run potrf-gpu (their best); versioning runs potrf-hyb",
	},
	Render: func(opts Options, rep *Report) error {
		for _, s := range []string{"bf", "dep", "affinity", "versioning"} {
			app := "cholesky-potrf-gpu"
			if s == "versioning" {
				app = "cholesky-potrf-hyb"
			}
			r, err := exp.Build(exp.RunSpec{
				App:        app,
				Size:       expSize(opts),
				Scheduler:  s,
				SMPWorkers: 8,
				GPUs:       2,
				NoiseSigma: opts.Noise,
				Seed:       opts.Seed,
			})
			if err != nil {
				return err
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
		return nil
	},
}
