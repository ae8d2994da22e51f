package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/ompss"
)

// table1 reproduces Table I: the TaskVersionSet data structure after a
// run in which one task type was called with two different data-set sizes
// (three versions) and another with one (two versions).
var table1 = Experiment{
	ID: "table1", Title: "TaskVersionSet data structure (profiling store dump)",
	Header: []string{"TaskVersionSet dump"},
	Notes: []string{
		"structure matches Table I: per task type, one group per data-set size,",
		"per version <VersionId, ExecTime, #Exec>",
	},
	Render: renderTable1,
}

func renderTable1(opts Options, rep *Report) error {
	r, err := ompss.NewRuntime(ompss.Config{
		Scheduler:  "versioning",
		SMPWorkers: 4,
		GPUs:       2,
		Seed:       opts.Seed,
		NoiseSigma: opts.Noise,
		// Spread task creation so assignment decisions see live
		// profiles (as in a real application's steady state).
		CreateOverhead: 2 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	// task1: three versions (like the paper's task1-v1..v3).
	task1 := r.DeclareTaskType("task1")
	task1.AddVersion("task1-v1", ompss.CUDA, ompss.Fixed{D: 30 * time.Millisecond}, nil)
	task1.AddVersion("task1-v2", ompss.CUDA, ompss.Fixed{D: 18 * time.Millisecond}, nil)
	task1.AddVersion("task1-v3", ompss.SMP, ompss.Fixed{D: 25 * time.Millisecond}, nil)
	// task2: two versions.
	task2 := r.DeclareTaskType("task2")
	task2.AddVersion("task2-v1", ompss.CUDA, ompss.Fixed{D: 15 * time.Millisecond}, nil)
	task2.AddVersion("task2-v2", ompss.SMP, ompss.Fixed{D: 20 * time.Millisecond}, nil)

	n := 60
	if opts.Quick {
		n = 30
	}
	r.Main(func(m *ompss.Master) {
		// task1 with 2 MB and 3 MB data sets (two groups), task2
		// with 5 MB only.
		for i := 0; i < n; i++ {
			size := int64(2 << 20)
			if i%2 == 1 {
				size = 3 << 20
			}
			obj := r.Register("d", size)
			m.Submit(task1, []ompss.Access{ompss.InOut(obj)}, ompss.Work{}, nil)
		}
		for i := 0; i < n/2; i++ {
			obj := r.Register("e", 5<<20)
			m.Submit(task2, []ompss.Access{ompss.InOut(obj)}, ompss.Work{}, nil)
		}
		m.Taskwait()
	})
	r.Execute()

	table := r.ProfileTable()
	for _, line := range strings.Split(strings.TrimRight(table, "\n"), "\n") {
		rep.Rows = append(rep.Rows, []string{line})
	}
	return nil
}

// fig5 reproduces Figure 5's earliest-executor decision.
var fig5 = Experiment{
	ID: "fig5", Title: "Earliest-executor scheduling decision (busy GPU vs idle SMP)",
	Header: []string{"version", "instances", "share"},
	Notes: []string{
		"the GPU version is 2.5x faster, yet the SMP worker receives a substantial share:",
		"whenever the GPU queue exceeds the SMP mean, the idle SMP worker is the earliest executor",
	},
	Render: renderFig5,
}

func renderFig5(opts Options, rep *Report) error {
	// The GPU version is fastest, but with a single GPU worker its
	// queue grows; whenever the queue's estimated busy time
	// exceeds the SMP version's mean, the idle SMP worker becomes
	// the earliest executor and receives the task (Figure 5).
	r, err := ompss.NewRuntime(ompss.Config{
		Scheduler:  "versioning",
		SMPWorkers: 1,
		GPUs:       1,
		Seed:       opts.Seed,
		NoiseSigma: opts.Noise,
		// Task creation takes time on the master thread, so
		// readiness spreads out and each assignment sees the
		// queues the paper's Figure 5 depicts.
		CreateOverhead: 50 * time.Microsecond,
	})
	if err != nil {
		return err
	}
	kernel := r.DeclareTaskType("kernel")
	kernel.AddVersion("kernel_gpu", ompss.CUDA, ompss.Fixed{D: 2 * time.Millisecond}, nil)
	kernel.AddVersion("kernel_smp", ompss.SMP, ompss.Fixed{D: 5 * time.Millisecond}, nil)
	n := 200
	if opts.Quick {
		n = 120
	}
	r.Main(func(m *ompss.Master) {
		for i := 0; i < n; i++ {
			obj := r.Register("x", 1000)
			m.Submit(kernel, []ompss.Access{ompss.InOut(obj)}, ompss.Work{}, nil)
		}
		m.Taskwait()
	})
	res := r.Execute()

	counts := res.VersionCounts["kernel"]
	for _, v := range []string{"kernel_gpu", "kernel_smp"} {
		rep.Rows = append(rep.Rows, []string{
			v, fmt.Sprint(counts[v]), pct(res.VersionShare("kernel", v)),
		})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("makespan %.3fs vs %.3fs if all %d tasks had queued on the GPU",
		res.Elapsed.Seconds(), float64(n)*0.002, n))
	return nil
}
