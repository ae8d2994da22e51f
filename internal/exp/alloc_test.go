package exp

import (
	"testing"
)

// TestEngineAllocsPerTaskBudget bounds whole-cell allocation on the
// pinned profiling cell. The pooled engine runs the steady-state event
// loop allocation-free (see internal/sim), and Run keeps no trace; what
// remains is per-task setup — arena chunk refills (tasks, successor
// edges, pred IDs), dependence history growth, staging closures and
// directory bookkeeping — about 3.9 allocations per simulated task
// (down from ~7 when every run recorded a full trace and grew a
// successor slice per predecessor). The budget keeps 4x headroom: it
// exists to catch a reintroduced per-task or per-event allocation, not
// to pin the exact figure, which the allocs_per_op entries of
// BENCH_baseline.json gate.
func TestEngineAllocsPerTaskBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-cell run in -short mode")
	}
	spec := engineHeavyCell()
	tasks := 0
	allocs := testing.AllocsPerRun(3, func() {
		rr, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		tasks = rr.Tasks
	})
	if tasks == 0 {
		t.Fatal("pinned cell simulated zero tasks")
	}
	perTask := allocs / float64(tasks)
	t.Logf("%.0f allocs for %d tasks = %.1f allocs/task", allocs, tasks, perTask)
	if perTask > 16 {
		t.Errorf("cell allocates %.1f times per task, budget is 16", perTask)
	}
}
