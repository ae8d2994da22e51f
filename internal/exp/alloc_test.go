package exp

import (
	"testing"
)

// TestEngineAllocsPerTaskBudget bounds whole-cell allocation on the
// pinned profiling cell. The pooled engine runs the steady-state event
// loop allocation-free (see internal/sim), Run keeps no trace, staging
// goes through per-worker prebound countdowns and per-(object, space)
// copy-in continuations, and the versioning scheduler carries its
// busy-time charges in its queue entries. What remains is per-cell and
// amortized setup — arena chunk refills (tasks, successor edges, pred
// IDs), dependence history growth, object registration and app build —
// about 0.6 allocations per simulated task (3.9 with per-task staging
// closures, ~7 when every run also recorded a full trace). The budget
// keeps ~5x headroom: it exists to catch a reintroduced per-task or
// per-copy allocation, not to pin the exact figure, which the
// allocs_per_op entries of BENCH_baseline.json gate.
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
	if perTask > 3 {
		t.Errorf("cell allocates %.1f times per task, budget is 3", perTask)
	}
}
