package exp

import (
	"testing"
)

// TestEngineAllocsPerTaskBudget bounds whole-cell allocation on the
// pinned profiling cell. The pooled engine runs the steady-state event
// loop allocation-free (see internal/sim), Run keeps no trace, staging
// goes through per-worker prebound countdowns and pooled copy-in
// records, and the versioning scheduler carries its busy-time charges
// in its queue entries. AllocsPerRun's warm-up run fills the slab free
// lists, so every measured run draws its task, edge, pred-ID, access,
// dependence-node, history and entry slabs and its directory slabs from
// the previous run instead of allocating them. What remains is the app
// build, about 0.27 allocations per simulated task warm (0.31 before
// Submit copied access lists into slabs and the apps dropped their
// access tables, 0.55 before per-object state moved into slabs, 0.6
// when each run allocated its own slabs, 3.9 with per-task staging
// closures, ~7 when every run also recorded a full trace). The budget
// keeps headroom: it exists to catch a reintroduced per-task or
// per-copy allocation, not to pin the exact figure, which the
// allocs_per_op entries of BENCH_baseline.json gate at its warm value.
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
