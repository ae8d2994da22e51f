// Package sched provides the OmpSs scheduling policies the paper
// evaluates against. As with OmpSs's NX_SCHEDULE, a run selects its
// policy by name: Names is the fixed list of every policy, New builds
// the ones defined here, and the ompss facade builds "versioning".
//
// The two baselines from Section V-A2 live here:
//
//   - "dep" (dependency-aware): follows task dependency chains, putting a
//     freshly released task on the worker that ran its producer. Fast
//     decisions, but locality is only heuristic.
//   - "affinity": counts, for every candidate device, the bytes that
//     would have to be transferred to run the task there, and picks the
//     device needing the fewest; idle workers steal, which can increase
//     transfers under load imbalance (as the paper observes on Cholesky).
//
// A plain breadth-first FIFO ("bf") is included as a sanity baseline,
// and "wf" (work-first) and "random" complete the Nanos++ set. The
// paper's contribution, the versioning scheduler, lives in the
// versioning subpackage.
//
// Ready queues. Central queues (bf's, dep's FIFO, wf's LIFO stack) are
// readyQueues: one global order — descending priority, then readiness
// (FIFO), or newest first (LIFO) — split into one class per distinct
// device set of the tasks' main implementations. A worker compares only
// the heads of the classes its device kind belongs to, so dispatch costs
// O(device sets), typically 1–3, instead of a scan of the backlog, and
// returns exactly the task the scan of one global list would. Per-worker
// queues are Queues indexed by worker ID, whose front pops advance a
// head index so their capacity is reused. Every policy reports its
// queues to rt.StrandReporter: when faults leave no up worker for a
// class, the run that deadlocks on it fails naming the stranded task
// types instead of the parked coroutines.
package sched

import (
	"fmt"
	"slices"
)

import "repro/internal/rt"

// Names lists every policy a run can select, sorted. New builds all of
// them but "versioning", which lives in the versioning subpackage (it
// imports this one) and which the ompss facade builds with its profile
// store.
func Names() []string {
	return []string{"affinity", "bf", "dep", "random", "versioning", "wf"}
}

// CheckName reports whether name is one of Names, without building a
// policy. Its error lists every name.
func CheckName(name string) error {
	if slices.Contains(Names(), name) {
		return nil
	}
	return fmt.Errorf("sched: unknown scheduler %q (have %v)", name, Names())
}

// New builds one of this package's policies by name.
func New(name string) (rt.Scheduler, error) {
	switch name {
	case "bf":
		return NewBreadthFirst(), nil
	case "dep":
		return NewDepAware(), nil
	case "affinity":
		return NewAffinity(), nil
	case "wf":
		return NewWorkFirst(), nil
	case "random":
		return NewRandom(0), nil
	}
	if err := CheckName(name); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("sched: %q is built by its own package, not sched.New", name)
}

// Seedable is implemented by policies whose decisions involve randomness;
// the facade reseeds them from Config.Seed so runs stay reproducible.
type Seedable interface {
	SetSeed(seed int64)
}
