// Package sched provides the OmpSs scheduling-policy plug-ins the paper
// evaluates against, plus the plug-in registry that mirrors OmpSs's
// runtime-selectable schedulers (NX_SCHEDULE): policies are registered by
// name and instantiated per run without recompiling anything.
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
	"sort"
	"sync"
)

import "repro/internal/rt"

// Factory builds a fresh scheduler instance.
type Factory func() rt.Scheduler

var (
	regMu    sync.Mutex
	registry = make(map[string]Factory)
)

// Register adds a named policy to the registry. Registering the same
// name twice panics (plug-in name collisions are programming errors).
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sched: duplicate scheduler %q", name))
	}
	registry[name] = f
}

// New instantiates a registered policy by name.
func New(name string) (rt.Scheduler, error) {
	regMu.Lock()
	f, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("sched: unknown scheduler %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names lists the registered policies, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Seedable is implemented by policies whose decisions involve randomness;
// the facade reseeds them from Config.Seed so runs stay reproducible.
type Seedable interface {
	SetSeed(seed int64)
}

func init() {
	Register("bf", func() rt.Scheduler { return NewBreadthFirst() })
	Register("dep", func() rt.Scheduler { return NewDepAware() })
	Register("affinity", func() rt.Scheduler { return NewAffinity() })
	Register("wf", func() rt.Scheduler { return NewWorkFirst() })
	Register("random", func() rt.Scheduler { return NewRandom(0) })
}
