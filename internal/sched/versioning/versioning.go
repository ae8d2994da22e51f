// Package versioning implements the paper's contribution: the OmpSs
// versioning scheduler (Section IV). It is the only policy that exploits
// multiple task implementations (`implements` clause):
//
//   - It profiles every version online, per (task type, data-set-size
//     group): number of executions and mean execution time (Table I).
//   - While a size group is in the initial learning phase, ready tasks
//     are executed round-robin across versions (each version at least
//     lambda times) and spread over the compatible workers.
//   - Once a group has reliable information, each ready task is assigned
//     to its earliest executor: the worker that minimizes estimated
//     completion time = (estimated busy time of the worker's queue) +
//     (mean execution time of the best version that worker can run). A
//     busy fastest executor therefore loses tasks to idle slower workers
//     exactly as in Figure 5.
//   - Recording never stops, so the scheduler keeps adapting; a task
//     called with a new data-set size opens a fresh group that goes
//     through its own learning phase.
//
// Every worker has its own task queue; assignment happens at ready time
// and workers simply pop their queue (Section IV-B).
package versioning

import (
	"fmt"
	"time"

	"repro/internal/machine"

	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/verprof"
)

// Options configure the versioning scheduler.
type Options struct {
	// Store is the profile store (Table I). It carries the learning
	// threshold and the profiling extensions, and XML hints warm-start
	// the scheduler through it (Section VII). Nil selects
	// verprof.NewStore(0): the paper's defaults.
	Store *verprof.Store
	// LocalityAware enables the future-work data-locality extension
	// (Section VII: "we are going to provide the versioning scheduler
	// with data locality information"): among workers whose estimated
	// completion time is within chainSlack of the earliest executor, the
	// one already holding the most of the task's data wins. Off by
	// default (paper-faithful).
	LocalityAware bool
}

// Versioning is the scheduler instance.
type Versioning struct {
	opts  Options
	rtime *rt.Runtime
	store *verprof.Store

	queues []sched.Queue[entry] // per-worker priority FIFO, indexed by worker ID
	// held lists, per worker, the entries NextTask handed out and whose
	// tasks have not finished: the worker's current and prefetched task.
	// TaskFinished finds its charge here.
	held [][]entry
	// outstanding estimated busy time per worker (indexed by worker ID):
	// queued + dispatched but unfinished work, in nanoseconds of estimated
	// execution time.
	outstanding []time.Duration
	// assigned counts learning-phase assignments per group, indexed by
	// the version's position in its task type's Versions. Round-robin
	// must cycle on assignment (not completion): when many tasks become
	// ready in a burst, completions lag and counting only finished
	// executions would send the whole burst to one version.
	assigned map[*verprof.Group][]int64

	// blocked parks ready tasks none of whose compatible workers are up
	// (fault injection dropped them all); WorkerUp re-decides them.
	blocked []*rt.Task

	// LearningAssignments and ReliableAssignments count decisions per
	// phase (diagnostics and tests).
	LearningAssignments int64
	ReliableAssignments int64
}

// entry is one decided task: the assignment plus the busy-time charge
// TaskReady added to the worker whose queue (and then held list) it sits
// in, so TaskFinished subtracts exactly that charge.
type entry struct {
	rt.Assignment
	est time.Duration
	// group is the profile group the estimate came from, so TaskFinished
	// records into it without a second GroupFor lookup.
	group *verprof.Group
}

func entryPriority(e entry) int { return e.Task.Priority }

// New builds a versioning scheduler with the given options.
func New(opts Options) *Versioning {
	store := opts.Store
	if store == nil {
		store = verprof.NewStore(0)
	}
	return &Versioning{
		opts:     opts,
		store:    store,
		assigned: make(map[*verprof.Group][]int64),
	}
}

// Name implements rt.Scheduler.
func (s *Versioning) Name() string { return "versioning" }

// Store exposes the profiling store (Table I) for inspection and hint
// persistence.
func (s *Versioning) Store() *verprof.Store { return s.store }

// Init implements rt.Scheduler.
func (s *Versioning) Init(r *rt.Runtime) {
	s.rtime = r
	n := len(r.Workers())
	s.queues = make([]sched.Queue[entry], n)
	s.held = make([][]entry, n)
	s.outstanding = make([]time.Duration, n)
}

// TaskReady implements rt.Scheduler: decide the task's version and worker
// now, and enqueue it on that worker's own queue.
func (s *Versioning) TaskReady(t *rt.Task) {
	// A fault re-queue bounces a task some worker had already taken: it
	// still carries the busy-time charge of its first decision. Release
	// it so the dead worker's outstanding work does not distort
	// estimates. (WorkerDown releases the charges of the queue it drains
	// itself; no other path re-decides a charged task.)
	if t.Requeues() > 0 {
		for w := range s.held {
			if e, ok := s.unhold(w, t); ok {
				s.discharge(w, e)
				break
			}
		}
	}

	g := s.store.GroupFor(t.Type.Name, t.DataSetSize, t.Type.VersionNames())

	var choice rt.Assignment
	var worker *rt.Worker
	if g.Reliable() {
		worker, choice = s.earliestExecutor(t, g)
		s.ReliableAssignments++
	} else {
		worker, choice = s.learningPick(t, g)
		s.LearningAssignments++
	}
	if worker == nil {
		// Every compatible worker is down: park the task until a recovery
		// re-admits one. With no fault injection in play this is the old
		// misconfiguration panic.
		if s.anyDown() {
			s.blocked = append(s.blocked, t)
			return
		}
		panic(fmt.Sprintf("versioning: no worker can run task %q (versions %v)", t.Type.Name, t.Type.VersionNames()))
	}

	e := entry{Assignment: choice, est: s.estimate(g, choice.Version), group: g}
	s.queues[worker.ID()].Push(e, entryPriority)
	s.outstanding[worker.ID()] += e.est
}

// discharge releases an entry's busy-time charge from worker w.
func (s *Versioning) discharge(w int, e entry) {
	s.outstanding[w] -= e.est
	if s.outstanding[w] < 0 {
		s.outstanding[w] = 0
	}
}

// unhold removes t's entry from worker w's held list.
func (s *Versioning) unhold(w int, t *rt.Task) (entry, bool) {
	h := s.held[w]
	for i, e := range h {
		if e.Task == t {
			s.held[w] = append(h[:i], h[i+1:]...)
			h[len(h)-1] = entry{}
			return e, true
		}
	}
	return entry{}, false
}

// estimate is the scheduler's expected execution time for a version: its
// recorded mean, or zero while unknown (learning).
func (s *Versioning) estimate(g *verprof.Group, v *rt.Version) time.Duration {
	if m, ok := g.Mean(v.Name); ok {
		return m
	}
	return 0
}

// learningPick implements the initial learning phase: round-robin the
// (at most lambda) forced executions across versions, distributing them
// over the compatible workers. Once every version has been *assigned*
// lambda times but their recorded information is still incomplete (their
// executions are in flight), further tasks fall back to the best decision
// the partial profiles allow, so a burst of ready tasks does not flood a
// slow version beyond its lambda forced runs.
func (s *Versioning) learningPick(t *rt.Task, g *verprof.Group) (*rt.Worker, rt.Assignment) {
	asg := s.assigned[g]
	if n := len(t.Type.Versions); len(asg) < n {
		asg = append(asg, make([]int64, n-len(asg))...)
		s.assigned[g] = asg
	}
	// Paper behaviour: force each version lambda times. With the
	// ConfidenceCV extension the group can stay unreliable past lambda
	// (noisy timings), and exploration must continue with it — otherwise
	// the gate would only delay the phase label without gathering the
	// extra samples it asks for. verprof caps the gate, so this bound is
	// finite too.
	limit := int64(s.store.Lambda)
	if s.store.ConfidenceCV > 0 {
		limit = int64(verprof.ConfidenceCap * s.store.Lambda)
	}

	least := -1
	for i, v := range t.Type.Versions {
		if !s.hasWorkerFor(v) || asg[i] >= limit {
			continue
		}
		if least < 0 || asg[i] < asg[least] {
			least = i
		}
	}
	if least >= 0 {
		asg[least]++
		version := t.Type.Versions[least]
		return s.leastBusyWorker(version), rt.Assignment{Task: t, Version: version}
	}

	// All versions already have their lambda forced assignments in
	// flight: decide from whatever means exist so far.
	if w, a := s.earliestExecutor(t, g); w != nil {
		return w, a
	}
	// Nothing recorded yet at all: run the main implementation (what the
	// other schedulers would do) on its least busy worker.
	for i, v := range t.Type.Versions {
		if s.hasWorkerFor(v) {
			asg[i]++
			return s.leastBusyWorker(v), rt.Assignment{Task: t, Version: v}
		}
	}
	return nil, rt.Assignment{}
}

// chainSlack is how much estimated completion time the LocalityAware
// extension will sacrifice to keep a task near its data (Section VII
// future work). The paper-faithful default ignores locality entirely:
// "the amount of data transfers is not optimal because data locality is
// not taken into account" (Section VII) — which is what produces the
// versioning scheduler's device-to-device traffic in Figures 7 and 10.
const chainSlack = 1.05

// fastest is the fastest profiled version a device kind can run, and
// its recorded mean.
type fastest struct {
	v    *rt.Version
	mean time.Duration
}

// fastestByKind returns, per device kind, the fastest profiled version
// runnable on it (v == nil if none has run), ties breaking toward
// registration order. A decision computes it once: every worker of a
// kind shares the answer.
func fastestByKind(t *rt.Task, g *verprof.Group) (best [machine.NumDeviceKinds]fastest) {
	for k := range best {
		for _, v := range t.Type.VersionsFor(machine.DeviceKind(k)) {
			mean, ok := g.Mean(v.Name)
			if ok && (best[k].v == nil || mean < best[k].mean) {
				best[k] = fastest{v, mean}
			}
		}
	}
	return best
}

// earliestExecutor implements the reliable-information phase: for every
// worker, the best (fastest-mean) version it can run plus its estimated
// busy time gives an estimated completion time; the minimum wins
// (Figure 5), ties breaking toward the lower worker ID. With the
// LocalityAware extension, near-ties (within chainSlack) go to the
// worker whose memory already holds the most of the task's data.
func (s *Versioning) earliestExecutor(t *rt.Task, g *verprof.Group) (*rt.Worker, rt.Assignment) {
	byKind := fastestByKind(t, g)
	var bestW *rt.Worker
	var bestV *rt.Version
	var bestFinish time.Duration
	for _, w := range s.rtime.Workers() {
		if w.Down() {
			continue
		}
		f := byKind[w.Kind()]
		if f.v == nil {
			continue
		}
		if finish := s.busyTime(w) + f.mean; bestW == nil || finish < bestFinish {
			bestW, bestV, bestFinish = w, f.v, finish
		}
	}
	if bestW == nil {
		return nil, rt.Assignment{}
	}
	if s.opts.LocalityAware {
		// Future-work extension (Section VII): among workers finishing
		// within the slack of the earliest executor, prefer the one whose
		// memory space already holds the most of the task's data.
		localW, localV := bestW, bestV
		bestMissing := s.missingBytes(t, bestW)
		for _, w := range s.rtime.Workers() {
			if w == bestW || w.Down() {
				continue
			}
			f := byKind[w.Kind()]
			if f.v == nil || float64(s.busyTime(w)+f.mean) > float64(bestFinish)*chainSlack {
				continue
			}
			if m := s.missingBytes(t, w); m < bestMissing {
				localW, localV, bestMissing = w, f.v, m
			}
		}
		return localW, rt.Assignment{Task: t, Version: localV}
	}
	return bestW, rt.Assignment{Task: t, Version: bestV}
}

// missingBytes is how much of the task's data is absent from the worker's
// memory space (the LocalityAware tie-breaking criterion).
func (s *Versioning) missingBytes(t *rt.Task, w *rt.Worker) int64 {
	dir := s.rtime.Directory()
	var b int64
	for _, a := range t.Accesses {
		b += dir.BytesNeeded(a.Obj, w.Space(), a.Mode)
	}
	return b
}

// busyTime is the worker's estimated busy time: the sum of the estimated
// execution times of every task assigned to it and not yet finished
// (queued, staging, prefetched or running), Section IV-B.
func (s *Versioning) busyTime(w *rt.Worker) time.Duration {
	return s.outstanding[w.ID()]
}

// BusyTime exposes a worker's estimated busy time (diagnostics/tests).
func (s *Versioning) BusyTime(w *rt.Worker) time.Duration { return s.busyTime(w) }

// QueueLen reports a worker's queue length (diagnostics/tests).
func (s *Versioning) QueueLen(w *rt.Worker) int { return s.queues[w.ID()].Len() }

func (s *Versioning) hasWorkerFor(v *rt.Version) bool {
	for _, w := range s.rtime.Workers() {
		if !w.Down() && v.RunsOn(w.Kind()) {
			return true
		}
	}
	return false
}

// anyDown reports whether fault injection currently holds any worker
// down (the only legitimate way a decision can come up empty).
func (s *Versioning) anyDown() bool {
	for _, w := range s.rtime.Workers() {
		if w.Down() {
			return true
		}
	}
	return false
}

// leastBusyWorker picks, among workers that can run the version, the one
// with the least outstanding estimated work; ties break toward the lower
// ID (deterministic learning-phase distribution).
func (s *Versioning) leastBusyWorker(v *rt.Version) *rt.Worker {
	var best *rt.Worker
	var bestBusy time.Duration
	for _, w := range s.rtime.Workers() {
		if w.Down() || !v.RunsOn(w.Kind()) {
			continue
		}
		b := s.outstanding[w.ID()] + time.Duration(s.queues[w.ID()].Len()) // queue length as epsilon tie-breaker
		if best == nil || b < bestBusy {
			best, bestBusy = w, b
		}
	}
	return best
}

// WorkerDown implements rt.FaultAware: the device is dead, so every
// assignment queued on it is re-decided among the survivors. Each task's
// stale busy-time charge is released just before its re-decision, so the
// dead worker's profile influence drains with its queue (the profile
// table itself keeps its recorded means — they are still valid if the
// device comes back).
func (s *Versioning) WorkerDown(w *rt.Worker) {
	q := s.queues[w.ID()]
	s.queues[w.ID()] = sched.Queue[entry]{}
	for _, e := range q.Items() {
		s.discharge(w.ID(), e)
		s.TaskReady(e.Task)
	}
}

// WorkerUp implements rt.FaultAware: tasks parked for want of a
// compatible live worker get a fresh decision.
func (s *Versioning) WorkerUp(w *rt.Worker) {
	blocked := s.blocked
	s.blocked = nil
	for _, t := range blocked {
		s.TaskReady(t)
	}
}

// Stranded implements rt.StrandReporter: the parked tasks, none of whose
// versions an up worker can run.
func (s *Versioning) Stranded() []*rt.Task { return s.blocked }

// NextTask implements rt.Scheduler: workers pop their own queue. The
// popped entry moves to the worker's held list, keeping its charge until
// the task finishes or a fault re-queues it.
func (s *Versioning) NextTask(w *rt.Worker) rt.Assignment {
	q := &s.queues[w.ID()]
	if q.Len() == 0 {
		return rt.Assignment{}
	}
	e := q.PopFront()
	s.held[w.ID()] = append(s.held[w.ID()], e)
	return e.Assignment
}

// TaskFinished implements rt.Scheduler: fold the realized execution time
// into the profile (the scheduler never stops learning) and release the
// worker's busy-time charge.
func (s *Versioning) TaskFinished(w *rt.Worker, t *rt.Task, v *rt.Version, exec time.Duration) {
	e, ok := s.unhold(w.ID(), t)
	g := e.group
	if g == nil {
		// The charge was recorded by TaskReady; a nil group means the task
		// never passed through it (defensive — cannot happen in practice).
		g = s.store.GroupFor(t.Type.Name, t.DataSetSize, t.Type.VersionNames())
	}
	g.Record(v.Name, exec)
	if ok {
		s.discharge(w.ID(), e)
	}
}
