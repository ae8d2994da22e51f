package rt

// Fault injection: the runtime-side hooks the internal/chaos subsystem
// drives. Everything here runs in simulation-event context and is
// deterministic — faults are ordinary virtual-time events, so a faulted
// run replays byte-identically from (spec, seed, chaos plan).
//
// Semantics:
//
//   - DropWorker removes a device mid-run. Its in-flight task (running,
//     staged, or still staging) is abandoned: device pins release
//     without committing writes — whatever the device computed is lost
//     — and the task re-enters the scheduler to run, exactly once, on a
//     surviving device. In RealCompute mode the re-run re-executes the
//     version function, so numerical results stay correct.
//   - RecoverWorker re-admits a dropped device; the scheduler is
//     notified (FaultAware) and the worker immediately pulls work.
//   - SetWorkerSpeed rescales a device's speed (1 = nominal, 0.5 = half
//     speed). A running task's remaining work is rescaled in place:
//     remaining wall time is converted back to work at the old speed
//     and forward to wall time at the new speed.

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// FaultAware is implemented by schedulers that keep per-worker state
// (queues, busy-time charges) and need to react when fault injection
// removes or re-admits a device. Schedulers with central queues need
// not implement it: a down worker simply stops pulling.
type FaultAware interface {
	// WorkerDown is called after the worker is marked down, before its
	// in-flight tasks are re-queued. The scheduler must drain any work it
	// had routed to this worker and re-decide it.
	WorkerDown(w *Worker)
	// WorkerUp is called after the worker is re-admitted; the scheduler
	// may re-route parked work to it.
	WorkerUp(w *Worker)
}

// StrandReporter is implemented by schedulers that can name the ready
// tasks they hold which no up worker can run. A fault that drops every
// device able to run a task leaves it queued for good; the runtime asks
// only once the simulation has deadlocked on it, to say why.
type StrandReporter interface {
	Stranded() []*Task
}

// StrandedError is the panic value of a run that deadlocked because
// faults left ready tasks no up worker can run.
type StrandedError struct {
	Types []string // task types of the stranded tasks, sorted
	Down  []string // device names of the down workers, in worker order
}

func (e *StrandedError) Error() string {
	return fmt.Sprintf("rt: stranded: no up worker can run queued task types [%s]; down devices: [%s]",
		strings.Join(e.Types, " "), strings.Join(e.Down, " "))
}

// explainDeadlock is the engine's deadlock hook: a StrandedError if the
// scheduler holds stranded tasks, otherwise nil (the engine then names
// the parked coroutines).
func (r *Runtime) explainDeadlock() error {
	sr, ok := r.sched.(StrandReporter)
	if !ok {
		return nil
	}
	var types []string
	for _, t := range sr.Stranded() {
		if i, found := slices.BinarySearch(types, t.Type.Name); !found {
			types = slices.Insert(types, i, t.Type.Name)
		}
	}
	if len(types) == 0 {
		return nil
	}
	var down []string
	for _, w := range r.workers {
		if w.down {
			down = append(down, w.dev.Name)
		}
	}
	return &StrandedError{Types: types, Down: down}
}

// NoteFault counts one applied chaos event (diagnostics and campaign
// reporting).
func (r *Runtime) NoteFault() { r.FaultsInjected++ }

// DropWorker removes the device behind worker id: pending work drains
// back to the scheduler and the in-flight task (if any) fails and
// re-queues. No-op if already down. Must run in engine context.
func (r *Runtime) DropWorker(id int) {
	w := r.worker(id)
	if w.down {
		return
	}
	w.down = true
	if fa, ok := r.sched.(FaultAware); ok {
		fa.WorkerDown(w)
	}
	// Abandon the prefetched task first so requeue order is (next,
	// current) — the scheduler sees them in a fixed order regardless of
	// staging timing.
	if t := w.next; t != nil && w.nextStaged {
		w.next = nil
		w.nextStaged = false
		w.failTask(t)
	}
	// A task still staging (t.staging > 0) keeps its slot: transfers in
	// flight cannot be recalled, so staged() notices the down worker when
	// the last acquire lands and fails the task then.
	if t := w.current; t != nil && t.state == StateRunning {
		w.execEv.Cancel()
		w.current = nil
		w.busyUntil = r.eng.Now()
		w.failTask(t)
	}
	r.pokeAll()
}

// RecoverWorker re-admits a dropped device. No-op if not down. Must run
// in engine context.
func (r *Runtime) RecoverWorker(id int) {
	w := r.worker(id)
	if !w.down {
		return
	}
	w.down = false
	if fa, ok := r.sched.(FaultAware); ok {
		fa.WorkerUp(w)
	}
	r.pokeAll()
}

// SetWorkerSpeed sets the device's speed multiplier (1 = nominal,
// 0.5 = half speed; must be > 0). A running task's completion event is
// rescheduled so only its remaining work is affected. Must run in
// engine context.
func (r *Runtime) SetWorkerSpeed(id int, factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("rt: SetWorkerSpeed(%d, %v): factor must be > 0", id, factor))
	}
	w := r.worker(id)
	old := w.speed
	if old == factor {
		return
	}
	w.speed = factor
	if t := w.current; t != nil && t.state == StateRunning {
		now := r.eng.Now()
		if rem := w.busyUntil.Sub(now); rem > 0 {
			w.execEv.Cancel()
			newRem := scaleDur(time.Duration(float64(rem)*old), factor)
			w.busyUntil = now.Add(newRem)
			w.execEv = r.eng.After(newRem, w.completeFn)
		}
	}
}

// scaleDur converts nominal-speed work d to wall time at the given
// speed factor. Pure float64 arithmetic: deterministic across runs.
func scaleDur(d time.Duration, factor float64) time.Duration {
	return time.Duration(float64(d) / factor)
}

// worker returns the worker with the given ID or panics: chaos plans
// resolve device names against this runtime before arming, so an
// out-of-range ID is a programming error.
func (r *Runtime) worker(id int) *Worker {
	if id < 0 || id >= len(r.workers) {
		panic(fmt.Sprintf("rt: no worker %d (have %d)", id, len(r.workers)))
	}
	return r.workers[id]
}

// requeue hands a faulted task back to the scheduler. The task keeps
// any commutative locks it won at readiness (exclusivity must span the
// re-run); dependence state is untouched — predecessors completed long
// ago. Must run in engine context.
func (r *Runtime) requeue(t *Task) {
	now := r.eng.Now()
	t.worker = nil
	t.version = nil
	t.state = StateReady
	t.readyAt = now
	t.requeuedAt = now
	t.requeues++
	r.TasksRequeued++
	r.sched.TaskReady(t)
}
