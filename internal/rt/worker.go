package rt

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Worker is one OmpSs worker thread, devoted to exactly one device (one
// SMP core or one GPU), as in Section IV-B. A worker drives at most one
// task through staging and execution, and — when prefetching is enabled —
// holds one additional prefetched task whose input transfers overlap the
// current task's execution (the paper enables overlap + prefetch for all
// schedulers in the evaluation).
type Worker struct {
	id  int
	dev machine.Device
	rt  *Runtime

	current *Task
	// next is the prefetched task (assigned by the scheduler, staging or
	// staged while current runs).
	next       *Task
	nextStaged bool

	busyUntil sim.Time

	// completeFn is the prebound completion callback: when the execution
	// event fires, the running task is by construction still w.current
	// (tryDispatch refuses to replace a non-nil current), so a single
	// per-worker closure replaces a per-task allocation in startExec.
	completeFn func()

	// stagers are the worker's two prebound staging countdowns. At most
	// two tasks stage on a worker at once — its current task and its
	// prefetched one — so two suffice, and staging allocates nothing.
	stagers [2]stager

	// execEv is the pending completion event of the running task, kept so
	// fault injection (DropWorker, SetWorkerSpeed) can cancel or reschedule
	// an execution in flight. The generation check in sim.EventID.Cancel
	// makes a stale handle harmless.
	execEv sim.EventID

	// down marks a device removed by fault injection: the worker neither
	// dispatches nor prefetches until RecoverWorker re-admits it.
	down bool
	// speed is the device's current speed multiplier (1 = nominal,
	// 0.5 = half speed). Execution durations divide by it.
	speed float64

	// TasksRun counts completed tasks, for diagnostics.
	TasksRun int64
}

// ID returns the worker's index (stable, dense, in device order).
func (w *Worker) ID() int { return w.id }

// Device returns the device this worker is devoted to.
func (w *Worker) Device() machine.Device { return w.dev }

// Kind returns the worker's device kind.
func (w *Worker) Kind() machine.DeviceKind { return w.dev.Kind }

// Space returns the memory space the worker computes from.
func (w *Worker) Space() machine.SpaceID { return w.dev.Space }

// Down reports whether the device has been removed by fault injection.
func (w *Worker) Down() bool { return w.down }

// Current returns the task occupying the worker, if any.
func (w *Worker) Current() *Task { return w.current }

func (w *Worker) String() string {
	return fmt.Sprintf("worker-%d(%s)", w.id, w.dev.Name)
}

// poke gives the worker a chance to pull work: dispatch if idle, prefetch
// if busy with a free prefetch slot.
func (w *Worker) poke() {
	if w.down {
		return
	}
	if w.current == nil {
		w.tryDispatch()
		return
	}
	if w.rt.cfg.Prefetch && w.next == nil {
		w.tryPrefetch()
	}
}

// tryDispatch fills the (idle) worker with its prefetched task or a fresh
// assignment from the scheduler. No-op if the worker already has a
// current task (it may have been refilled synchronously while a
// completion event was still unwinding).
func (w *Worker) tryDispatch() {
	if w.current != nil || w.down {
		return
	}
	if w.next != nil {
		t := w.next
		staged := w.nextStaged
		w.next = nil
		w.nextStaged = false
		w.current = t
		if staged {
			w.startExec(t)
		}
		// If not staged yet, the staging completion callback sees that t
		// is now current and starts execution.
		return
	}
	a := w.rt.sched.NextTask(w)
	if a.Empty() {
		return
	}
	w.checkAssignment(a)
	w.current = a.Task
	w.stage(a.Task, a.Version)
}

// tryPrefetch asks the scheduler for one look-ahead task and stages its
// data while the current task occupies the device.
func (w *Worker) tryPrefetch() {
	if w.next != nil || w.current == nil || w.down {
		return
	}
	a := w.rt.sched.NextTask(w)
	if a.Empty() {
		return
	}
	w.checkAssignment(a)
	w.next = a.Task
	w.stage(a.Task, a.Version)
}

func (w *Worker) checkAssignment(a Assignment) {
	if a.Task == nil || a.Version == nil {
		panic(fmt.Sprintf("rt: %v received incomplete assignment", w))
	}
	if !a.Version.RunsOn(w.dev.Kind) {
		panic(fmt.Sprintf("rt: %v (kind %s) assigned version %v", w, w.dev.Kind, a.Version))
	}
	if a.Task.state != StateReady {
		panic(fmt.Sprintf("rt: assignment of task %v in state %s", a.Task, a.Task.state))
	}
}

// stager counts one staging task's outstanding acquires down. done is
// bound once, when the worker is built, and serves every access of
// whichever task the stager currently holds (Acquire completions are
// simulation events, never concurrent).
type stager struct {
	task *Task
	done func()
}

// bindStagers builds the worker's staging countdowns.
func (w *Worker) bindStagers() {
	for i := range w.stagers {
		st := &w.stagers[i]
		st.done = func() {
			t := st.task
			t.staging--
			if t.staging == 0 {
				// Free the stager first: staged may start the task, and
				// starting it may prefetch (and so stage) the next one.
				st.task = nil
				w.staged(t)
			}
		}
	}
}

// stage pins and copies in the task's data through a free stager; when
// the last access is acquired, staged(t) runs the task (if it is, or has
// been promoted to, the worker's current task) or marks the prefetch
// slot staged. A task without accesses counts down from one, on an
// immediate event.
func (w *Worker) stage(t *Task, v *Version) {
	t.state = StateStaging
	t.worker = w
	t.version = v
	st := w.freeStager(t)
	st.task = t
	if len(t.Accesses) == 0 {
		t.staging = 1
		w.rt.eng.Immediately(st.done)
		return
	}
	t.staging = len(t.Accesses)
	for _, a := range t.Accesses {
		w.rt.dir.Acquire(a.Obj, w.dev.Space, a.Mode, st.done)
	}
}

// freeStager returns a stager not holding a task. Only the current and
// the prefetched task ever stage, so running out is a runtime bug.
func (w *Worker) freeStager(t *Task) *stager {
	for i := range w.stagers {
		if w.stagers[i].task == nil {
			return &w.stagers[i]
		}
	}
	panic(fmt.Sprintf("rt: %v cannot stage %v: already staging %v and %v",
		w, t, w.stagers[0].task, w.stagers[1].task))
}

// staged fires when the task's data is fully resident on the worker's
// device: run it if it occupies (or was promoted into) the current slot,
// otherwise record that the prefetched task is ready to start instantly.
func (w *Worker) staged(t *Task) {
	if w.down {
		// The device dropped while the task's data was in flight: the
		// transfers completed, but the task can never run here. Unpin and
		// hand it back to the scheduler.
		if w.current == t {
			w.current = nil
		} else {
			w.next = nil
			w.nextStaged = false
		}
		w.failTask(t)
		w.rt.pokeAll()
		return
	}
	if w.current == t {
		w.startExec(t)
	} else {
		w.nextStaged = true
	}
}

// failTask abandons a fully staged (or running) task on a dropped
// device: its pins release without committing writes (whatever the
// device computed is lost) and the task re-enters the scheduler. The
// caller has already cleared the worker's slot.
func (w *Worker) failTask(t *Task) {
	for _, a := range t.Accesses {
		w.rt.dir.Release(a.Obj, w.dev.Space)
	}
	w.rt.requeue(t)
}

// startExec begins the task's execution on the device: its duration comes
// from the version's performance model (plus noise), standing in for the
// real kernel; in RealCompute mode the genuine Go implementation also
// runs, so results are numerically real.
func (w *Worker) startExec(t *Task) {
	t.state = StateRunning
	t.startAt = w.rt.eng.Now()
	dur := t.version.Model.Estimate(t.Work)
	dur = w.rt.noise.Perturb(dur)
	if w.speed != 1 {
		dur = scaleDur(dur, w.speed)
	}
	w.busyUntil = t.startAt.Add(dur)

	if w.rt.cfg.RealCompute && t.version.Fn != nil {
		t.version.Fn(&ExecContext{Task: t, Version: t.version, Worker: w})
	}

	w.execEv = w.rt.eng.After(dur, w.completeFn)

	// Execution frees the link: a prefetch may now overlap it.
	if w.rt.cfg.Prefetch && w.next == nil {
		w.tryPrefetch()
	}
}

// complete commits the task's writes, releases pins, counts the run
// (recording it when the runtime is traced), notifies the scheduler and
// dependence successors, and pulls more work.
func (w *Worker) complete(t *Task) {
	t.state = StateFinished
	t.endAt = w.rt.eng.Now()
	w.TasksRun++
	if t.requeues > 0 {
		// Re-adaptation latency: how long the task took to complete after a
		// fault bounced it back to the scheduler. The campaign reports the
		// worst case per run.
		if lat := t.endAt.Sub(t.requeuedAt); lat > w.rt.ReadaptMax {
			w.rt.ReadaptMax = lat
		}
	}

	for _, a := range t.Accesses {
		if a.Mode.Writes() {
			w.rt.dir.CommitWrite(a.Obj, w.dev.Space)
		}
	}
	for _, a := range t.Accesses {
		w.rt.dir.Release(a.Obj, w.dev.Space)
	}

	t.version.runs++
	if w.rt.tracer != nil {
		w.rt.tracer.RecordTask(trace.TaskRecord{
			TaskID:      t.ID,
			Type:        t.Type.Name,
			Version:     t.version.Name,
			Worker:      w.id,
			Device:      w.dev.Name,
			DeviceKind:  w.dev.Kind,
			Submit:      t.submitAt,
			Ready:       t.readyAt,
			Start:       t.startAt,
			End:         t.endAt,
			DataSetSize: t.DataSetSize,
			Preds:       t.predIDs,
		})
	}

	w.rt.sched.TaskFinished(w, t, t.version, t.ExecTime())
	w.current = nil
	w.rt.taskDone(t)
	w.tryDispatch()
	// Any task still queued at this point has no compatible idle worker
	// (idle workers pull the moment they go idle), so filling the prefetch
	// slot now cannot starve a peer.
	if w.rt.cfg.Prefetch {
		w.poke()
	}
}
