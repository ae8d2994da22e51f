package rt

import (
	"repro/internal/deps"
	"repro/internal/mem"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// Master is the application's main thread: a simulation coroutine that
// creates tasks and blocks in taskwait, like the OmpSs master thread in
// the thread-pool execution model (Section III). Obtain one with
// Runtime.SpawnMain, then call Runtime.Run.
type Master struct {
	rt *Runtime
	p  *sim.Proc
}

// SpawnMain registers the application main function as a coroutine; it
// starts executing at virtual time zero when Run is called.
func (r *Runtime) SpawnMain(fn func(m *Master)) {
	var m Master
	m.rt = r
	m.p = r.eng.Spawn("master", func(p *sim.Proc) { fn(&m) })
}

// Runtime returns the runtime the master belongs to.
func (m *Master) Runtime() *Runtime { return m.rt }

// Now returns the current virtual time.
func (m *Master) Now() sim.Time { return m.rt.eng.Now() }

// Sleep advances the master's virtual time (models non-task application
// code between task creations).
func (m *Master) Sleep(d sim.Duration) { m.p.Sleep(d) }

// Submit creates one task instance of the given type with the given
// dependence accesses and work descriptor. The task keeps its own copy
// of accs: the caller may overwrite and reuse the slice as soon as
// Submit returns. If the runtime is configured with a CreateOverhead,
// the master's virtual time advances by that much per creation (task
// creation is work the master thread does).
func (m *Master) Submit(tt *TaskType, accs []deps.Access, work perfmodel.Work, args any) *Task {
	return m.SubmitPriority(tt, accs, work, args, 0)
}

// SubmitPriority creates a task with a scheduling priority (the OmpSs
// priority clause): higher-priority ready tasks are dispatched before
// lower-priority ones on every scheduler.
func (m *Master) SubmitPriority(tt *TaskType, accs []deps.Access, work perfmodel.Work, args any, priority int) *Task {
	if d := m.rt.cfg.CreateOverhead; d > 0 {
		m.p.Sleep(d)
	}
	return m.rt.submit(tt, accs, work, args, priority)
}

// Taskwait blocks until every submitted task has finished, then flushes
// all dirty device data back to host memory (the default OmpSs taskwait
// semantics: host data is valid again afterwards).
func (m *Master) Taskwait() {
	m.waitOutstanding()
	flushed := false
	m.rt.dir.FlushAll(func() { flushed = true; m.p.Unpark() })
	if !flushed {
		m.p.Park()
	}
}

// TaskwaitNoflush blocks until every submitted task has finished but
// leaves device copies where they are (the `noflush` clause extension),
// avoiding the output transfers.
func (m *Master) TaskwaitNoflush() {
	m.waitOutstanding()
}

// TaskwaitOn blocks until the last writer of obj (at submission time) has
// finished, then flushes that object only (the `taskwait on(x)` clause).
func (m *Master) TaskwaitOn(obj *mem.Object) {
	if w := m.rt.tracker.LastWriter(obj, 0); w != nil {
		t := w.(*Task)
		if t.state != StateFinished {
			t.onFinish = append(t.onFinish, func() { m.p.Unpark() })
			m.p.Park()
		}
	}
	flushed := false
	m.rt.dir.FlushObject(obj, func() { flushed = true; m.p.Unpark() })
	if !flushed {
		m.p.Park()
	}
}

// waitOutstanding parks the master until the outstanding-task counter
// reaches zero.
func (m *Master) waitOutstanding() {
	if m.rt.outstanding == 0 {
		return
	}
	m.rt.waiters = append(m.rt.waiters, func() { m.p.Unpark() })
	m.p.Park()
}
