package sched

import (
	"time"

	"repro/internal/rt"
)

// DepAware is the paper's "dependency-aware scheduler": a simple policy
// that tries to find chains of dependencies and schedule consecutive
// tasks of the same chain to the same device. When a task becomes ready
// it is placed on the queue of the worker that ran the predecessor which
// released it (if that worker's device can run the task's main
// implementation); dependence-free tasks go to a central queue. Its
// decisions are fast, but in some cases it cannot fully exploit data
// locality (Section V-A2).
//
// Idle workers drain their own queue first, then the central queue, then
// steal from the longest compatible peer queue so no device starves. The
// central queue is split by the main implementation's device set, so
// taking its oldest compatible task costs O(device sets) rather than a
// scan of the backlog, in the same order.
type DepAware struct {
	rt      *rt.Runtime
	central readyQueue
	local   workerQueues // chain queues, indexed by worker ID
}

// NewDepAware returns the policy instance.
func NewDepAware() *DepAware { return &DepAware{} }

// Name implements rt.Scheduler.
func (s *DepAware) Name() string { return "dep" }

// Init implements rt.Scheduler.
func (s *DepAware) Init(r *rt.Runtime) {
	s.rt = r
	s.local = newWorkerQueues(r)
}

// TaskReady implements rt.Scheduler: follow the releasing chain.
func (s *DepAware) TaskReady(t *rt.Task) {
	if pw := t.LastPredWorker(); pw != nil && t.Type.Main().RunsOn(pw.Kind()) {
		s.local[pw.ID()].Push(t, taskPriority)
		return
	}
	s.central.push(t)
}

// NextTask implements rt.Scheduler.
func (s *DepAware) NextTask(w *rt.Worker) rt.Assignment {
	// Own chain queue first (front: oldest chain link).
	if q := &s.local[w.ID()]; q.Len() > 0 {
		return mainAssignment(q.PopFront())
	}
	// Central queue: oldest compatible.
	if t := s.central.pop(w.Kind()); t != nil {
		return mainAssignment(t)
	}
	// Steal from the longest compatible peer queue (back = newest, to
	// disturb the victim's chain as little as possible).
	if victim := s.local.stealVictim(s.rt, w); victim != nil {
		return mainAssignment(victim.PopBack())
	}
	return rt.Assignment{}
}

// TaskFinished implements rt.Scheduler.
func (s *DepAware) TaskFinished(*rt.Worker, *rt.Task, *rt.Version, time.Duration) {}

// Stranded implements rt.StrandReporter.
func (s *DepAware) Stranded() []*rt.Task {
	up := upKinds(s.rt)
	return s.local.stranded(s.rt, up, s.central.stranded(up, nil))
}
