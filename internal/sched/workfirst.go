package sched

import (
	"time"

	"repro/internal/rt"
)

// WorkFirst is a Cilk-style depth-first policy ("wf" in Nanos++): a task
// released by a predecessor is pushed on top of the releasing worker's
// own deque, so each worker dives down its dependence chain (the
// continuation runs immediately, keeping the working set hot), while idle
// workers steal from the *bottom* of a victim's deque — the oldest, most
// distant work, which disturbs the victim's chain the least. Dependence-
// free tasks (the master's submissions) go to a central LIFO stack,
// split by the main implementation's device set, so taking its newest
// compatible task costs O(device sets) rather than a scan of the stack,
// in the same order.
//
// Like every non-versioning OmpSs scheduler it only runs each task's main
// implementation (the paper's footnote 1).
type WorkFirst struct {
	rt      *rt.Runtime
	central readyQueue   // LIFO stack of chain heads
	deques  workerQueues // indexed by worker ID (front = bottom, back = top)
}

// NewWorkFirst returns the policy instance.
func NewWorkFirst() *WorkFirst { return &WorkFirst{central: readyQueue{lifo: true}} }

// Name implements rt.Scheduler.
func (s *WorkFirst) Name() string { return "wf" }

// Init implements rt.Scheduler.
func (s *WorkFirst) Init(r *rt.Runtime) {
	s.rt = r
	s.deques = newWorkerQueues(r)
}

// TaskReady implements rt.Scheduler: continue the releasing chain on the
// releasing worker, depth-first.
func (s *WorkFirst) TaskReady(t *rt.Task) {
	if pw := t.LastPredWorker(); pw != nil && t.Type.Main().RunsOn(pw.Kind()) {
		s.deques[pw.ID()].Append(t) // push top
		return
	}
	s.central.push(t)
}

// NextTask implements rt.Scheduler: own deque top, then the central
// stack, then steal from the bottom of the deepest compatible deque.
func (s *WorkFirst) NextTask(w *rt.Worker) rt.Assignment {
	if q := &s.deques[w.ID()]; q.Len() > 0 {
		return mainAssignment(q.PopBack())
	}
	if t := s.central.pop(w.Kind()); t != nil {
		return mainAssignment(t)
	}
	if victim := s.deques.stealVictim(s.rt, w); victim != nil {
		return mainAssignment(victim.PopFront()) // steal bottom (oldest)
	}
	return rt.Assignment{}
}

// TaskFinished implements rt.Scheduler.
func (s *WorkFirst) TaskFinished(*rt.Worker, *rt.Task, *rt.Version, time.Duration) {}

// Stranded implements rt.StrandReporter.
func (s *WorkFirst) Stranded() []*rt.Task {
	up := upKinds(s.rt)
	return s.deques.stranded(s.rt, up, s.central.stranded(up, nil))
}
