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
// steal from the longest compatible peer queue so no device starves.
type DepAware struct {
	rt      *rt.Runtime
	central []*rt.Task
	local   map[int][]*rt.Task // worker ID -> chain queue
}

// NewDepAware returns the policy instance.
func NewDepAware() *DepAware { return &DepAware{local: make(map[int][]*rt.Task)} }

// Name implements rt.Scheduler.
func (s *DepAware) Name() string { return "dep" }

// Init implements rt.Scheduler.
func (s *DepAware) Init(r *rt.Runtime) { s.rt = r }

// TaskReady implements rt.Scheduler: follow the releasing chain.
func (s *DepAware) TaskReady(t *rt.Task) {
	main := t.Type.Main()
	if pw := t.LastPredWorker(); pw != nil && main.RunsOn(pw.Kind()) {
		s.local[pw.ID()] = InsertByPriority(s.local[pw.ID()], t, taskPriority)
		return
	}
	s.central = InsertByPriority(s.central, t, taskPriority)
}

// NextTask implements rt.Scheduler.
func (s *DepAware) NextTask(w *rt.Worker) rt.Assignment {
	// Own chain queue first (front: oldest chain link).
	if q := s.local[w.ID()]; len(q) > 0 {
		t := q[0]
		s.local[w.ID()] = q[1:]
		return rt.Assignment{Task: t, Version: t.Type.Main()}
	}
	// Central queue: oldest compatible.
	for i, t := range s.central {
		if t.Type.Main().RunsOn(w.Kind()) {
			s.central = append(s.central[:i], s.central[i+1:]...)
			return rt.Assignment{Task: t, Version: t.Type.Main()}
		}
	}
	// Steal from the longest compatible peer queue (back = newest, to
	// disturb the victim's chain as little as possible).
	var victim *rt.Worker
	longest := 0
	for _, other := range s.rt.Workers() {
		if other.ID() == w.ID() || other.Kind() != w.Kind() {
			continue
		}
		if n := len(s.local[other.ID()]); n > longest {
			longest = n
			victim = other
		}
	}
	if victim != nil {
		q := s.local[victim.ID()]
		t := q[len(q)-1]
		s.local[victim.ID()] = q[:len(q)-1]
		return rt.Assignment{Task: t, Version: t.Type.Main()}
	}
	return rt.Assignment{}
}

// TaskFinished implements rt.Scheduler.
func (s *DepAware) TaskFinished(*rt.Worker, *rt.Task, *rt.Version, time.Duration) {}
