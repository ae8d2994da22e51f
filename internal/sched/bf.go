package sched

import (
	"time"

	"repro/internal/rt"
)

// BreadthFirst is a central-FIFO policy: ready tasks queue globally in
// readiness order and each worker takes the oldest task whose main
// implementation its device can run. Like every non-versioning OmpSs
// scheduler, it only ever runs the main implementation (the paper's
// footnote 1: `implements` versions are ignored by the other schedulers).
type BreadthFirst struct {
	rt    *rt.Runtime
	queue []*rt.Task
}

// NewBreadthFirst returns the policy instance.
func NewBreadthFirst() *BreadthFirst { return &BreadthFirst{} }

// Name implements rt.Scheduler.
func (s *BreadthFirst) Name() string { return "bf" }

// Init implements rt.Scheduler.
func (s *BreadthFirst) Init(r *rt.Runtime) { s.rt = r }

// TaskReady implements rt.Scheduler.
func (s *BreadthFirst) TaskReady(t *rt.Task) { s.queue = InsertByPriority(s.queue, t, taskPriority) }

// NextTask implements rt.Scheduler: oldest compatible task wins.
func (s *BreadthFirst) NextTask(w *rt.Worker) rt.Assignment {
	for i, t := range s.queue {
		main := t.Type.Main()
		if main.RunsOn(w.Kind()) {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return rt.Assignment{Task: t, Version: main}
		}
	}
	return rt.Assignment{}
}

// TaskFinished implements rt.Scheduler.
func (s *BreadthFirst) TaskFinished(*rt.Worker, *rt.Task, *rt.Version, time.Duration) {}

// QueueLen reports the number of queued ready tasks (diagnostic).
func (s *BreadthFirst) QueueLen() int { return len(s.queue) }
