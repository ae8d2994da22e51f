package sched

import (
	"time"

	"repro/internal/rt"
)

// BreadthFirst is a central-FIFO policy: ready tasks queue globally in
// readiness order (by priority first) and each worker takes the oldest
// task whose main implementation its device can run. The queue is split
// by the main implementation's device set, so a dispatch costs O(device
// sets) rather than a scan of the backlog, in the same order. Like every
// non-versioning OmpSs scheduler, it only ever runs the main
// implementation (the paper's footnote 1: `implements` versions are
// ignored by the other schedulers).
type BreadthFirst struct {
	rt    *rt.Runtime
	queue readyQueue
}

// NewBreadthFirst returns the policy instance.
func NewBreadthFirst() *BreadthFirst { return &BreadthFirst{} }

// Name implements rt.Scheduler.
func (s *BreadthFirst) Name() string { return "bf" }

// Init implements rt.Scheduler.
func (s *BreadthFirst) Init(r *rt.Runtime) { s.rt = r }

// TaskReady implements rt.Scheduler.
func (s *BreadthFirst) TaskReady(t *rt.Task) { s.queue.push(t) }

// NextTask implements rt.Scheduler: oldest compatible task wins.
func (s *BreadthFirst) NextTask(w *rt.Worker) rt.Assignment {
	return mainAssignment(s.queue.pop(w.Kind()))
}

// TaskFinished implements rt.Scheduler.
func (s *BreadthFirst) TaskFinished(*rt.Worker, *rt.Task, *rt.Version, time.Duration) {}

// Stranded implements rt.StrandReporter.
func (s *BreadthFirst) Stranded() []*rt.Task { return s.queue.stranded(upKinds(s.rt), nil) }
