package sched

import (
	"time"

	"repro/internal/rt"
)

// Affinity is the paper's "affinity scheduler": a smarter policy that
// minimizes data motion. For each ready task it evaluates, per candidate
// device, the number of bytes that would have to be transferred into
// that device's memory space to run the task (data already resident or
// in flight costs nothing), and enqueues the task on the worker where
// that amount is minimal. Ties break toward the shorter queue and then
// the lower worker ID, keeping decisions deterministic.
//
// Idle workers steal from the longest compatible peer queue. Stealing
// sacrifices locality for load balance — the behaviour the paper observes
// on Cholesky, where imbalance makes one GPU steal from the other and
// the transfer volume grows.
type Affinity struct {
	rt    *rt.Runtime
	local map[int][]*rt.Task
}

// NewAffinity returns the policy instance.
func NewAffinity() *Affinity { return &Affinity{local: make(map[int][]*rt.Task)} }

// Name implements rt.Scheduler.
func (s *Affinity) Name() string { return "affinity" }

// Init implements rt.Scheduler.
func (s *Affinity) Init(r *rt.Runtime) { s.rt = r }

// TaskReady implements rt.Scheduler: place the task where it moves the
// fewest bytes.
func (s *Affinity) TaskReady(t *rt.Task) {
	main := t.Type.Main()
	dir := s.rt.Directory()

	// The policy considers bytes (Section V-A2: "the scheduler chooses
	// the device where the minimum amount of data must be transferred").
	// Cold tasks — none of their data resident on any candidate device —
	// spread by queue length; once data is partially resident the
	// minimum-bytes device wins outright (ties to the lowest worker ID),
	// so work gravitates to wherever the data landed. Under imbalance
	// idle workers steal, which is what inflates affinity's transfer
	// volume on Cholesky (Fig. 10).
	var totalRead int64
	for _, a := range t.Accesses {
		if a.Mode.Reads() {
			totalRead += a.Obj.Size
		}
	}
	var best *rt.Worker
	var bestBytes int64
	for _, w := range s.rt.Workers() {
		if !main.RunsOn(w.Kind()) {
			continue
		}
		var bytes int64
		for _, a := range t.Accesses {
			bytes += dir.BytesNeeded(a.Obj, w.Space(), a.Mode)
		}
		better := best == nil || bytes < bestBytes ||
			(bytes == bestBytes && bytes == totalRead &&
				len(s.local[w.ID()]) < len(s.local[best.ID()]))
		if better {
			best = w
			bestBytes = bytes
		}
	}
	if best == nil {
		panic("sched: affinity found no worker for task " + t.Type.Name)
	}
	s.local[best.ID()] = InsertByPriority(s.local[best.ID()], t, taskPriority)
}

// NextTask implements rt.Scheduler.
func (s *Affinity) NextTask(w *rt.Worker) rt.Assignment {
	if q := s.local[w.ID()]; len(q) > 0 {
		t := q[0]
		s.local[w.ID()] = q[1:]
		return rt.Assignment{Task: t, Version: t.Type.Main()}
	}
	// Steal from the longest compatible peer queue.
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
func (s *Affinity) TaskFinished(*rt.Worker, *rt.Task, *rt.Version, time.Duration) {}

// QueueLens reports per-worker queue lengths (diagnostic).
func (s *Affinity) QueueLens() map[int]int {
	out := make(map[int]int, len(s.local))
	for id, q := range s.local {
		out[id] = len(q)
	}
	return out
}
