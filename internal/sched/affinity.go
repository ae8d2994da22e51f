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
	local workerQueues // indexed by worker ID
}

// NewAffinity returns the policy instance.
func NewAffinity() *Affinity { return &Affinity{} }

// Name implements rt.Scheduler.
func (s *Affinity) Name() string { return "affinity" }

// Init implements rt.Scheduler.
func (s *Affinity) Init(r *rt.Runtime) {
	s.rt = r
	s.local = newWorkerQueues(r)
}

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
				s.local[w.ID()].Len() < s.local[best.ID()].Len())
		if better {
			best = w
			bestBytes = bytes
		}
	}
	if best == nil {
		panic("sched: affinity found no worker for task " + t.Type.Name)
	}
	s.local[best.ID()].Push(t, taskPriority)
}

// NextTask implements rt.Scheduler.
func (s *Affinity) NextTask(w *rt.Worker) rt.Assignment {
	if q := &s.local[w.ID()]; q.Len() > 0 {
		return mainAssignment(q.PopFront())
	}
	// Steal from the longest compatible peer queue.
	if victim := s.local.stealVictim(s.rt, w); victim != nil {
		return mainAssignment(victim.PopBack())
	}
	return rt.Assignment{}
}

// TaskFinished implements rt.Scheduler.
func (s *Affinity) TaskFinished(*rt.Worker, *rt.Task, *rt.Version, time.Duration) {}

// Stranded implements rt.StrandReporter.
func (s *Affinity) Stranded() []*rt.Task { return s.local.stranded(s.rt, upKinds(s.rt), nil) }
