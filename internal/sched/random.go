package sched

import (
	"math/rand"
	"time"

	"repro/internal/rt"
)

// Random assigns every ready task to a uniformly random compatible
// worker. It is a control baseline, not a serious policy: any scheduler
// worth its name must beat it, and the property-based tests use it to
// shake out ordering assumptions. Deterministic for a fixed seed.
type Random struct {
	rt     *rt.Runtime
	rng    *rand.Rand
	queues workerQueues // indexed by worker ID
}

// NewRandom returns the policy seeded with the given value.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements rt.Scheduler.
func (s *Random) Name() string { return "random" }

// Init implements rt.Scheduler.
func (s *Random) Init(r *rt.Runtime) {
	s.rt = r
	s.queues = newWorkerQueues(r)
}

// SetSeed reseeds the policy (used by the facade to honour Config.Seed).
func (s *Random) SetSeed(seed int64) { s.rng = rand.New(rand.NewSource(seed)) }

// TaskReady implements rt.Scheduler: enqueue on a random compatible
// worker.
func (s *Random) TaskReady(t *rt.Task) {
	main := t.Type.Main()
	var candidates []*rt.Worker
	for _, w := range s.rt.Workers() {
		if main.RunsOn(w.Kind()) {
			candidates = append(candidates, w)
		}
	}
	if len(candidates) == 0 {
		panic("sched: random: no compatible worker for task " + t.Type.Name)
	}
	w := candidates[s.rng.Intn(len(candidates))]
	s.queues[w.ID()].Append(t)
}

// NextTask implements rt.Scheduler: pop own FIFO; steal a random
// compatible victim's newest task when empty (otherwise an unlucky
// assignment sequence could leave workers idle forever while others
// drown).
func (s *Random) NextTask(w *rt.Worker) rt.Assignment {
	if q := &s.queues[w.ID()]; q.Len() > 0 {
		return mainAssignment(q.PopFront())
	}
	var victims []*rt.Worker
	for _, other := range s.rt.Workers() {
		if other.ID() == w.ID() || other.Kind() != w.Kind() {
			continue
		}
		if s.queues[other.ID()].Len() > 0 {
			victims = append(victims, other)
		}
	}
	if len(victims) == 0 {
		return rt.Assignment{}
	}
	v := victims[s.rng.Intn(len(victims))]
	return mainAssignment(s.queues[v.ID()].PopBack())
}

// TaskFinished implements rt.Scheduler.
func (s *Random) TaskFinished(*rt.Worker, *rt.Task, *rt.Version, time.Duration) {}

// Stranded implements rt.StrandReporter.
func (s *Random) Stranded() []*rt.Task { return s.queues.stranded(s.rt, upKinds(s.rt), nil) }
