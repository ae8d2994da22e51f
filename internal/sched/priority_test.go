package sched_test

import (
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/sched/versioning"
)

// TestPriorityOrdersReadyQueue submits low-priority tasks first, then one
// high-priority task, all independent and ready at once on a single
// worker: the high-priority task must execute before the still-queued
// low-priority ones (but after whatever already started).
func TestPriorityOrdersReadyQueue(t *testing.T) {
	for _, schedName := range []string{"bf", "dep", "affinity", "versioning"} {
		t.Run(schedName, func(t *testing.T) {
			var s rt.Scheduler = versioning.New(versioning.Options{})
			if schedName != "versioning" {
				var err error
				if s, err = sched.New(schedName); err != nil {
					t.Fatal(err)
				}
			}
			r := rt.New(rt.Config{
				Machine:    machine.MinoTauro(1, 0),
				SMPWorkers: 1,
				Scheduler:  s,
			})
			tt := r.DeclareTaskType("w")
			tt.AddVersion("w_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, nil)

			var urgent *rt.Task
			r.SpawnMain(func(m *rt.Master) {
				for i := 0; i < 5; i++ {
					obj := r.Register("low", 10)
					m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
				}
				hi := r.Register("hi", 10)
				urgent = m.SubmitPriority(tt, []deps.Access{deps.InOut(hi)}, perfmodel.Work{}, nil, 10)
				m.Taskwait()
			})
			r.Run()

			// Find the urgent task's execution position.
			pos := -1
			for i, rec := range r.Tracer().Tasks {
				if rec.TaskID == urgent.ID {
					pos = i
				}
			}
			if pos < 0 {
				t.Fatal("urgent task never ran")
			}
			// It was submitted last (6th) but must run no later than 2nd:
			// position 0 if the queue had not been popped yet, else 1.
			if pos > 1 {
				t.Errorf("urgent task ran at position %d, want <= 1", pos)
			}
		})
	}
}

func TestEqualPrioritiesKeepFIFO(t *testing.T) {
	s, err := sched.New("bf")
	if err != nil {
		t.Fatal(err)
	}
	r := rt.New(rt.Config{
		Machine:    machine.MinoTauro(1, 0),
		SMPWorkers: 1,
		Scheduler:  s,
	})
	tt := r.DeclareTaskType("w")
	tt.AddVersion("w_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, nil)
	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < 6; i++ {
			obj := r.Register("x", 10)
			m.SubmitPriority(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil, 3)
		}
		m.Taskwait()
	})
	r.Run()
	recs := r.Tracer().Tasks
	for i := 1; i < len(recs); i++ {
		if recs[i].TaskID < recs[i-1].TaskID {
			t.Fatalf("equal-priority tasks reordered: %d before %d", recs[i-1].TaskID, recs[i].TaskID)
		}
	}
}

func TestInsertByPriority(t *testing.T) {
	mk := func(id int64, prio int) *rt.Task {
		return &rt.Task{ID: id, Priority: prio}
	}
	prio := func(t *rt.Task) int { return t.Priority }
	var q []*rt.Task
	q = sched.InsertByPriority(q, mk(1, 0), prio)
	q = sched.InsertByPriority(q, mk(2, 5), prio)
	q = sched.InsertByPriority(q, mk(3, 0), prio)
	q = sched.InsertByPriority(q, mk(4, 5), prio)
	q = sched.InsertByPriority(q, mk(5, 2), prio)
	wantIDs := []int64{2, 4, 5, 1, 3}
	for i, w := range wantIDs {
		if q[i].ID != w {
			t.Fatalf("queue order = %v, want %v at %d", ids(q), wantIDs, i)
		}
	}
}

func ids(q []*rt.Task) []int64 {
	out := make([]int64, len(q))
	for i, t := range q {
		out[i] = t.ID
	}
	return out
}
