package sched_test

import (
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/rt"
	"repro/internal/sched"
)

func TestWorkFirstRegistered(t *testing.T) {
	s, err := sched.New("wf")
	if err != nil || s.Name() != "wf" {
		t.Fatalf("New(wf) = %v, %v", s, err)
	}
	if _, err := sched.New("random"); err != nil {
		t.Fatalf("New(random): %v", err)
	}
}

func TestWorkFirstChainsStayOnReleasingWorker(t *testing.T) {
	// Two chains on two workers: with depth-first continuation every
	// chain should stay on the worker that started it.
	r := runChains(sched.NewWorkFirst(), 2, 2, 8)
	chainWorker := make(map[int64]int) // first task ID of chain -> worker
	for _, rec := range r.Tracer().Tasks {
		// Task IDs 1..8 are chain A, 9..16 chain B (submission order).
		chain := int64(0)
		if rec.TaskID > 8 {
			chain = 1
		}
		if w, seen := chainWorker[chain]; seen && w != rec.Worker {
			t.Fatalf("chain %d hopped from worker %d to %d", chain, w, rec.Worker)
		} else if !seen {
			chainWorker[chain] = rec.Worker
		}
	}
	if len(chainWorker) != 2 || chainWorker[0] == chainWorker[1] {
		t.Errorf("chain placement = %v, want one chain per worker", chainWorker)
	}
}

func TestWorkFirstCompletesEverything(t *testing.T) {
	r := runChains(sched.NewWorkFirst(), 4, 7, 13)
	if got := len(r.Tracer().Tasks); got != 7*13 {
		t.Errorf("ran %d tasks, want %d", got, 7*13)
	}
	if n := int(r.TasksSubmitted) - r.TasksCompleted(); n != 0 {
		t.Errorf("outstanding = %d", n)
	}
}

func TestWorkFirstIdleWorkersSteal(t *testing.T) {
	// One long chain plus a pile of independent tasks submitted first:
	// the second worker must steal rather than idle.
	s := sched.NewWorkFirst()
	r := rt.New(rt.Config{
		Machine:    machine.MinoTauro(2, 0),
		SMPWorkers: 2,
		Scheduler:  s,
	})
	tt := r.DeclareTaskType("step")
	tt.AddVersion("step_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, nil)
	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < 20; i++ {
			obj := r.Register("indep", 8)
			m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
	end := r.Run()
	// 20 x 1ms over 2 workers: ~10ms if both work, 20ms if one starves.
	if end.Duration() > 15*time.Millisecond {
		t.Errorf("makespan %v suggests a starved worker", end.Duration())
	}
	used := map[int]bool{}
	for _, rec := range r.Tracer().Tasks {
		used[rec.Worker] = true
	}
	if len(used) != 2 {
		t.Errorf("workers used = %v", used)
	}
}

func TestWorkFirstLIFOOrderOnCentralStack(t *testing.T) {
	// A single worker and independent tasks: work-first runs the newest
	// submission first (LIFO), unlike bf's FIFO.
	r := rt.New(rt.Config{
		Machine:     machine.MinoTauro(1, 0),
		SMPWorkers:  1,
		Scheduler:   sched.NewWorkFirst(),
		RealCompute: true, // Fn side effects record the order
	})
	tt := r.DeclareTaskType("step")
	var order []int
	tt.AddVersion("step_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond},
		func(ctx *rt.ExecContext) { order = append(order, ctx.Task.Args.(int)) })
	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < 4; i++ {
			m.Submit(tt, nil, perfmodel.Work{}, i)
		}
		m.Taskwait()
	})
	r.Run()
	// Task 0 dispatches immediately to the idle worker; 1..3 stack up and
	// then pop newest-first.
	want := []int{0, 3, 2, 1}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
}

func TestRandomIsSeedDeterministicAndComplete(t *testing.T) {
	run := func(seed int64) []int {
		s := sched.NewRandom(seed)
		r := runChains(s, 3, 5, 6)
		var workers []int
		for _, rec := range r.Tracer().Tasks {
			workers = append(workers, rec.Worker)
		}
		return workers
	}
	a, b, c := run(42), run(42), run(7)
	if len(a) != 30 {
		t.Fatalf("ran %d tasks, want 30", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical schedules (suspicious)")
	}
}

func TestRandomSetSeedResets(t *testing.T) {
	s := sched.NewRandom(1)
	s.SetSeed(99)
	r := runChains(s, 2, 3, 3)
	if got := len(r.Tracer().Tasks); got != 9 {
		t.Errorf("ran %d tasks", got)
	}
}

func TestRandomStealPreventsStarvation(t *testing.T) {
	// With stealing, makespan cannot exceed ~serial/2 by much on 2 workers.
	s := sched.NewRandom(3)
	r := rt.New(rt.Config{
		Machine:    machine.MinoTauro(2, 0),
		SMPWorkers: 2,
		Scheduler:  s,
	})
	tt := r.DeclareTaskType("step")
	tt.AddVersion("step_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, nil)
	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < 40; i++ {
			m.Submit(tt, nil, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
	end := r.Run()
	if end.Duration() > 25*time.Millisecond {
		t.Errorf("makespan %v: stealing not effective", end.Duration())
	}
}
