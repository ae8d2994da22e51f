package rt_test

import (
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/stats"
)

func commRT(t *testing.T, workers int) *rt.Runtime {
	t.Helper()
	return rt.New(rt.Config{
		Machine:     machine.MinoTauro(workers, 0),
		SMPWorkers:  workers,
		Scheduler:   sched.NewBreadthFirst(),
		RealCompute: true,
	})
}

func TestCommutativeTasksNeverOverlapOnSameObject(t *testing.T) {
	// 8 commutative accumulations onto one object over 4 workers: mutual
	// exclusion must serialize them even though no dependence edges exist.
	r := commRT(t, 4)
	tt := r.DeclareTaskType("acc")
	sum := 0
	tt.AddVersion("acc_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond},
		func(ctx *rt.ExecContext) { sum += ctx.Task.Args.(int) })

	o := r.Register("acc", 1000)
	r.SpawnMain(func(m *rt.Master) {
		for i := 1; i <= 8; i++ {
			m.Submit(tt, []deps.Access{deps.Commutative(o)}, perfmodel.Work{}, i)
		}
		m.Taskwait()
	})
	end := r.Run()

	if sum != 36 {
		t.Errorf("sum = %d, want 36 (every member ran once)", sum)
	}
	// Serialized: makespan >= 8ms despite 4 workers.
	if end.Duration() < 8*time.Millisecond {
		t.Errorf("makespan %v < serial 8ms: mutual exclusion broken", end.Duration())
	}
	// And execution intervals must not overlap.
	recs := r.Tracer().Tasks
	for i := range recs {
		for j := i + 1; j < len(recs); j++ {
			if recs[i].Start < recs[j].End && recs[j].Start < recs[i].End {
				t.Fatalf("tasks %d and %d overlap", recs[i].TaskID, recs[j].TaskID)
			}
		}
	}
	if problems := stats.Validate(r.Tracer()); len(problems) > 0 {
		t.Error(problems)
	}
}

func TestCommutativeGroupsOnDifferentObjectsRunInParallel(t *testing.T) {
	r := commRT(t, 2)
	tt := r.DeclareTaskType("acc")
	tt.AddVersion("acc_smp", machine.KindSMP, perfmodel.Fixed{D: 10 * time.Millisecond}, nil)
	a := r.Register("a", 100)
	b := r.Register("b", 100)
	r.SpawnMain(func(m *rt.Master) {
		m.Submit(tt, []deps.Access{deps.Commutative(a)}, perfmodel.Work{}, nil)
		m.Submit(tt, []deps.Access{deps.Commutative(b)}, perfmodel.Work{}, nil)
		m.Taskwait()
	})
	end := r.Run()
	if end.Duration() >= 20*time.Millisecond {
		t.Errorf("makespan %v: independent groups serialized", end.Duration())
	}
}

func TestCommutativeAllowsReordering(t *testing.T) {
	// Task A's commutative access is delayed behind a long producer; task
	// B (submitted later, same group) has no predecessors. With inout, B
	// would have to wait for A; with commutative, B runs first.
	r := commRT(t, 1)
	slow := r.DeclareTaskType("slow")
	slow.AddVersion("slow_smp", machine.KindSMP, perfmodel.Fixed{D: 50 * time.Millisecond}, nil)
	acc := r.DeclareTaskType("acc")
	var order []string
	acc.AddVersion("acc_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond},
		func(ctx *rt.ExecContext) { order = append(order, ctx.Task.Args.(string)) })

	gate := r.Register("gate", 100)
	o := r.Register("acc", 100)
	r.SpawnMain(func(m *rt.Master) {
		m.Submit(slow, []deps.Access{deps.Out(gate)}, perfmodel.Work{}, nil)
		m.Submit(acc, []deps.Access{deps.In(gate), deps.Commutative(o)}, perfmodel.Work{}, "A")
		m.Submit(acc, []deps.Access{deps.Commutative(o)}, perfmodel.Work{}, "B")
		m.Taskwait()
	})
	r.Run()
	if len(order) != 2 || order[0] != "B" || order[1] != "A" {
		t.Errorf("order = %v, want [B A] (commutative reordering)", order)
	}
}

func TestCommutativeOrderedAgainstSurroundingAccesses(t *testing.T) {
	// writer -> {3 commutative} -> reader: the reader must see all three.
	r := commRT(t, 3)
	w := r.DeclareTaskType("w")
	val := 0
	w.AddVersion("w_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond},
		func(*rt.ExecContext) { val = 100 })
	acc := r.DeclareTaskType("acc")
	acc.AddVersion("acc_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond},
		func(*rt.ExecContext) { val++ })
	rd := r.DeclareTaskType("rd")
	got := 0
	rd.AddVersion("rd_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond},
		func(*rt.ExecContext) { got = val })

	o := r.Register("o", 100)
	r.SpawnMain(func(m *rt.Master) {
		m.Submit(w, []deps.Access{deps.Out(o)}, perfmodel.Work{}, nil)
		for i := 0; i < 3; i++ {
			m.Submit(acc, []deps.Access{deps.Commutative(o)}, perfmodel.Work{}, nil)
		}
		m.Submit(rd, []deps.Access{deps.In(o)}, perfmodel.Work{}, nil)
		m.Taskwait()
	})
	r.Run()
	if got != 103 {
		t.Errorf("reader saw %d, want 103 (writer then all three increments)", got)
	}
}

func TestCommutativeMultiObjectNoDeadlock(t *testing.T) {
	// Tasks taking two commutative locks in different orders: the
	// all-or-nothing acquisition must not deadlock.
	r := commRT(t, 2)
	tt := r.DeclareTaskType("pair")
	ran := 0
	tt.AddVersion("pair_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond},
		func(*rt.ExecContext) { ran++ })
	a := r.Register("a", 100)
	b := r.Register("b", 100)
	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < 6; i++ {
			accs := []deps.Access{deps.Commutative(a), deps.Commutative(b)}
			if i%2 == 1 {
				accs[0], accs[1] = accs[1], accs[0]
			}
			m.Submit(tt, accs, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
	r.Run()
	if ran != 6 {
		t.Errorf("ran %d of 6 multi-lock tasks", ran)
	}
	if n := int(r.TasksSubmitted) - r.TasksCompleted(); n != 0 {
		t.Errorf("outstanding = %d (deadlock?)", n)
	}
}

func TestCommutativeCoherenceAcrossDevices(t *testing.T) {
	// Group members on different memory spaces: the directory must move
	// the object between them (serialization makes that safe).
	m := machine.MinoTauro(1, 1)
	r := rt.New(rt.Config{
		Machine:    m,
		SMPWorkers: 1,
		GPUWorkers: 1,
		Scheduler:  sched.NewBreadthFirst(),
	})
	smp := r.DeclareTaskType("acc_smp_t")
	smp.AddVersion("acc_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, nil)
	gpu := r.DeclareTaskType("acc_gpu_t")
	gpu.AddVersion("acc_gpu", machine.KindCUDA, perfmodel.Fixed{D: time.Millisecond}, nil)

	o := r.Register("o", 1_000_000)
	r.SpawnMain(func(ms *rt.Master) {
		ms.Submit(smp, []deps.Access{deps.Commutative(o)}, perfmodel.Work{}, nil)
		ms.Submit(gpu, []deps.Access{deps.Commutative(o)}, perfmodel.Work{}, nil)
		ms.Submit(smp, []deps.Access{deps.Commutative(o)}, perfmodel.Work{}, nil)
		ms.Taskwait()
	})
	r.Run()
	if n := len(r.Tracer().Tasks); n != 3 {
		t.Fatalf("ran %d tasks", n)
	}
	if problems := stats.Validate(r.Tracer()); len(problems) > 0 {
		t.Error(problems)
	}
}
