package rt_test

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

func TestNestedTaskSubmission(t *testing.T) {
	r := rt.New(rt.Config{
		Machine:     machine.MinoTauro(2, 0),
		SMPWorkers:  2,
		Scheduler:   sched.NewBreadthFirst(),
		RealCompute: true,
	})
	leaf := r.DeclareTaskType("leaf")
	var leafRuns int
	leaf.AddVersion("leaf_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond},
		func(*rt.ExecContext) { leafRuns++ })

	parent := r.DeclareTaskType("parent")
	parent.AddVersion("parent_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond},
		func(ctx *rt.ExecContext) {
			// The running task spawns three children on fresh objects.
			for i := 0; i < 3; i++ {
				obj := ctx.Worker.Device().Name // distinct names not required
				_ = obj
				child := r.Register("child", 64)
				ctx.Submit(leaf, []deps.Access{deps.InOut(child)}, perfmodel.Work{}, nil)
			}
		})

	root := r.Register("root", 64)
	r.SpawnMain(func(m *rt.Master) {
		m.Submit(parent, []deps.Access{deps.InOut(root)}, perfmodel.Work{}, nil)
		// Taskwait must cover the nested children as well.
		m.Taskwait()
		if leafRuns != 3 {
			panic("taskwait returned before nested children finished")
		}
	})
	r.Run()

	if leafRuns != 3 {
		t.Fatalf("leaf ran %d times, want 3", leafRuns)
	}
	if got := len(r.Tracer().Tasks); got != 4 {
		t.Errorf("trace has %d tasks, want 4 (parent + 3 children)", got)
	}
}

func TestNestedTasksRespectDependences(t *testing.T) {
	r := rt.New(rt.Config{
		Machine:     machine.MinoTauro(4, 0),
		SMPWorkers:  4,
		Scheduler:   sched.NewBreadthFirst(),
		RealCompute: true,
	})
	shared := r.Register("shared", 64)
	var order []int

	step := r.DeclareTaskType("step")
	step.AddVersion("step_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond},
		func(ctx *rt.ExecContext) { order = append(order, ctx.Task.Args.(int)) })

	spawner := r.DeclareTaskType("spawner")
	spawner.AddVersion("spawner_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond},
		func(ctx *rt.ExecContext) {
			// Children chain on the shared object: they must serialize.
			for i := 0; i < 4; i++ {
				ctx.Submit(step, []deps.Access{deps.InOut(shared)}, perfmodel.Work{}, i)
			}
		})

	r.SpawnMain(func(m *rt.Master) {
		m.Submit(spawner, nil, perfmodel.Work{}, nil)
		m.Taskwait()
	})
	r.Run()

	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("nested chain ran out of order: %v", order)
		}
	}
}

func TestMultiDeviceVersionRunsAnywhere(t *testing.T) {
	r := rt.New(rt.Config{
		Machine:    machine.MinoTauro(1, 1),
		SMPWorkers: 1,
		GPUWorkers: 1,
		Scheduler:  sched.NewBreadthFirst(),
	})
	// One implementation declared for both smp and cuda (a multi-entry
	// device clause).
	tt := r.DeclareTaskType("anywhere")
	v := tt.AddMultiDeviceVersion("anywhere_any",
		[]machine.DeviceKind{machine.KindSMP, machine.KindCUDA},
		perfmodel.Fixed{D: 10 * time.Millisecond}, nil)
	if !v.RunsOn(machine.KindSMP) || !v.RunsOn(machine.KindCUDA) || v.RunsOn(machine.KindCell) {
		t.Fatal("RunsOn wrong")
	}
	if v.Device != machine.KindSMP {
		t.Errorf("primary device = %v, want first listed", v.Device)
	}

	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < 4; i++ {
			obj := r.Register("x", 100)
			m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
	end := r.Run()

	// Both workers can run it: 4 tasks on 2 workers = 2 rounds.
	if end.Duration() > 21*time.Millisecond {
		t.Errorf("elapsed %v: multi-device version did not use both workers", end)
	}
	kinds := make(map[machine.DeviceKind]bool)
	for _, rec := range r.Tracer().Tasks {
		kinds[rec.DeviceKind] = true
	}
	if len(kinds) != 2 {
		t.Errorf("device kinds used: %v, want both", kinds)
	}
}

func TestMultiDeviceVersionValidation(t *testing.T) {
	r := rt.New(rt.Config{
		Machine: machine.MinoTauro(1, 0), SMPWorkers: 1, Scheduler: sched.NewBreadthFirst(),
	})
	tt := r.DeclareTaskType("x")
	for _, c := range []struct {
		name    string
		devices []machine.DeviceKind
	}{
		{"none", nil},
		{"dup", []machine.DeviceKind{machine.KindSMP, machine.KindSMP}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			tt.AddMultiDeviceVersion(c.name, c.devices, perfmodel.Fixed{}, nil)
		}()
	}
}

func TestVersioningWithMultiDeviceVersion(t *testing.T) {
	// A single implementation targeting both kinds under the versioning
	// scheduler: the profile has one version but two possible executors.
	r := rt.New(rt.Config{
		Machine:    machine.MinoTauro(1, 1),
		SMPWorkers: 1,
		GPUWorkers: 1,
		Scheduler:  versioning.New(versioning.Options{}),
	})
	tt := r.DeclareTaskType("anywhere")
	tt.AddMultiDeviceVersion("anywhere_any",
		[]machine.DeviceKind{machine.KindCUDA, machine.KindSMP},
		perfmodel.Fixed{D: 5 * time.Millisecond}, nil)
	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < 10; i++ {
			obj := r.Register("x", 100)
			m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
	r.Run()
	if got := len(r.Tracer().Tasks); got != 10 {
		t.Fatalf("ran %d tasks", got)
	}
}
