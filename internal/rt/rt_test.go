package rt_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/perfmodel"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/xfer"
)

func newRT(t *testing.T, smp, gpu int, prefetch bool) *rt.Runtime {
	t.Helper()
	return rt.New(rt.Config{
		Machine:    machine.MinoTauro(max(smp, 1), gpu),
		SMPWorkers: smp,
		GPUWorkers: gpu,
		Scheduler:  sched.NewBreadthFirst(),
		Prefetch:   prefetch,
	})
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestSingleSMPTaskRuns(t *testing.T) {
	r := newRT(t, 1, 0, false)
	tt := r.DeclareTaskType("work")
	tt.AddVersion("work_smp", machine.KindSMP, perfmodel.Fixed{D: 10 * time.Millisecond}, nil)
	obj := r.Register("x", 100)

	var done *rt.Task
	r.SpawnMain(func(m *rt.Master) {
		done = m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
		m.Taskwait()
	})
	end := r.Run()

	if done.State() != rt.StateFinished {
		t.Fatalf("task state = %v", done.State())
	}
	if end != 10_000_000 { // 10ms in ns
		t.Errorf("end = %v, want 10ms", end)
	}
	if done.ExecTime() != 10*time.Millisecond {
		t.Errorf("ExecTime = %v", done.ExecTime())
	}
	recs := r.Tracer().Tasks
	if len(recs) != 1 || recs[0].Version != "work_smp" || recs[0].Type != "work" {
		t.Errorf("trace records = %+v", recs)
	}
}

func TestDependencyChainSerializes(t *testing.T) {
	r := newRT(t, 4, 0, false)
	tt := r.DeclareTaskType("step")
	tt.AddVersion("step_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, nil)
	obj := r.Register("x", 100)

	const n = 5
	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < n; i++ {
			m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
	end := r.Run()

	// Chain of 5 x 1ms tasks: must serialize despite 4 workers.
	if end.Duration() < n*time.Millisecond {
		t.Errorf("end = %v, want >= %v (serialized)", end, n*time.Millisecond)
	}
	// No overlap: each record starts after the previous ends.
	recs := r.Tracer().Tasks
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].End {
			t.Errorf("task %d overlaps predecessor", i)
		}
	}
}

func TestIndependentTasksRunInParallel(t *testing.T) {
	r := newRT(t, 4, 0, false)
	tt := r.DeclareTaskType("step")
	tt.AddVersion("step_smp", machine.KindSMP, perfmodel.Fixed{D: 10 * time.Millisecond}, nil)

	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < 4; i++ {
			obj := r.Register("x", 100)
			m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
	end := r.Run()
	if end.Duration() != 10*time.Millisecond {
		t.Errorf("4 independent tasks on 4 workers took %v, want 10ms", end)
	}
}

func TestGPUTaskStagesInputsAndFlushesOnTaskwait(t *testing.T) {
	r := newRT(t, 1, 1, false)
	tt := r.DeclareTaskType("kernel")
	tt.AddVersion("kernel_gpu", machine.KindCUDA, perfmodel.Fixed{D: time.Millisecond}, nil)
	in := r.Register("in", 1000)
	out := r.Register("out", 2000)

	r.SpawnMain(func(m *rt.Master) {
		m.Submit(tt, []deps.Access{deps.In(in), deps.Out(out)}, perfmodel.Work{}, nil)
		m.Taskwait()
	})
	r.Run()

	fb := r.Fabric()
	if fb.TotalBytes[xfer.CatInput] != 1000 {
		t.Errorf("Input Tx = %d, want 1000 (only the input)", fb.TotalBytes[xfer.CatInput])
	}
	if fb.TotalBytes[xfer.CatOutput] != 2000 {
		t.Errorf("Output Tx = %d, want 2000 (taskwait flush)", fb.TotalBytes[xfer.CatOutput])
	}
	if !r.Directory().ValidAt(out, machine.HostSpace) {
		t.Error("output not home after taskwait")
	}
}

func TestTaskwaitNoflushSkipsOutputs(t *testing.T) {
	r := newRT(t, 1, 1, false)
	tt := r.DeclareTaskType("kernel")
	tt.AddVersion("kernel_gpu", machine.KindCUDA, perfmodel.Fixed{D: time.Millisecond}, nil)
	out := r.Register("out", 2000)

	r.SpawnMain(func(m *rt.Master) {
		m.Submit(tt, []deps.Access{deps.Out(out)}, perfmodel.Work{}, nil)
		m.TaskwaitNoflush()
	})
	r.Run()

	if r.Fabric().TotalBytes[xfer.CatOutput] != 0 {
		t.Errorf("Output Tx = %d, want 0 (noflush)", r.Fabric().TotalBytes[xfer.CatOutput])
	}
	if !r.Directory().Dirty(out) {
		t.Error("out should remain dirty on the device")
	}
}

func TestTaskwaitOnFlushesOnlyThatObject(t *testing.T) {
	r := newRT(t, 1, 1, false)
	tt := r.DeclareTaskType("kernel")
	tt.AddVersion("kernel_gpu", machine.KindCUDA, perfmodel.Fixed{D: time.Millisecond}, nil)
	a := r.Register("a", 1000)
	b := r.Register("b", 500)

	var sawA bool
	r.SpawnMain(func(m *rt.Master) {
		m.Submit(tt, []deps.Access{deps.Out(a)}, perfmodel.Work{}, nil)
		m.Submit(tt, []deps.Access{deps.Out(b)}, perfmodel.Work{}, nil)
		m.TaskwaitOn(a)
		sawA = r.Directory().ValidAt(a, machine.HostSpace) && !r.Directory().Dirty(a)
		m.Taskwait()
	})
	r.Run()

	if !sawA {
		t.Error("a not home right after TaskwaitOn(a)")
	}
}

func TestRealComputeExecutesFunction(t *testing.T) {
	r := rt.New(rt.Config{
		Machine:     machine.MinoTauro(1, 0),
		SMPWorkers:  1,
		Scheduler:   sched.NewBreadthFirst(),
		RealCompute: true,
	})
	tt := r.DeclareTaskType("sum")
	data := []int{1, 2, 3}
	got := 0
	tt.AddVersion("sum_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, func(ctx *rt.ExecContext) {
		for _, x := range ctx.Task.Args.([]int) {
			got += x
		}
	})
	obj := r.Register("x", 10)
	r.SpawnMain(func(m *rt.Master) {
		m.Submit(tt, []deps.Access{deps.In(obj)}, perfmodel.Work{}, data)
		m.Taskwait()
	})
	r.Run()
	if got != 6 {
		t.Errorf("real compute result = %d, want 6", got)
	}
}

func TestRealComputeDisabledSkipsFunction(t *testing.T) {
	r := newRT(t, 1, 0, false)
	tt := r.DeclareTaskType("sum")
	ran := false
	tt.AddVersion("sum_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, func(*rt.ExecContext) { ran = true })
	obj := r.Register("x", 10)
	r.SpawnMain(func(m *rt.Master) {
		m.Submit(tt, []deps.Access{deps.In(obj)}, perfmodel.Work{}, nil)
		m.Taskwait()
	})
	r.Run()
	if ran {
		t.Error("Fn must not run when RealCompute is off")
	}
}

func TestDataSetSizeCountsObjectsOnce(t *testing.T) {
	r := newRT(t, 1, 0, false)
	tt := r.DeclareTaskType("w")
	tt.AddVersion("w_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, nil)
	a := r.Register("a", 1000)
	b := r.Register("b", 500)

	var task *rt.Task
	r.SpawnMain(func(m *rt.Master) {
		// a appears twice (input and inout range): counted once.
		task = m.Submit(tt, []deps.Access{
			deps.InRange(a, 0, 10), deps.InOutRange(a, 10, 10), deps.In(b),
		}, perfmodel.Work{}, nil)
		m.Taskwait()
	})
	r.Run()
	if task.DataSetSize != 1500 {
		t.Errorf("DataSetSize = %d, want 1500", task.DataSetSize)
	}
}

// TestDataSetSizeLongListsAndLateObjects: the epoch-stamped dedup
// counts each object once per task across long, repetitive access lists,
// starts afresh for every submit, and covers objects registered after
// earlier submits.
func TestDataSetSizeLongListsAndLateObjects(t *testing.T) {
	r := newRT(t, 1, 0, false)
	tt := r.DeclareTaskType("w")
	tt.AddVersion("w_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, nil)
	objs := make([]*mem.Object, 300)
	for i := range objs {
		objs[i] = r.Register("o", int64(i+1))
	}
	var long, again, late *rt.Task
	r.SpawnMain(func(m *rt.Master) {
		// Every object read, then every other one read again.
		var accs []deps.Access
		for _, o := range objs {
			accs = append(accs, deps.In(o))
		}
		for i := 0; i < len(objs); i += 2 {
			accs = append(accs, deps.In(objs[i]))
		}
		long = m.Submit(tt, accs, perfmodel.Work{}, nil)
		again = m.Submit(tt, []deps.Access{deps.In(objs[0]), deps.In(objs[1]), deps.In(objs[0])}, perfmodel.Work{}, nil)
		extra := r.Register("late", 1000)
		late = m.Submit(tt, []deps.Access{deps.In(extra), deps.In(objs[2]), deps.In(extra)}, perfmodel.Work{}, nil)
		m.Taskwait()
	})
	r.Run()
	if want := int64(300 * 301 / 2); long.DataSetSize != want {
		t.Errorf("long list DataSetSize = %d, want %d", long.DataSetSize, want)
	}
	if again.DataSetSize != 3 {
		t.Errorf("repeat submit DataSetSize = %d, want 3", again.DataSetSize)
	}
	if late.DataSetSize != 1003 {
		t.Errorf("late-object DataSetSize = %d, want 1003", late.DataSetSize)
	}
}

// TestNoTraceKeepsCounts: an untraced runtime has no tracer but still
// counts completed tasks and per-version runs, equal to what a traced
// twin records.
func TestNoTraceKeepsCounts(t *testing.T) {
	run := func(noTrace bool) *rt.Runtime {
		r := rt.New(rt.Config{
			Machine:    machine.MinoTauro(2, 1),
			SMPWorkers: 2,
			GPUWorkers: 1,
			Scheduler:  sched.NewBreadthFirst(),
			Prefetch:   true,
			NoTrace:    noTrace,
		})
		a := r.DeclareTaskType("a")
		a.AddVersion("a_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, nil)
		a.AddVersion("a_gpu", machine.KindCUDA, perfmodel.Fixed{D: time.Millisecond}, nil)
		b := r.DeclareTaskType("b")
		b.AddVersion("b_smp", machine.KindSMP, perfmodel.Fixed{D: 2 * time.Millisecond}, nil)
		r.DeclareTaskType("never").AddVersion("never_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, nil)
		x := r.Register("x", 1<<20)
		r.SpawnMain(func(m *rt.Master) {
			for i := 0; i < 10; i++ {
				m.Submit(a, []deps.Access{deps.InOut(x)}, perfmodel.Work{}, nil)
				m.Submit(b, []deps.Access{deps.In(x)}, perfmodel.Work{}, nil)
			}
			m.Taskwait()
		})
		r.Run()
		return r
	}
	traced, untraced := run(false), run(true)
	if untraced.Tracer() != nil {
		t.Fatal("NoTrace runtime has a tracer")
	}
	if got, want := untraced.TasksCompleted(), len(traced.Tracer().Tasks); got != want || got != 20 {
		t.Errorf("TasksCompleted = %d, traced twin recorded %d, want 20", got, want)
	}
	if got, want := untraced.VersionCounts(), traced.Tracer().VersionCounts(); !reflect.DeepEqual(got, want) {
		t.Errorf("VersionCounts = %v, traced twin recorded %v", got, want)
	}
	if _, ok := untraced.VersionCounts()["never"]; ok {
		t.Error("a type that never ran appears in VersionCounts")
	}
}

func TestPrefetchOverlapsTransfersWithCompute(t *testing.T) {
	run := func(prefetch bool) time.Duration {
		r := newRT(t, 0, 1, prefetch)
		tt := r.DeclareTaskType("k")
		tt.AddVersion("k_gpu", machine.KindCUDA, perfmodel.Fixed{D: 10 * time.Millisecond}, nil)
		r.SpawnMain(func(m *rt.Master) {
			for i := 0; i < 8; i++ {
				obj := r.Register("t", 30_000_000) // 30MB: 5ms on PCIe
				m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
			}
			m.TaskwaitNoflush()
		})
		return r.Run().Duration()
	}
	serial := run(false)
	overlapped := run(true)
	if overlapped >= serial {
		t.Errorf("prefetch did not help: %v vs %v", overlapped, serial)
	}
	// Serial: 8 x (5ms + 10ms) = 120ms. Overlapped: first stage 5ms then
	// compute-bound: ~5 + 8*10 = 85ms.
	if overlapped > 90*time.Millisecond {
		t.Errorf("overlapped run too slow: %v", overlapped)
	}
}

func TestDeterministicWithNoise(t *testing.T) {
	run := func() (int64, string) {
		r := rt.New(rt.Config{
			Machine:    machine.MinoTauro(2, 1),
			SMPWorkers: 2,
			GPUWorkers: 1,
			Scheduler:  sched.NewBreadthFirst(),
			NoiseSigma: 0.05,
			Seed:       42,
			Prefetch:   true,
		})
		smpT := r.DeclareTaskType("s")
		smpT.AddVersion("s_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, nil)
		gpuT := r.DeclareTaskType("g")
		gpuT.AddVersion("g_gpu", machine.KindCUDA, perfmodel.Fixed{D: 500 * time.Microsecond}, nil)
		r.SpawnMain(func(m *rt.Master) {
			for i := 0; i < 20; i++ {
				obj := r.Register("x", 10_000)
				if i%2 == 0 {
					m.Submit(smpT, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
				} else {
					m.Submit(gpuT, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
				}
			}
			m.Taskwait()
		})
		end := r.Run()
		sig := ""
		for _, rec := range r.Tracer().Tasks {
			sig += rec.Version + ","
		}
		return int64(end), sig
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Errorf("non-deterministic: %d/%d, %q vs %q", e1, e2, s1, s2)
	}
}

func TestCreateOverheadAdvancesMaster(t *testing.T) {
	r := rt.New(rt.Config{
		Machine:        machine.MinoTauro(1, 0),
		SMPWorkers:     1,
		Scheduler:      sched.NewBreadthFirst(),
		CreateOverhead: time.Microsecond,
	})
	tt := r.DeclareTaskType("w")
	tt.AddVersion("w_smp", machine.KindSMP, perfmodel.Fixed{D: 0}, nil)
	var submitTimes []int64
	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < 3; i++ {
			obj := r.Register("x", 10)
			m.Submit(tt, []deps.Access{deps.In(obj)}, perfmodel.Work{}, nil)
			submitTimes = append(submitTimes, int64(m.Now()))
		}
		m.Taskwait()
	})
	r.Run()
	for i, ts := range submitTimes {
		want := int64(i+1) * 1000
		if ts != want {
			t.Errorf("submit %d at %dns, want %d", i, ts, want)
		}
	}
}

func TestGFlopsAccounting(t *testing.T) {
	r := newRT(t, 1, 0, false)
	tt := r.DeclareTaskType("w")
	tt.AddVersion("w_smp", machine.KindSMP, perfmodel.Throughput{GFlops: 10}, nil)
	obj := r.Register("x", 10)
	r.SpawnMain(func(m *rt.Master) {
		m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{Flops: 1e9}, nil)
		m.Taskwait()
	})
	r.Run()
	// 1 GFlop at 10 GFLOP/s = 0.1s; achieved rate = 10.
	if g := r.GFlops(); g < 9.9 || g > 10.1 {
		t.Errorf("GFlops = %v, want ~10", g)
	}
	if r.TotalFlops != 1e9 || r.TasksSubmitted != 1 {
		t.Errorf("accounting: flops=%v tasks=%d", r.TotalFlops, r.TasksSubmitted)
	}
}

func TestSubmitNoCompatibleWorkerPanics(t *testing.T) {
	r := newRT(t, 1, 0, false) // no GPUs
	tt := r.DeclareTaskType("k")
	tt.AddVersion("k_gpu", machine.KindCUDA, perfmodel.Fixed{D: time.Millisecond}, nil)
	obj := r.Register("x", 10)
	r.SpawnMain(func(m *rt.Master) {
		defer func() {
			if recover() == nil {
				t.Error("GPU-only task on CPU-only runtime did not panic")
			}
		}()
		m.Submit(tt, []deps.Access{deps.In(obj)}, perfmodel.Work{}, nil)
	})
	r.Run()
}

func TestDuplicateVersionPanics(t *testing.T) {
	r := newRT(t, 1, 0, false)
	tt := r.DeclareTaskType("w")
	tt.AddVersion("v", machine.KindSMP, perfmodel.Fixed{}, nil)
	defer func() {
		if recover() == nil {
			t.Error("duplicate version did not panic")
		}
	}()
	tt.AddVersion("v", machine.KindSMP, perfmodel.Fixed{}, nil)
}

func TestTooManyWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("13 SMP workers on a 12-core machine did not panic")
		}
	}()
	rt.New(rt.Config{
		Machine:    machine.MinoTauro(12, 0),
		SMPWorkers: 13,
		Scheduler:  sched.NewBreadthFirst(),
	})
}

func TestMainVersionIsFirst(t *testing.T) {
	r := newRT(t, 1, 1, false)
	tt := r.DeclareTaskType("w")
	v1 := tt.AddVersion("main", machine.KindCUDA, perfmodel.Fixed{}, nil)
	v2 := tt.AddVersion("alt", machine.KindSMP, perfmodel.Fixed{}, nil)
	if tt.Main() != v1 || v2.Type().Main() == v2 {
		t.Error("main version bookkeeping wrong")
	}
	if v1.Type() != tt {
		t.Error("version back-pointer wrong")
	}
	if got := tt.VersionsFor(machine.KindSMP); len(got) != 1 || got[0] != v2 {
		t.Errorf("VersionsFor = %v", got)
	}
	if !tt.HasVersionFor(machine.KindCUDA) || tt.HasVersionFor(machine.KindCell) {
		t.Error("HasVersionFor wrong")
	}
}

func TestWorkerAccessors(t *testing.T) {
	r := newRT(t, 2, 1, false)
	ws := r.Workers()
	if len(ws) != 3 {
		t.Fatalf("workers = %d", len(ws))
	}
	if ws[0].Kind() != machine.KindSMP || ws[2].Kind() != machine.KindCUDA {
		t.Error("worker order should be SMP then GPU")
	}
	if ws[0].Current() != nil {
		t.Error("fresh worker should be idle")
	}
	if ws[2].Space() == machine.HostSpace {
		t.Error("GPU worker should have device space")
	}
}

// Two runs of a diamond dependence (A -> B,C -> D) must respect ordering
// and D sees both branches' writes flushed.
func TestDiamondDependence(t *testing.T) {
	r := newRT(t, 2, 0, false)
	tt := r.DeclareTaskType("n")
	tt.AddVersion("n_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, nil)
	src := r.Register("src", 100)
	l := r.Register("l", 100)
	rr := r.Register("r", 100)
	dst := r.Register("dst", 100)

	var ta, tb, tc, td *rt.Task
	r.SpawnMain(func(m *rt.Master) {
		ta = m.Submit(tt, []deps.Access{deps.Out(src)}, perfmodel.Work{}, nil)
		tb = m.Submit(tt, []deps.Access{deps.In(src), deps.Out(l)}, perfmodel.Work{}, nil)
		tc = m.Submit(tt, []deps.Access{deps.In(src), deps.Out(rr)}, perfmodel.Work{}, nil)
		td = m.Submit(tt, []deps.Access{deps.In(l), deps.In(rr), deps.Out(dst)}, perfmodel.Work{}, nil)
		m.Taskwait()
	})
	end := r.Run()

	// A, then B||C in parallel (2 workers), then D: 3ms.
	if end.Duration() != 3*time.Millisecond {
		t.Errorf("diamond took %v, want 3ms", end)
	}
	for _, x := range []*rt.Task{ta, tb, tc, td} {
		if x.State() != rt.StateFinished {
			t.Errorf("%v not finished", x)
		}
	}
}

// TestSubmitCopiesAccesses: the master overwrites one access slice in
// place for every Submit. Each task must keep the accesses it was
// submitted with: its Accesses, its dependence edges, and the objects
// its GPU worker stages in all follow the list as it was at its Submit,
// not as a later Submit left the shared slice.
func TestSubmitCopiesAccesses(t *testing.T) {
	r := newRT(t, 0, 1, false)
	tt := r.DeclareTaskType("k")
	tt.AddVersion("k_gpu", machine.KindCUDA, perfmodel.Fixed{D: time.Millisecond}, nil)
	a, b := r.Register("a", 100), r.Register("b", 200)
	x, y := r.Register("x", 300), r.Register("y", 400)
	want := [][]deps.Access{
		{deps.Out(x), deps.In(a)},
		{deps.In(x), deps.Out(y)},
		{deps.In(y), deps.InOut(b)},
	}
	var tasks []*rt.Task
	r.SpawnMain(func(m *rt.Master) {
		accs := make([]deps.Access, 2)
		for _, w := range want {
			copy(accs, w)
			tasks = append(tasks, m.Submit(tt, accs, perfmodel.Work{}, nil))
		}
		m.TaskwaitNoflush()
	})
	r.Run()

	for i, task := range tasks {
		if !reflect.DeepEqual(task.Accesses, want[i]) {
			t.Errorf("task %d accesses = %v, want %v", i+1, task.Accesses, want[i])
		}
	}
	if got := [][]int64{tasks[0].PredIDs(), tasks[1].PredIDs(), tasks[2].PredIDs()}; !reflect.DeepEqual(got, [][]int64{nil, {1}, {2}}) {
		t.Errorf("pred IDs = %v, want [[] [1] [2]]", got)
	}
	var staged []string
	for _, rec := range r.Tracer().Transfers {
		if rec.To != machine.HostSpace {
			staged = append(staged, rec.Tag)
		}
	}
	if !reflect.DeepEqual(staged, []string{"a", "b"}) {
		t.Errorf("objects staged in = %v, want [a b] (x and y are produced on the GPU)", staged)
	}
}
