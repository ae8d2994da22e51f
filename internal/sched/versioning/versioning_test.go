package versioning_test

import (
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/rt"
	"repro/internal/sched/versioning"
	"repro/internal/verprof"
)

// hybridRuntime builds a runtime with one task type having a fast GPU
// version and a slow SMP version.
func hybridRuntime(smp, gpu int, opts versioning.Options) (*rt.Runtime, *versioning.Versioning, *rt.TaskType) {
	v := versioning.New(opts)
	r := rt.New(rt.Config{
		Machine:    machine.MinoTauro(max(smp, 1), gpu),
		SMPWorkers: smp,
		GPUWorkers: gpu,
		Scheduler:  v,
	})
	tt := r.DeclareTaskType("kernel")
	tt.AddVersion("kernel_gpu", machine.KindCUDA, perfmodel.Fixed{D: 2 * time.Millisecond}, nil)
	tt.AddVersion("kernel_smp", machine.KindSMP, perfmodel.Fixed{D: 10 * time.Millisecond}, nil)
	return r, v, tt
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func submitN(r *rt.Runtime, tt *rt.TaskType, n int, size int64) {
	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < n; i++ {
			obj := r.Register("x", size)
			m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
}

func TestLearningPhaseRunsEveryVersionLambdaTimes(t *testing.T) {
	r, v, tt := hybridRuntime(2, 1, versioning.Options{Store: verprof.NewStore(3)})
	// A dependence chain: tasks become ready one at a time, so the
	// scheduler passes through learning into the reliable phase.
	r.SpawnMain(func(m *rt.Master) {
		obj := r.Register("x", 1000)
		for i := 0; i < 40; i++ {
			m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
	r.Run()

	counts := r.Tracer().VersionCounts()["kernel"]
	if counts["kernel_smp"] < 3 {
		t.Errorf("SMP version ran %d times, lambda=3 requires >=3", counts["kernel_smp"])
	}
	if counts["kernel_gpu"] < 3 {
		t.Errorf("GPU version ran %d times", counts["kernel_gpu"])
	}
	if counts["kernel_smp"]+counts["kernel_gpu"] != 40 {
		t.Errorf("total = %d, want 40", counts["kernel_smp"]+counts["kernel_gpu"])
	}
	if v.LearningAssignments < 6 {
		t.Errorf("learning assignments = %d, want >= 2*lambda", v.LearningAssignments)
	}
	if v.ReliableAssignments == 0 {
		t.Error("never reached the reliable phase")
	}
}

func TestReliablePhasePrefersFastVersion(t *testing.T) {
	// With a single worker of each kind and GPU 5x faster, the GPU should
	// take the bulk of the work after learning.
	r, _, tt := hybridRuntime(1, 1, versioning.Options{Store: verprof.NewStore(2)})
	submitN(r, tt, 100, 1000)
	r.Run()

	counts := r.Tracer().VersionCounts()["kernel"]
	if counts["kernel_gpu"] <= counts["kernel_smp"] {
		t.Errorf("fast GPU version should dominate: %v", counts)
	}
	// SMP is not starved either: while the GPU is busy, an idle SMP core
	// is the earliest executor for some tasks.
	if counts["kernel_smp"] == 0 {
		t.Error("SMP workers never cooperated")
	}
}

// TestEarliestExecutorFigure5 reproduces the Figure 5 decision: the GPU
// is the fastest executor but has a long queue; an idle SMP worker can
// finish the task earlier and must receive it.
func TestEarliestExecutorFigure5(t *testing.T) {
	store := verprof.NewStore(1)
	// Pre-seed profiles so the group is reliable from the start:
	// GPU version 2ms, SMP version 5ms.
	g := store.GroupFor("kernel", 1000, []string{"kernel_gpu", "kernel_smp"})
	g.Seed("kernel_gpu", 2*time.Millisecond, 10)
	g.Seed("kernel_smp", 5*time.Millisecond, 10)

	v := versioning.New(versioning.Options{Store: store})
	r := rt.New(rt.Config{
		Machine:    machine.MinoTauro(1, 1),
		SMPWorkers: 1,
		GPUWorkers: 1,
		Scheduler:  v,
	})
	tt := r.DeclareTaskType("kernel")
	tt.AddVersion("kernel_gpu", machine.KindCUDA, perfmodel.Fixed{D: 2 * time.Millisecond}, nil)
	tt.AddVersion("kernel_smp", machine.KindSMP, perfmodel.Fixed{D: 5 * time.Millisecond}, nil)

	// Submit 4 independent tasks at once. Earliest-executor reasoning
	// with seeded means: t1 -> GPU (finish 2ms), t2 -> GPU (4ms) vs SMP
	// (5ms) -> GPU, t3 -> GPU busy 4ms + 2 = 6ms vs SMP 5ms -> SMP,
	// t4 -> GPU (6ms) vs SMP (10ms) -> GPU.
	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < 4; i++ {
			obj := r.Register("x", 1000)
			m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
	r.Run()

	var gpuCount, smpCount int
	for _, rec := range r.Tracer().Tasks {
		switch rec.Version {
		case "kernel_gpu":
			gpuCount++
		case "kernel_smp":
			smpCount++
		}
	}
	if gpuCount != 3 || smpCount != 1 {
		t.Errorf("distribution gpu=%d smp=%d, want 3/1 (Figure 5 decision)", gpuCount, smpCount)
	}
	if v.ReliableAssignments != 4 || v.LearningAssignments != 0 {
		t.Errorf("phases: learning=%d reliable=%d", v.LearningAssignments, v.ReliableAssignments)
	}
}

func TestNewDataSetSizeReopensLearning(t *testing.T) {
	r, v, tt := hybridRuntime(1, 1, versioning.Options{Store: verprof.NewStore(2)})
	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < 20; i++ {
			obj := r.Register("x", 1000)
			m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
		learningBefore := v.LearningAssignments
		// New size: a fresh group must learn again.
		for i := 0; i < 10; i++ {
			obj := r.Register("y", 2000)
			m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
		if v.LearningAssignments <= learningBefore {
			panic("no learning assignments for the new size group")
		}
	})
	r.Run()

	snap := v.Store().Snapshot()
	if len(snap) != 1 || len(snap[0].Groups) != 2 {
		t.Fatalf("want 1 set with 2 size groups, got %+v", snap)
	}
}

func TestProfileMeansConvergeToModel(t *testing.T) {
	r, v, tt := hybridRuntime(1, 1, versioning.Options{Store: verprof.NewStore(2)})
	submitN(r, tt, 60, 1000)
	r.Run()

	g := v.Store().GroupFor("kernel", 1000, nil)
	gpuMean, ok := g.Mean("kernel_gpu")
	if !ok || gpuMean != 2*time.Millisecond {
		t.Errorf("GPU mean = %v, want exactly 2ms (no noise)", gpuMean)
	}
	smpMean, ok := g.Mean("kernel_smp")
	if !ok || smpMean != 10*time.Millisecond {
		t.Errorf("SMP mean = %v, want 10ms", smpMean)
	}
}

func TestSizeToleranceExtensionMergesGroups(t *testing.T) {
	store := verprof.NewStore(2)
	store.SizeTolerance = 0.10
	r, v, tt := hybridRuntime(1, 1, versioning.Options{Store: store})
	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < 10; i++ {
			// Sizes 1000 and 1050 within 10%: one group.
			size := int64(1000)
			if i%2 == 1 {
				size = 1050
			}
			obj := r.Register("x", size)
			m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
	r.Run()
	snap := v.Store().Snapshot()
	if len(snap[0].Groups) != 1 {
		t.Errorf("tolerance should merge sizes into one group, got %d groups", len(snap[0].Groups))
	}
}

func TestSMPOnlyTaskTypeWorks(t *testing.T) {
	v := versioning.New(versioning.Options{Store: verprof.NewStore(2)})
	r := rt.New(rt.Config{
		Machine:    machine.MinoTauro(2, 1),
		SMPWorkers: 2,
		GPUWorkers: 1,
		Scheduler:  v,
	})
	tt := r.DeclareTaskType("hostonly")
	tt.AddVersion("hostonly_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, nil)
	submitN(r, tt, 10, 100)
	r.Run()
	if got := len(r.Tracer().Tasks); got != 10 {
		t.Errorf("ran %d tasks, want 10", got)
	}
}

func TestGPUVersionUnusedWithoutGPUWorkers(t *testing.T) {
	// Hybrid task on a CPU-only runtime: learning must skip versions with
	// no compatible worker instead of stalling.
	v := versioning.New(versioning.Options{Store: verprof.NewStore(2)})
	r := rt.New(rt.Config{
		Machine:    machine.MinoTauro(2, 0),
		SMPWorkers: 2,
		Scheduler:  v,
	})
	tt := r.DeclareTaskType("kernel")
	tt.AddVersion("kernel_gpu", machine.KindCUDA, perfmodel.Fixed{D: time.Millisecond}, nil)
	tt.AddVersion("kernel_smp", machine.KindSMP, perfmodel.Fixed{D: 2 * time.Millisecond}, nil)
	submitN(r, tt, 8, 100)
	r.Run()
	for _, rec := range r.Tracer().Tasks {
		if rec.Version != "kernel_smp" {
			t.Errorf("impossible version ran: %s", rec.Version)
		}
	}
}

// TestBusyTimeBookkeepingDrains checks that every busy-time charge a
// decision adds is released exactly once: by the task's completion, or,
// under faults, by the re-decision of a drained or re-queued task.
func TestBusyTimeBookkeepingDrains(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		r, v, tt := hybridRuntime(2, 1, versioning.Options{Store: verprof.NewStore(2)})
		submitN(r, tt, 30, 1000)
		r.Run()
		assertDrained(t, r, v)
	})
	t.Run("gpu-drop-recover", func(t *testing.T) {
		// Prefetching gives every worker a current and a queued task, and
		// waves of submissions make later decisions charge non-zero
		// estimates (reliable phase) that the fault must release.
		v := versioning.New(versioning.Options{Store: verprof.NewStore(2)})
		r := rt.New(rt.Config{
			Machine:    machine.MinoTauro(2, 1),
			SMPWorkers: 2,
			GPUWorkers: 1,
			Scheduler:  v,
			Prefetch:   true,
		})
		tt := r.DeclareTaskType("kernel")
		tt.AddVersion("kernel_gpu", machine.KindCUDA, perfmodel.Fixed{D: 2 * time.Millisecond}, nil)
		tt.AddVersion("kernel_smp", machine.KindSMP, perfmodel.Fixed{D: 10 * time.Millisecond}, nil)
		r.SpawnMain(func(m *rt.Master) {
			for wave := 0; wave < 12; wave++ {
				for i := 0; i < 6; i++ {
					obj := r.Register("x", 1000)
					m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
				}
				m.Taskwait()
			}
		})
		gpu := len(r.Workers()) - 1 // workers are SMP first, then GPU
		r.Engine().At(r.Engine().Now().Add(41*time.Millisecond), func() { r.DropWorker(gpu) })
		r.Engine().At(r.Engine().Now().Add(75*time.Millisecond), func() { r.RecoverWorker(gpu) })
		r.Run()
		assertDrained(t, r, v)
		if r.TasksRequeued == 0 {
			t.Error("the GPU drop re-queued no task: the fault missed the run")
		}
		if v.ReliableAssignments == 0 {
			t.Error("no reliable-phase decision: every charge was zero")
		}
	})
}

func assertDrained(t *testing.T, r *rt.Runtime, v *versioning.Versioning) {
	t.Helper()
	for _, w := range r.Workers() {
		if b := v.BusyTime(w); b != 0 {
			t.Errorf("%v BusyTime = %v after drain, want 0", w, b)
		}
		if q := v.QueueLen(w); q != 0 {
			t.Errorf("%v queue = %d after drain", w, q)
		}
	}
}

func TestTwoGPUsShareLoad(t *testing.T) {
	r, _, tt := hybridRuntime(1, 2, versioning.Options{Store: verprof.NewStore(1)})
	submitN(r, tt, 60, 1000)
	r.Run()
	perWorker := make(map[int]int)
	for _, rec := range r.Tracer().Tasks {
		if rec.DeviceKind == machine.KindCUDA {
			perWorker[rec.Worker]++
		}
	}
	if len(perWorker) != 2 {
		t.Fatalf("GPU load distribution: %v", perWorker)
	}
	for w, n := range perWorker {
		if n < 10 {
			t.Errorf("GPU worker %d ran only %d tasks: %v", w, n, perWorker)
		}
	}
}

// The adaptation property: if version performance changes mid-run (here:
// via EWMA and a model the scheduler perceives through realized times),
// the scheduler keeps recording. We emulate drift by having two task
// types and verifying continued Record calls update means in the
// reliable phase too.
func TestRecordingNeverStops(t *testing.T) {
	r, v, tt := hybridRuntime(1, 1, versioning.Options{Store: verprof.NewStore(1)})
	submitN(r, tt, 50, 1000)
	r.Run()
	g := v.Store().GroupFor("kernel", 1000, nil)
	total := g.Count("kernel_gpu") + g.Count("kernel_smp")
	if total != 50 {
		t.Errorf("recorded %d executions, want 50 (recording must continue after learning)", total)
	}
}
