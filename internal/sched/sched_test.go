package sched_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/xfer"
)

func TestRegistry(t *testing.T) {
	names := sched.Names()
	want := map[string]bool{"bf": true, "dep": true, "affinity": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing schedulers: %v (have %v)", want, names)
	}
	s, err := sched.New("bf")
	if err != nil || s.Name() != "bf" {
		t.Errorf("New(bf) = %v, %v", s, err)
	}
	if _, err := sched.New("nope"); err == nil {
		t.Error("unknown scheduler should error")
	}
	if _, err := sched.New("versioning"); err == nil || strings.Contains(err.Error(), "unknown") {
		t.Errorf("New(versioning) = %v, want a not-built-here error", err)
	}
}

// buildChain submits `chains` independent chains of `depth` dependent
// tasks each and runs them under the given scheduler.
func runChains(s rt.Scheduler, smp int, chains, depth int) *rt.Runtime {
	r := rt.New(rt.Config{
		Machine:    machine.MinoTauro(smp, 0),
		SMPWorkers: smp,
		Scheduler:  s,
	})
	tt := r.DeclareTaskType("step")
	tt.AddVersion("step_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, nil)
	r.SpawnMain(func(m *rt.Master) {
		for c := 0; c < chains; c++ {
			obj := r.Register("chain", 100)
			for d := 0; d < depth; d++ {
				m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
			}
		}
		m.Taskwait()
	})
	r.Run()
	return r
}

func TestBreadthFirstRunsEverything(t *testing.T) {
	r := runChains(sched.NewBreadthFirst(), 4, 4, 5)
	if got := len(r.Tracer().Tasks); got != 20 {
		t.Errorf("executed %d tasks, want 20", got)
	}
	// 4 chains of 5ms on 4 workers: 5ms total.
	if r.Engine().Now().Duration() != 5*time.Millisecond {
		t.Errorf("elapsed %v, want 5ms", r.Engine().Now())
	}
}

func TestDepAwareKeepsChainsOnOneWorker(t *testing.T) {
	r := runChains(sched.NewDepAware(), 4, 4, 6)
	// Group records by chain: tasks of one chain share the dependence
	// object, so they execute in submission order per chain. Check that
	// after the first (central-queue) task, every chain stays put.
	workerOf := make(map[int64]int) // taskID -> worker
	for _, rec := range r.Tracer().Tasks {
		workerOf[rec.TaskID] = rec.Worker
	}
	// Task IDs are 1..24 in submission order: chain c owns IDs
	// c*6+1..c*6+6.
	for c := 0; c < 4; c++ {
		first := workerOf[int64(c*6+1)]
		for d := 1; d < 6; d++ {
			if w := workerOf[int64(c*6+d+1)]; w != first {
				t.Errorf("chain %d migrated from worker %d to %d at depth %d", c, first, w, d)
			}
		}
	}
}

func TestDepAwareStealsWhenIdle(t *testing.T) {
	// 1 chain, 2 workers: without stealing worker 1 would idle forever;
	// the chain itself cannot be parallelized, but a second independent
	// chain queued behind the first worker should migrate.
	s := sched.NewDepAware()
	r := rt.New(rt.Config{
		Machine:    machine.MinoTauro(2, 0),
		SMPWorkers: 2,
		Scheduler:  s,
	})
	tt := r.DeclareTaskType("step")
	tt.AddVersion("step_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, nil)
	r.SpawnMain(func(m *rt.Master) {
		a := r.Register("a", 100)
		b := r.Register("b", 100)
		// Seed: one task writing both -> both chains start on one worker.
		m.Submit(tt, []deps.Access{deps.Out(a), deps.Out(b)}, perfmodel.Work{}, nil)
		for d := 0; d < 5; d++ {
			m.Submit(tt, []deps.Access{deps.InOut(a)}, perfmodel.Work{}, nil)
			m.Submit(tt, []deps.Access{deps.InOut(b)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
	end := r.Run()
	// Perfect balance: 1ms seed + 5ms per chain in parallel = 6ms.
	if end.Duration() > 7*time.Millisecond {
		t.Errorf("stealing failed, elapsed %v", end)
	}
}

func TestAffinityPrefersDataLocality(t *testing.T) {
	// Two GPUs; object X written on GPU0 by task 1. A second task reading
	// X should be placed on GPU0, not GPU1.
	s := sched.NewAffinity()
	r := rt.New(rt.Config{
		Machine:    machine.MinoTauro(1, 2),
		GPUWorkers: 2,
		Scheduler:  s,
	})
	tt := r.DeclareTaskType("k")
	tt.AddVersion("k_gpu", machine.KindCUDA, perfmodel.Fixed{D: time.Millisecond}, nil)
	x := r.Register("x", 1_000_000)
	y := r.Register("y", 10)

	r.SpawnMain(func(m *rt.Master) {
		m.Submit(tt, []deps.Access{deps.InOut(x)}, perfmodel.Work{}, nil)
		m.TaskwaitNoflush()
		// Now x is dirty on one GPU. Submit a reader of x and an unrelated
		// task: the reader must land where x lives.
		m.Submit(tt, []deps.Access{deps.In(x), deps.Out(y)}, perfmodel.Work{}, nil)
		m.Taskwait()
	})
	r.Run()

	recs := r.Tracer().Tasks
	if len(recs) != 2 {
		t.Fatalf("tasks = %d", len(recs))
	}
	if recs[0].Worker != recs[1].Worker {
		t.Errorf("affinity sent reader to worker %d, producer ran on %d", recs[1].Worker, recs[0].Worker)
	}
	// And no device-to-device traffic should have occurred.
	if r.Fabric().TotalBytes[xfer.CatDevice] != 0 {
		t.Errorf("Device Tx = %d, want 0", r.Fabric().TotalBytes[xfer.CatDevice])
	}
}

func TestAffinityStealsUnderImbalance(t *testing.T) {
	// All data lives on GPU0 after a warm-up, so affinity piles every
	// task on GPU0's queue; GPU1 must steal to keep busy — raising
	// Device Tx, the paper's Cholesky observation.
	s := sched.NewAffinity()
	r := rt.New(rt.Config{
		Machine:    machine.MinoTauro(1, 2),
		GPUWorkers: 2,
		Scheduler:  s,
	})
	tt := r.DeclareTaskType("k")
	tt.AddVersion("k_gpu", machine.KindCUDA, perfmodel.Fixed{D: 10 * time.Millisecond}, nil)

	const n = 8
	objs := make([]int, 0)
	_ = objs
	r.SpawnMain(func(m *rt.Master) {
		seed := r.Register("seed", 1000)
		m.Submit(tt, []deps.Access{deps.InOut(seed)}, perfmodel.Work{}, nil)
		m.TaskwaitNoflush()
		for i := 0; i < n; i++ {
			obj := r.Register("t", 1000)
			// Each task reads seed (on GPU0) and writes its own object:
			// affinity scores GPU0 lower for all of them.
			m.Submit(tt, []deps.Access{deps.In(seed), deps.Out(obj)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
	end := r.Run()

	byWorker := make(map[int]int)
	for _, rec := range r.Tracer().Tasks {
		byWorker[rec.Worker]++
	}
	if len(byWorker) < 2 {
		t.Errorf("GPU1 never stole: distribution %v", byWorker)
	}
	// With stealing, n tasks split across 2 GPUs: ~(1+n/2)*10ms.
	if end.Duration() > 65*time.Millisecond {
		t.Errorf("elapsed %v, stealing ineffective", end)
	}
}

func TestBaselinesIgnoreNonMainVersions(t *testing.T) {
	// A task with main=GPU and an SMP alternative: bf/dep/affinity must
	// run only the GPU version (paper footnote 1).
	for _, name := range []string{"bf", "dep", "affinity"} {
		s, err := sched.New(name)
		if err != nil {
			t.Fatal(err)
		}
		r := rt.New(rt.Config{
			Machine:    machine.MinoTauro(2, 1),
			SMPWorkers: 2,
			GPUWorkers: 1,
			Scheduler:  s,
		})
		tt := r.DeclareTaskType("k")
		tt.AddVersion("k_gpu", machine.KindCUDA, perfmodel.Fixed{D: time.Millisecond}, nil)
		tt.AddVersion("k_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, nil)
		r.SpawnMain(func(m *rt.Master) {
			for i := 0; i < 6; i++ {
				obj := r.Register("x", 100)
				m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
			}
			m.Taskwait()
		})
		r.Run()
		for _, rec := range r.Tracer().Tasks {
			if rec.Version != "k_gpu" {
				t.Errorf("%s ran non-main version %s", name, rec.Version)
			}
		}
	}
}
