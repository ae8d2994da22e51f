package chaos_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/deps"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/sched/versioning"
	"repro/internal/verprof"
)

func TestParseClauses(t *testing.T) {
	p, err := chaos.Parse("gpu1:drop@40%;gpu0:throttle@60%x0.5@80%x0.25;core0:stragglex0.5;all:blackout@10s+500ms;gpu-1:drop@5s+recover@9s")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Dropouts) != 2 || len(p.Throttles) != 1 || len(p.Stragglers) != 1 || len(p.Blackouts) != 1 {
		t.Fatalf("clause counts wrong: %+v", p)
	}
	d := p.Dropouts[0]
	if d.Device != "gpu1" || !d.At.IsPct || d.At.Pct != 40 || d.Recover != nil {
		t.Errorf("dropout[0] = %+v", d)
	}
	d = p.Dropouts[1]
	if d.Device != "gpu-1" || d.At.Dur != 5*time.Second || d.Recover == nil || d.Recover.Dur != 9*time.Second {
		t.Errorf("dropout[1] = %+v", d)
	}
	th := p.Throttles[0]
	if len(th.Curve) != 2 || th.Curve[0].Factor != 0.5 || th.Curve[1].At.Pct != 80 || th.At.Pct != 60 {
		t.Errorf("throttle = %+v", th)
	}
	if s := p.Stragglers[0]; s.Device != "core0" || s.Factor != 0.5 {
		t.Errorf("straggler = %+v", s)
	}
	if b := p.Blackouts[0]; b.At.Dur != 10*time.Second || b.Dur != 500*time.Millisecond {
		t.Errorf("blackout = %+v", b)
	}
}

func TestParseEmpty(t *testing.T) {
	for _, s := range []string{"", "none", "  ", ";"} {
		p, err := chaos.Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
		}
		if !p.Empty() {
			t.Errorf("Parse(%q) not empty: %+v", s, p)
		}
		if p.NeedsHorizon() {
			t.Errorf("Parse(%q) needs horizon", s)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"gpu0",                    // no fault
		"tpu0:drop@40%",           // unknown device kind
		"gpu0:melt@40%",           // unknown fault
		"gpu0:drop@-5s",           // negative point
		"gpu0:drop@40",            // point is neither % nor duration
		"gpu0:drop@40%+later@60%", // bad recover keyword
		"gpu0:throttle@40%",       // throttle step without factor
		"gpu0:throttle@40%x0",     // zero factor
		"gpu0:stragglex-1",        // negative factor
		"gpu0:blackout@40%+1s",    // blackout must target all
		"all:blackout@40%",        // blackout without duration
		"all:blackout@40%+0s",     // zero blackout duration
		"gpu-:drop@40%",           // missing index
		"gpux:drop@40%",           // non-numeric index
	} {
		if _, err := chaos.Parse(s); err == nil {
			t.Errorf("Parse(%q): want error, got none", s)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	spec := "gpu1:drop@40%;gpu-0:drop@5s+recover@9s;gpu0:throttle@60%x0.5@80%x0.25;core0:stragglex0.5;all:blackout@10s+500ms"
	p, err := chaos.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := chaos.Parse(p.String())
	if err != nil {
		t.Fatalf("reparsing %q: %v", p.String(), err)
	}
	if p.String() != p2.String() {
		t.Errorf("round trip: %q != %q", p.String(), p2.String())
	}
}

func TestNeedsHorizon(t *testing.T) {
	for spec, want := range map[string]bool{
		"gpu0:drop@40%":             true,
		"gpu0:drop@5s":              false,
		"gpu0:drop@5s+recover@50%":  true,
		"gpu0:throttle@1sx0.5":      false,
		"gpu0:throttle@1sx0.5@9%x1": true,
		"gpu0:stragglex0.5":         false,
		"all:blackout@30%+1s":       true,
		"all:blackout@3s+1s":        false,
	} {
		p, err := chaos.Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := p.NeedsHorizon(); got != want {
			t.Errorf("NeedsHorizon(%q) = %v, want %v", spec, got, want)
		}
	}
}

func TestArmRequiresHorizonForPercent(t *testing.T) {
	r := newRT(1, 0, sched.NewBreadthFirst())
	p, err := chaos.Parse("core0:drop@40%")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Arm(r, 0); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("Arm without horizon: err = %v", err)
	}
}

func newRT(smp, gpu int, s rt.Scheduler) *rt.Runtime {
	cores := smp
	if cores < 1 {
		cores = 1
	}
	return rt.New(rt.Config{
		Machine:    machine.MinoTauro(cores, gpu),
		SMPWorkers: smp,
		GPUWorkers: gpu,
		Scheduler:  s,
		Prefetch:   true,
	})
}

// mustArm parses and arms a spec on a runtime with an optional horizon.
func mustArm(t *testing.T, r *rt.Runtime, spec string, horizon time.Duration) {
	t.Helper()
	p, err := chaos.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Arm(r, horizon); err != nil {
		t.Fatal(err)
	}
}

// auditExactlyOnce fails unless every submitted task appears exactly
// once in the trace (a dropped device's in-flight task must complete
// exactly once on a survivor, never zero or twice).
func auditExactlyOnce(t *testing.T, r *rt.Runtime) {
	t.Helper()
	seen := make(map[int64]int)
	for _, rec := range r.Tracer().Tasks {
		seen[rec.TaskID]++
	}
	if int64(len(seen)) != r.TasksSubmitted {
		t.Errorf("trace has %d distinct tasks, submitted %d", len(seen), r.TasksSubmitted)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("task %d completed %d times, want exactly 1", id, n)
		}
	}
}

// TestDropoutRequeuesInFlight drops a core mid-run: its in-flight task
// must fail over to the surviving worker and complete exactly once.
// (Non-versioning schedulers only run the main implementation, so
// failover stays within one device kind; cross-kind re-adaptation is
// the versioning scheduler's test below.)
func TestDropoutRequeuesInFlight(t *testing.T) {
	r := newRT(2, 0, sched.NewBreadthFirst())
	tt := r.DeclareTaskType("work")
	tt.AddVersion("work_smp", machine.KindSMP, perfmodel.Fixed{D: 10 * time.Millisecond}, nil)
	obj := r.Register("x", 1<<20)
	mustArm(t, r, "core1:drop@15ms", 0)

	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < 10; i++ {
			m.Submit(tt, []deps.Access{deps.In(obj)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
	r.Run()

	auditExactlyOnce(t, r)
	if r.TasksRequeued == 0 {
		t.Error("no task was re-queued by the dropout")
	}
	if r.FaultsInjected != 1 {
		t.Errorf("FaultsInjected = %d, want 1", r.FaultsInjected)
	}
	if r.ReadaptMax <= 0 {
		t.Errorf("ReadaptMax = %v, want > 0", r.ReadaptMax)
	}
	// After the drop the second core (worker ID 1) completes nothing.
	for _, rec := range r.Tracer().Tasks {
		if rec.Worker == 1 && rec.End.Duration() > 15*time.Millisecond {
			t.Errorf("task %d completed on dropped core at %v", rec.TaskID, rec.End)
		}
	}
}

// TestRecoverReadmits drops the only compatible device, so work must
// wait out the outage and finish after recovery.
func TestRecoverReadmits(t *testing.T) {
	r := newRT(0, 1, sched.NewBreadthFirst())
	tt := r.DeclareTaskType("gpuonly")
	tt.AddVersion("k_gpu", machine.KindCUDA, perfmodel.Fixed{D: 10 * time.Millisecond}, nil)
	obj := r.Register("x", 1<<10)
	mustArm(t, r, "gpu0:drop@5ms+recover@40ms", 0)

	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < 3; i++ {
			m.Submit(tt, []deps.Access{deps.In(obj)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
	end := r.Run()

	auditExactlyOnce(t, r)
	if end.Duration() < 40*time.Millisecond {
		t.Errorf("run ended at %v, before the 40ms recovery", end)
	}
	if r.FaultsInjected != 2 {
		t.Errorf("FaultsInjected = %d, want 2 (drop+recover)", r.FaultsInjected)
	}
}

// TestThrottleScalesRemainingWork: a 100ms task throttled to half
// speed at its 50ms midpoint needs 50 + 50/0.5 = 150ms total.
func TestThrottleScalesRemainingWork(t *testing.T) {
	r := newRT(1, 0, sched.NewBreadthFirst())
	tt := r.DeclareTaskType("long")
	tt.AddVersion("long_smp", machine.KindSMP, perfmodel.Fixed{D: 100 * time.Millisecond}, nil)
	mustArm(t, r, "core0:throttle@50msx0.5", 0)

	r.SpawnMain(func(m *rt.Master) {
		m.Submit(tt, nil, perfmodel.Work{}, nil)
		m.Taskwait()
	})
	end := r.Run()
	if end.Duration() != 150*time.Millisecond {
		t.Errorf("end = %v, want 150ms", end)
	}
}

// TestStragglerSlowsWholeRun: everything on a half-speed device takes
// twice as long.
func TestStragglerSlowsWholeRun(t *testing.T) {
	r := newRT(1, 0, sched.NewBreadthFirst())
	tt := r.DeclareTaskType("w")
	tt.AddVersion("w_smp", machine.KindSMP, perfmodel.Fixed{D: 100 * time.Millisecond}, nil)
	mustArm(t, r, "core0:stragglex0.5", 0)

	r.SpawnMain(func(m *rt.Master) {
		m.Submit(tt, nil, perfmodel.Work{}, nil)
		m.Taskwait()
	})
	if end := r.Run(); end.Duration() != 200*time.Millisecond {
		t.Errorf("end = %v, want 200ms", end)
	}
}

// TestBlackoutStallsEverything: a chain of 15ms tasks hit by a
// [20ms, 50ms) blackout. The second task (15-30ms) is killed at 20ms
// and re-runs at 50ms, so the chain finishes at 50+15+15 = 80ms.
func TestBlackoutStallsEverything(t *testing.T) {
	r := newRT(1, 0, sched.NewBreadthFirst())
	tt := r.DeclareTaskType("step")
	tt.AddVersion("step_smp", machine.KindSMP, perfmodel.Fixed{D: 15 * time.Millisecond}, nil)
	obj := r.Register("x", 100)
	mustArm(t, r, "all:blackout@20ms+30ms", 0)

	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < 3; i++ {
			m.Submit(tt, []deps.Access{deps.InOut(obj)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
	end := r.Run()
	auditExactlyOnce(t, r)
	if end.Duration() != 80*time.Millisecond {
		t.Errorf("end = %v, want 80ms", end)
	}
	if r.TasksRequeued != 1 {
		t.Errorf("TasksRequeued = %d, want 1", r.TasksRequeued)
	}
}

// TestVersioningReadaptsAfterDropout: with the versioning scheduler, a
// mid-run GPU dropout must re-route the failed task and every later
// task to surviving devices — and the run must still complete with an
// exactly-once trace.
func TestVersioningReadaptsAfterDropout(t *testing.T) {
	r := newRT(2, 1, versioning.New(versioning.Options{Store: verprof.NewStore(2)}))
	tt := r.DeclareTaskType("k")
	// The GPU version is the main implementation, so the post-learning
	// burst (no recorded means yet) lands on the GPU, keeping it busy
	// when the dropout fires.
	tt.AddVersion("k_gpu", machine.KindCUDA, perfmodel.Fixed{D: 5 * time.Millisecond}, nil)
	tt.AddVersion("k_smp", machine.KindSMP, perfmodel.Fixed{D: 20 * time.Millisecond}, nil)
	obj := r.Register("x", 1<<20)
	mustArm(t, r, "gpu0:drop@60ms", 0)

	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < 40; i++ {
			m.Submit(tt, []deps.Access{deps.In(obj)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
	r.Run()

	auditExactlyOnce(t, r)
	if r.TasksRequeued == 0 {
		t.Error("dropout at 60ms re-queued nothing (GPU should be busy)")
	}
	gpuID := 2 // workers are smp0, smp1, gpu0 in ID order
	for _, rec := range r.Tracer().Tasks {
		if rec.Worker == gpuID && rec.End.Duration() > 60*time.Millisecond {
			t.Errorf("task %d completed on dropped GPU at %v", rec.TaskID, rec.End)
		}
	}
}

// TestVersioningParksGPUOnlyTasks: tasks whose only version is CUDA
// must park while every GPU is down and complete after recovery.
func TestVersioningParksGPUOnlyTasks(t *testing.T) {
	r := newRT(1, 1, versioning.New(versioning.Options{Store: verprof.NewStore(1)}))
	tt := r.DeclareTaskType("gpuonly")
	tt.AddVersion("k_gpu", machine.KindCUDA, perfmodel.Fixed{D: 5 * time.Millisecond}, nil)
	obj := r.Register("x", 1<<10)
	mustArm(t, r, "gpu0:drop@2ms+recover@30ms", 0)

	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < 4; i++ {
			m.Submit(tt, []deps.Access{deps.In(obj)}, perfmodel.Work{}, nil)
		}
		m.Taskwait()
	})
	end := r.Run()
	auditExactlyOnce(t, r)
	if end.Duration() < 30*time.Millisecond {
		t.Errorf("end = %v, want after the 30ms recovery", end)
	}
}

// TestDeterminism: two identical faulted runs produce identical
// virtual end times, fault counts and traces.
func TestDeterminism(t *testing.T) {
	run := func() (time.Duration, int64, int64, int) {
		r := newRT(2, 1, versioning.New(versioning.Options{Store: verprof.NewStore(2)}))
		tt := r.DeclareTaskType("k")
		tt.AddVersion("k_gpu", machine.KindCUDA, perfmodel.Fixed{D: 5 * time.Millisecond}, nil)
		tt.AddVersion("k_smp", machine.KindSMP, perfmodel.Fixed{D: 20 * time.Millisecond}, nil)
		obj := r.Register("x", 1<<20)
		mustArm(t, r, "gpu0:drop@30ms+recover@90ms;core0:throttle@50msx0.5", 0)
		r.SpawnMain(func(m *rt.Master) {
			for i := 0; i < 30; i++ {
				m.Submit(tt, []deps.Access{deps.In(obj)}, perfmodel.Work{}, nil)
			}
			m.Taskwait()
		})
		end := r.Run()
		return end.Duration(), r.TasksRequeued, r.FaultsInjected, len(r.Tracer().Tasks)
	}
	e1, q1, f1, n1 := run()
	e2, q2, f2, n2 := run()
	if e1 != e2 || q1 != q2 || f1 != f2 || n1 != n2 {
		t.Errorf("runs differ: (%v,%d,%d,%d) vs (%v,%d,%d,%d)", e1, q1, f1, n1, e2, q2, f2, n2)
	}
}

// TestInertClauseOnAbsentDevice: targeting a device the machine does
// not have is inert, so chaos axes can cross grids with varying GPU
// counts.
func TestInertClauseOnAbsentDevice(t *testing.T) {
	r := newRT(1, 1, sched.NewBreadthFirst())
	tt := r.DeclareTaskType("w")
	tt.AddVersion("w_smp", machine.KindSMP, perfmodel.Fixed{D: 10 * time.Millisecond}, nil)
	mustArm(t, r, "gpu7:drop@5ms", 0)

	r.SpawnMain(func(m *rt.Master) {
		m.Submit(tt, nil, perfmodel.Work{}, nil)
		m.Taskwait()
	})
	r.Run()
	if r.FaultsInjected != 0 {
		t.Errorf("FaultsInjected = %d, want 0 (inert clause)", r.FaultsInjected)
	}
}

// TestNeedsHorizonOn: a plan needs the baseline horizon on a runtime
// only when one of its percent points acts there, or when an inert
// dropout mixes percent and absolute points (Arm orders those on
// resolved times). Every plan that needs none must arm with horizon 0.
func TestNeedsHorizonOn(t *testing.T) {
	for _, c := range []struct {
		spec       string
		gpu1, gpu2 bool // want, on 2 SMP + 1 GPU and 2 SMP + 2 GPUs
	}{
		{"", false, false},
		{"gpu1:drop@40%+recover@70%", false, true},
		{"gpu0:drop@40%", true, true},
		{"gpu1:drop@5s+recover@9s", false, false},
		{"gpu1:drop@40%+recover@9s", true, true},
		{"gpu1:drop@5s+recover@70%", true, true},
		{"gpu1:throttle@50%x0.5", false, true},
		{"gpu1:throttle@1sx0.5@9%x1", false, true},
		{"gpu0:throttle@1sx0.5", false, false},
		{"core1:drop@40%", true, true},
		{"core2:drop@40%", false, false},
		{"gpu1:stragglex0.5", false, false},
		{"all:blackout@30%+1s", true, true},
		{"all:blackout@3s+1s", false, false},
		{"gpu1:drop@40%;gpu0:throttle@2sx0.5", false, true},
		{"gpu1:drop@40%;core0:drop@20%+recover@60%", true, true},
	} {
		p, err := chaos.Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		for gpus, want := range map[int]bool{1: c.gpu1, 2: c.gpu2} {
			r := newRT(2, gpus, sched.NewBreadthFirst())
			if got := p.NeedsHorizonOn(r); got != want {
				t.Errorf("NeedsHorizonOn(%q) on %d GPU(s) = %v, want %v", c.spec, gpus, got, want)
			}
			if !want {
				if err := p.Arm(r, 0); err != nil {
					t.Errorf("Arm(%q) on %d GPU(s) without horizon: %v", c.spec, gpus, err)
				}
			}
		}
	}
}

// TestArmRejectsRecoverBeforeDrop: a dropout must recover after it
// drops, whether or not its device exists; pure-percent dropouts are
// ordered by percentage, so the check holds without a horizon.
func TestArmRejectsRecoverBeforeDrop(t *testing.T) {
	for _, c := range []struct {
		spec    string
		horizon time.Duration
	}{
		{"gpu0:drop@70%+recover@40%", 10 * time.Second},
		{"gpu5:drop@70%+recover@40%", 0},
		{"gpu5:drop@40%+recover@40%", 0},
		{"gpu0:drop@9s+recover@5s", 0},
		{"gpu5:drop@50%+recover@1s", 10 * time.Second},
	} {
		p, err := chaos.Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		err = p.Arm(newRT(1, 1, sched.NewBreadthFirst()), c.horizon)
		if err == nil || !strings.Contains(err.Error(), "not after drop") {
			t.Errorf("Arm(%q, %v): err = %v, want a recover-order error", c.spec, c.horizon, err)
		}
	}
}
