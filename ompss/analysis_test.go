package ompss_test

import (
	"strings"
	"testing"
	"time"

	"repro/ompss"
)

// analysisRun executes a small two-version workload and returns the
// runtime for postprocessing.
func analysisRun(t *testing.T) *ompss.Runtime {
	t.Helper()
	return analysisRunConfig(t, ompss.Config{Scheduler: "versioning", SMPWorkers: 2, GPUs: 1})
}

// analysisRunConfig is analysisRun under a caller-chosen configuration.
func analysisRunConfig(t *testing.T, cfg ompss.Config) *ompss.Runtime {
	t.Helper()
	r, err := ompss.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tt := r.DeclareTaskType("k")
	tt.AddVersion("k_gpu", ompss.CUDA, ompss.Fixed{D: time.Millisecond}, nil)
	tt.AddVersion("k_smp", ompss.SMP, ompss.Fixed{D: 4 * time.Millisecond}, nil)
	obj := r.Register("chain", 1<<20)
	r.Main(func(m *ompss.Master) {
		for i := 0; i < 20; i++ {
			m.Submit(tt, []ompss.Access{ompss.InOut(obj)}, ompss.Work{}, nil)
		}
		m.Taskwait()
	})
	r.Execute()
	return r
}

func TestFacadeEnergyReport(t *testing.T) {
	r := analysisRun(t)
	rep := r.EnergyReport(nil)
	if rep.TotalJoules() <= 0 {
		t.Error("no energy accounted")
	}
	if rep.Makespan != r.Now().Duration() {
		t.Errorf("makespan %v != run end %v", rep.Makespan, r.Now())
	}
	custom := &ompss.EnergyModel{BaseWatts: 1000}
	if got := r.EnergyReport(custom); got.BaseJoules <= rep.BaseJoules {
		t.Error("custom model ignored")
	}
}

func TestFacadeParaverExport(t *testing.T) {
	r := analysisRun(t)
	var prv, pcf strings.Builder
	if err := r.WriteParaver(&prv); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteParaverPCF(&pcf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(prv.String(), "#Paraver") {
		t.Error("missing .prv header")
	}
	if !strings.Contains(pcf.String(), "k_gpu") || !strings.Contains(pcf.String(), "k_smp") {
		t.Error("pcf does not name the versions")
	}
}

func TestFacadeCriticalPathOfSerialChain(t *testing.T) {
	r := analysisRun(t)
	cp := r.CriticalPath()
	if len(cp.TaskIDs) != 20 {
		t.Errorf("serial chain critical path has %d tasks, want 20", len(cp.TaskIDs))
	}
	if ratio := cp.Ratio(); ratio < 0.5 || ratio > 1.0 {
		t.Errorf("serial chain ratio = %v, want near 1", ratio)
	}
}

func TestFacadeTimelineAndSummary(t *testing.T) {
	r := analysisRun(t)
	tl := r.Timeline(40)
	if !strings.Contains(tl, "legend:") {
		t.Errorf("timeline missing legend:\n%s", tl)
	}
	sum := r.Summarize()
	if sum.Tasks != 20 {
		t.Errorf("summary tasks = %d", sum.Tasks)
	}
	if len(sum.Workers) == 0 {
		t.Error("summary has no workers")
	}
}

func TestFacadeValidateTrace(t *testing.T) {
	r := analysisRun(t)
	if problems := r.ValidateTrace(); len(problems) > 0 {
		t.Error(problems)
	}
}

func TestFacadeClusterPresets(t *testing.T) {
	m := ompss.Cluster(2, 1, 1, 2)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	mg := ompss.ClusterGPU(2, 1, 1, 2, 1)
	if err := mg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(mg.Devices) != len(m.Devices)+1 {
		t.Errorf("ClusterGPU devices = %d, want %d", len(mg.Devices), len(m.Devices)+1)
	}
	r, err := ompss.NewRuntime(ompss.Config{Machine: mg, Scheduler: "bf", SMPWorkers: 4, GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	tt := r.DeclareTaskType("w")
	tt.AddVersion("w_smp", ompss.SMP, ompss.Fixed{D: time.Millisecond}, nil)
	o := r.Register("o", 1000)
	r.Main(func(m *ompss.Master) {
		m.Submit(tt, []ompss.Access{ompss.InOut(o)}, ompss.Work{}, nil)
		m.Taskwait()
	})
	res := r.Execute()
	if res.Tasks != 1 {
		t.Errorf("tasks = %d", res.Tasks)
	}
}

func TestFacadeConfidenceCVPlumbed(t *testing.T) {
	r, err := ompss.NewRuntime(ompss.Config{
		Scheduler:    "versioning",
		SMPWorkers:   2,
		NoiseSigma:   0.5,
		Seed:         3,
		ConfidenceCV: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ProfileStore().ConfidenceCV; got != 0.05 {
		t.Errorf("store ConfidenceCV = %v, want 0.05", got)
	}
	// Under 50% noise with a tight CV bound, a group must not be
	// reliable right at lambda: run a few tasks and check the store.
	tt := r.DeclareTaskType("noisy")
	tt.AddVersion("noisy_smp", ompss.SMP, ompss.Fixed{D: time.Millisecond}, nil)
	o := r.Register("o", 64)
	r.Main(func(m *ompss.Master) {
		for i := 0; i < 4; i++ { // lambda(3) + 1
			m.Submit(tt, []ompss.Access{ompss.InOut(o)}, ompss.Work{}, nil)
		}
		m.Taskwait()
	})
	r.Execute()
	snap := r.ProfileStore().Snapshot()
	if len(snap) != 1 || snap[0].Groups[0].Versions[0].Count != 4 {
		t.Fatalf("unexpected profile snapshot %+v", snap)
	}
	if cv := snap[0].Groups[0].Versions[0].CV(); cv <= 0.05 {
		t.Skipf("noise produced unusually tight samples (cv=%v); nothing to assert", cv)
	}
	// The group should still be in learning (it would be reliable at
	// count>=3 without the gate).
	g := r.ProfileStore().GroupFor("noisy", 64, nil)
	if g.Reliable() {
		t.Error("noisy group reliable at 4 samples despite ConfidenceCV=0.05")
	}
}

func TestFacadeCommutativeClause(t *testing.T) {
	r, err := ompss.NewRuntime(ompss.Config{Scheduler: "bf", SMPWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tt := r.DeclareTaskType("acc")
	tt.AddVersion("acc_smp", ompss.SMP, ompss.Fixed{D: time.Millisecond}, nil)
	o := r.Register("o", 100)
	r.Main(func(m *ompss.Master) {
		for i := 0; i < 4; i++ {
			m.Submit(tt, []ompss.Access{ompss.Commutative(o)}, ompss.Work{}, nil)
		}
		m.Taskwait()
	})
	res := r.Execute()
	if res.Tasks != 4 {
		t.Errorf("tasks = %d", res.Tasks)
	}
	// Mutual exclusion: serialized despite 2 workers.
	if res.Elapsed < 4*time.Millisecond {
		t.Errorf("commutative group overlapped: %v", res.Elapsed)
	}
}

// TestUntracedAnalysesFailLoud: on a runtime built with NoTrace, every
// trace analysis fails with a message naming the opt-out instead of
// dereferencing the missing tracer, while the Result stays complete.
func TestUntracedAnalysesFailLoud(t *testing.T) {
	r := analysisRunConfig(t, ompss.Config{Scheduler: "versioning", SMPWorkers: 2, GPUs: 1, NoTrace: true})
	if r.Tracer() != nil {
		t.Fatal("NoTrace runtime has a tracer")
	}
	if res := r.Result(); res.Tasks != 20 || res.VersionCounts["k"]["k_gpu"]+res.VersionCounts["k"]["k_smp"] != 20 {
		t.Errorf("untraced result lost its counts: %+v", res)
	}
	const want = "Config.NoTrace"
	panics := []struct {
		name string
		fn   func()
	}{
		{"EnergyReport", func() { r.EnergyReport(nil) }},
		{"CriticalPath", func() { r.CriticalPath() }},
		{"Summarize", func() { r.Summarize() }},
		{"Timeline", func() { r.Timeline(40) }},
	}
	for _, c := range panics {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				p := recover()
				if msg, ok := p.(string); !ok || !strings.Contains(msg, c.name) || !strings.Contains(msg, want) {
					t.Errorf("panic %v, want a message naming %s and %s", p, c.name, want)
				}
			}()
			c.fn()
		})
	}
	errs := []struct {
		name string
		fn   func() error
	}{
		{"WriteParaver", func() error { return r.WriteParaver(&strings.Builder{}) }},
		{"WriteParaverPCF", func() error { return r.WriteParaverPCF(&strings.Builder{}) }},
	}
	for _, c := range errs {
		t.Run(c.name, func(t *testing.T) {
			if err := c.fn(); err == nil || !strings.Contains(err.Error(), c.name) || !strings.Contains(err.Error(), want) {
				t.Errorf("error %v, want one naming %s and %s", err, c.name, want)
			}
		})
	}
	t.Run("ValidateTrace", func(t *testing.T) {
		v := r.ValidateTrace()
		if len(v) != 1 || !strings.Contains(v[0], "ValidateTrace") || !strings.Contains(v[0], want) {
			t.Errorf("violations %q, want one naming ValidateTrace and %s", v, want)
		}
	})
}
