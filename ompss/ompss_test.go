package ompss_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/ompss"
)

// buildChain declares a 2-version task type and a serial chain of n tasks.
func buildChain(r *ompss.Runtime, n int) {
	work := r.DeclareTaskType("kernel")
	work.AddVersion("kernel_gpu", ompss.CUDA, ompss.Throughput{GFlops: 300, Overhead: 20 * time.Microsecond}, nil)
	work.AddVersion("kernel_smp", ompss.SMP, ompss.Throughput{GFlops: 5}, nil)
	obj := r.Register("chain", 8<<20)
	r.Main(func(m *ompss.Master) {
		for i := 0; i < n; i++ {
			m.Submit(work, []ompss.Access{ompss.InOut(obj)}, ompss.Work{Flops: 2e9}, nil)
		}
		m.Taskwait()
	})
}

func TestDefaults(t *testing.T) {
	r, err := ompss.NewRuntime(ompss.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Default scheduler is versioning; default machine is MinoTauro with
	// 1 SMP worker and 0 GPUs.
	if r.ProfileStore() == nil {
		t.Error("default scheduler should be versioning (profile store present)")
	}
	if got := len(r.Workers()); got != 1 {
		t.Errorf("default workers = %d, want 1", got)
	}
}

func TestUnknownSchedulerRejected(t *testing.T) {
	if _, err := ompss.NewRuntime(ompss.Config{Scheduler: "wat"}); err == nil {
		t.Error("unknown scheduler should error")
	}
}

// TestBadNoiseSigmaRejected: a negative or NaN jitter sigma is a
// configuration error naming the value, not a panic from the noise model.
func TestBadNoiseSigmaRejected(t *testing.T) {
	for _, sigma := range []float64{-1, math.NaN()} {
		_, err := ompss.NewRuntime(ompss.Config{NoiseSigma: sigma})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(sigma)) {
			t.Errorf("NoiseSigma %v: err = %v, want an error naming the value", sigma, err)
		}
	}
}

// TestMasterPanicIsRecoverable submits a CUDA-only task on a GPU-less
// runtime: the submit panics on the master coroutine, and Execute's
// caller must be able to recover that panic instead of losing the
// process.
func TestMasterPanicIsRecoverable(t *testing.T) {
	r, err := ompss.NewRuntime(ompss.Config{SMPWorkers: 1, GPUs: 0, Scheduler: "bf"})
	if err != nil {
		t.Fatal(err)
	}
	k := r.DeclareTaskType("k")
	k.AddVersion("k_gpu", ompss.CUDA, ompss.Fixed{D: time.Millisecond}, nil)
	r.Main(func(m *ompss.Master) {
		m.Submit(k, nil, ompss.Work{}, nil)
		m.Taskwait()
	})
	got := func() (v any) {
		defer func() { v = recover() }()
		r.Execute()
		return nil
	}()
	if msg, _ := got.(string); !strings.Contains(msg, `task "k" has no version runnable`) {
		t.Errorf("recovered %v, want the no-runnable-version panic", got)
	}
}

func TestExecuteAndResult(t *testing.T) {
	r, err := ompss.NewRuntime(ompss.Config{SMPWorkers: 2, GPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	buildChain(r, 20)
	res := r.Execute()

	if res.Tasks != 20 {
		t.Errorf("Tasks = %d", res.Tasks)
	}
	if res.Elapsed <= 0 || res.GFlops <= 0 {
		t.Errorf("Elapsed = %v, GFlops = %v", res.Elapsed, res.GFlops)
	}
	if res.Scheduler != "versioning" || res.SMPWorkers != 2 || res.GPUs != 1 {
		t.Errorf("config echo wrong: %+v", res)
	}
	total := 0
	for _, n := range res.VersionCounts["kernel"] {
		total += n
	}
	if total != 20 {
		t.Errorf("version counts sum to %d", total)
	}
	if s := res.String(); !strings.Contains(s, "versioning") || !strings.Contains(s, "GFLOP/s") {
		t.Errorf("String() = %q", s)
	}
	if res.TotalTxBytes() != res.InputTxBytes+res.OutputTxBytes+res.DeviceTxBytes {
		t.Error("TotalTxBytes inconsistent")
	}
}

func TestVersionShare(t *testing.T) {
	res := ompss.Result{VersionCounts: map[string]map[string]int{
		"k": {"a": 3, "b": 1},
	}}
	if got := res.VersionShare("k", "a"); got != 0.75 {
		t.Errorf("VersionShare = %v", got)
	}
	if got := res.VersionShare("nope", "a"); got != 0 {
		t.Errorf("missing type share = %v", got)
	}
}

func TestProfileTableAndHintsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	hintsPath := filepath.Join(dir, "h.xml")

	cold, err := ompss.NewRuntime(ompss.Config{SMPWorkers: 2, GPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	buildChain(cold, 30)
	coldRes := cold.Execute()
	if !strings.Contains(cold.ProfileTable(), "kernel_gpu") {
		t.Errorf("ProfileTable missing data:\n%s", cold.ProfileTable())
	}
	if err := cold.SaveHints(hintsPath); err != nil {
		t.Fatal(err)
	}

	warm, err := ompss.NewRuntime(ompss.Config{SMPWorkers: 2, GPUs: 1, HintsFile: hintsPath})
	if err != nil {
		t.Fatal(err)
	}
	buildChain(warm, 30)
	warmRes := warm.Execute()

	if warmRes.Elapsed >= coldRes.Elapsed {
		t.Errorf("hints-warmed run (%v) should beat cold run (%v)", warmRes.Elapsed, coldRes.Elapsed)
	}
	// The warm run skips the learning phase: the slow SMP version never
	// runs (on a serial chain the GPU is always the earliest executor).
	if warmRes.VersionCounts["kernel"]["kernel_smp"] != 0 {
		t.Errorf("warm run still ran the slow version: %v", warmRes.VersionCounts)
	}
}

func TestSaveHintsRequiresVersioning(t *testing.T) {
	r, err := ompss.NewRuntime(ompss.Config{Scheduler: "bf", SMPWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SaveHints(filepath.Join(t.TempDir(), "x.xml")); err == nil {
		t.Error("SaveHints under bf should error")
	}
	if r.ProfileStore() != nil || r.ProfileTable() != "" {
		t.Error("non-versioning runtime should expose no profiles")
	}
}

func TestBadHintsFileRejected(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.xml")
	if err := writeFile(bad, "{json?}"); err != nil {
		t.Fatal(err)
	}
	if _, err := ompss.NewRuntime(ompss.Config{HintsFile: bad}); err == nil {
		t.Error("corrupt hints file should fail runtime construction")
	}
	// A missing hints file is not an error (first run writes it later).
	if _, err := ompss.NewRuntime(ompss.Config{HintsFile: filepath.Join(dir, "missing.xml")}); err != nil {
		t.Errorf("missing hints file should be tolerated: %v", err)
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(ompss.EnvSchedule, "affinity")
	t.Setenv(ompss.EnvSMPWorkers, "6")
	t.Setenv(ompss.EnvGPUs, "2")
	t.Setenv(ompss.EnvLambda, "5")
	t.Setenv(ompss.EnvHints, "/tmp/h.xml")
	t.Setenv(ompss.EnvNoPrefetch, "1")
	t.Setenv(ompss.EnvSeed, "42")
	t.Setenv(ompss.EnvNoise, "0.05")

	cfg, err := ompss.FromEnv(ompss.Config{SMPWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheduler != "affinity" || cfg.SMPWorkers != 6 || cfg.GPUs != 2 ||
		cfg.Lambda != 5 || cfg.HintsFile != "/tmp/h.xml" || !cfg.NoPrefetch ||
		cfg.Seed != 42 || cfg.NoiseSigma != 0.05 {
		t.Errorf("FromEnv = %+v", cfg)
	}
}

func TestFromEnvDefaultsPreserved(t *testing.T) {
	t.Setenv(ompss.EnvSchedule, "")
	t.Setenv(ompss.EnvSMPWorkers, "")
	cfg, err := ompss.FromEnv(ompss.Config{Scheduler: "dep", SMPWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheduler != "dep" || cfg.SMPWorkers != 3 {
		t.Errorf("defaults lost: %+v", cfg)
	}
}

func TestFromEnvMalformed(t *testing.T) {
	t.Setenv(ompss.EnvSMPWorkers, "banana")
	if _, err := ompss.FromEnv(ompss.Config{}); err == nil {
		t.Error("malformed int env should error")
	}
	t.Setenv(ompss.EnvSMPWorkers, "")
	t.Setenv(ompss.EnvSeed, "zzz")
	if _, err := ompss.FromEnv(ompss.Config{}); err == nil {
		t.Error("malformed seed should error")
	}
	t.Setenv(ompss.EnvSeed, "")
	t.Setenv(ompss.EnvNoise, "much")
	if _, err := ompss.FromEnv(ompss.Config{}); err == nil {
		t.Error("malformed noise should error")
	}
}

func TestAllSchedulersRunSameWorkload(t *testing.T) {
	for _, s := range []string{"versioning", "bf", "dep", "affinity"} {
		r, err := ompss.NewRuntime(ompss.Config{Scheduler: s, SMPWorkers: 2, GPUs: 2})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		buildChain(r, 15)
		res := r.Execute()
		if res.Tasks != 15 {
			t.Errorf("%s ran %d tasks", s, res.Tasks)
		}
	}
}

func TestLocalityAwareConfig(t *testing.T) {
	r, err := ompss.NewRuntime(ompss.Config{SMPWorkers: 2, GPUs: 2, LocalityAware: true})
	if err != nil {
		t.Fatal(err)
	}
	buildChain(r, 20)
	res := r.Execute()
	if res.Tasks != 20 {
		t.Errorf("locality-aware run executed %d tasks", res.Tasks)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
