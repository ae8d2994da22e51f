package exp

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/ompss"
)

// fakeRun returns a deterministic synthetic result: makespan derived
// from the replica index, GFLOP/s and transfer bytes from the spec. It
// lets grid/pool/aggregation/output tests run without simulating.
func fakeRun(spec RunSpec) (RunResult, error) {
	rep := (spec.Seed - 1) / replicaSeedStride // replica index under BaseSeed 1
	return RunResult{
		Spec: spec,
		Result: ompss.Result{
			Scheduler:    spec.Scheduler,
			SMPWorkers:   spec.SMPWorkers,
			GPUs:         spec.GPUs,
			Elapsed:      time.Duration(rep+1) * 100 * time.Millisecond,
			GFlops:       float64(100 * spec.GPUs),
			Tasks:        42,
			InputTxBytes: 1000,
		},
	}, nil
}

// runCampaign executes a pool-mode campaign over g: store nil runs
// uncached, run nil simulates for real.
func runCampaign(g Grid, store CellStore, parallel int, run func(RunSpec) (RunResult, error)) (*SweepResult, error) {
	res, _, err := (&Campaign{Grid: g, Store: store, Parallel: parallel, run: run}).Execute()
	return res, err
}

func TestGridExpansionCardinality(t *testing.T) {
	cases := []struct {
		name      string
		grid      Grid
		wantCells int
		wantRuns  int
	}{
		{
			name: "full-axes",
			grid: Grid{
				Apps:       []string{"matmul-hyb", "cholesky-potrf-hyb"},
				Schedulers: []string{"bf", "dep", "affinity", "versioning"},
				SMPWorkers: []int{2, 4},
				GPUs:       []int{1, 2},
				Noise:      []float64{0.05},
				Replicas:   3,
			},
			wantCells: 32,
			wantRuns:  96,
		},
		{
			name: "single-cell",
			grid: Grid{
				Apps:       []string{"matmul-hyb"},
				Schedulers: []string{"dep"},
				SMPWorkers: []int{1},
				GPUs:       []int{1},
				Noise:      []float64{0},
				Replicas:   1,
			},
			wantCells: 1,
			wantRuns:  1,
		},
		{
			name: "noise-axis",
			grid: Grid{
				Apps:       []string{"stencil"},
				Schedulers: []string{"bf", "versioning"},
				SMPWorkers: []int{2},
				GPUs:       []int{1},
				Noise:      []float64{0, 0.02, 0.1},
				Replicas:   5,
			},
			wantCells: 6,
			wantRuns:  30,
		},
		{
			name:      "defaults",
			grid:      Grid{}, // replicas default to 1
			wantCells: 32,     // 2 apps x 4 scheds x 2 smp x 2 gpus x 1 noise
			wantRuns:  32,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.grid.NumCells(); got != c.wantCells {
				t.Errorf("NumCells = %d, want %d", got, c.wantCells)
			}
			if got := c.grid.NumRuns(); got != c.wantRuns {
				t.Errorf("NumRuns = %d, want %d", got, c.wantRuns)
			}
			specs := c.grid.Runs()
			if len(specs) != c.wantRuns {
				t.Fatalf("len(Runs()) = %d, want %d", len(specs), c.wantRuns)
			}
			// Every spec must be unique and replicas of one cell adjacent.
			seen := make(map[string]bool)
			for _, s := range specs {
				k := s.String()
				if seen[k] {
					t.Errorf("duplicate spec %v", s)
				}
				seen[k] = true
			}
		})
	}
}

func TestGridExpansionDeterministicOrder(t *testing.T) {
	g := Grid{Replicas: 2}
	a, b := g.Runs(), g.Runs()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("expansion order changed at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGridValidate(t *testing.T) {
	bad := Grid{Apps: []string{"no-such-app"}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "no-such-app") {
		t.Errorf("Validate(unknown app) = %v", err)
	}
	badSched := Grid{Schedulers: []string{"no-such-sched"}}
	if err := badSched.Validate(); err == nil || !strings.Contains(err.Error(), "no-such-sched") {
		t.Errorf("Validate(unknown scheduler) = %v", err)
	}
	badSize := Grid{Size: "huge"}
	if err := badSize.Validate(); err == nil || !strings.Contains(err.Error(), "huge") {
		t.Errorf("Validate(unknown size) = %v", err)
	}
	badSMP := Grid{SMPWorkers: []int{0, 2}}
	if err := badSMP.Validate(); err == nil || !strings.Contains(err.Error(), "positive") {
		t.Errorf("Validate(non-positive smp) = %v", err)
	}
	badGPU := Grid{GPUs: []int{-1}}
	if err := badGPU.Validate(); err == nil {
		t.Error("Validate(negative gpus) passed")
	}
	if err := (Grid{}).Validate(); err != nil {
		t.Errorf("Validate(defaults) = %v", err)
	}
}

func TestSweepWorkerPoolBounded(t *testing.T) {
	for _, parallel := range []int{1, 3} {
		parallel := parallel
		t.Run(fmt.Sprint(parallel), func(t *testing.T) {
			var cur, peak int64
			counting := func(spec RunSpec) (RunResult, error) {
				n := atomic.AddInt64(&cur, 1)
				for {
					p := atomic.LoadInt64(&peak)
					if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond) // hold the slot so overlap is observable
				atomic.AddInt64(&cur, -1)
				return fakeRun(spec)
			}
			g := Grid{
				Apps:       []string{"matmul-hyb"},
				Schedulers: []string{"bf", "dep"},
				SMPWorkers: []int{1, 2},
				GPUs:       []int{1},
				Noise:      []float64{0},
				Replicas:   5,
			} // 20 runs
			res, err := runCampaign(g, nil, parallel, counting)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Runs) != 20 {
				t.Fatalf("ran %d, want 20", len(res.Runs))
			}
			got := atomic.LoadInt64(&peak)
			if got > int64(parallel) {
				t.Errorf("peak concurrency %d exceeds -parallel %d", got, parallel)
			}
			if parallel > 1 && got < 2 {
				t.Errorf("peak concurrency %d: pool never overlapped despite -parallel %d", got, parallel)
			}
		})
	}
}

func TestSweepAbortsOnError(t *testing.T) {
	boom := fmt.Errorf("boom")
	var ran int32
	failing := func(spec RunSpec) (RunResult, error) {
		if atomic.AddInt32(&ran, 1) == 3 {
			return RunResult{}, boom
		}
		return fakeRun(spec)
	}
	g := Grid{
		Apps:       []string{"matmul-hyb"},
		Schedulers: []string{"bf"},
		SMPWorkers: []int{1},
		GPUs:       []int{1},
		Noise:      []float64{0},
		Replicas:   50,
	}
	if _, err := runCampaign(g, nil, 1, failing); err == nil {
		t.Fatal("sweep did not surface the run error")
	}
	if n := atomic.LoadInt32(&ran); n > 4 {
		t.Errorf("sweep kept running after the error: %d runs", n)
	}
}

func TestAggregationPercentiles(t *testing.T) {
	// 4 replicas with fake makespans 0.1, 0.2, 0.3, 0.4 s: hand-computed
	// mean 0.25, median 0.25, p10 0.13, p90 0.37, std sqrt(0.05/3).
	g := Grid{
		Apps:       []string{"matmul-hyb"},
		Schedulers: []string{"bf"},
		SMPWorkers: []int{2},
		GPUs:       []int{2},
		Noise:      []float64{0},
		Replicas:   4,
	}
	res, err := runCampaign(g, nil, 2, fakeRun)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(res.Cells))
	}
	c := res.Cells[0]
	if c.Replicas != 4 || c.Tasks != 42 {
		t.Errorf("cell meta = %+v", c)
	}
	m := c.MakespanSec
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("mean", m.Mean, 0.25)
	check("median", m.Median, 0.25)
	check("min", m.Min, 0.1)
	check("max", m.Max, 0.4)
	check("p10", m.P10, 0.13)
	check("p90", m.P90, 0.37)
	check("std", m.Std, math.Sqrt(0.05/3))
	check("ci95lo", m.CI95Low, 0.25-1.96*math.Sqrt(0.05/3)/2)
	check("gflops", c.GFlops.Mean, 200)
	check("tx", c.TxBytes.Mean, 1000)
}

func TestCSVGolden(t *testing.T) {
	g := Grid{
		Apps:       []string{"matmul-hyb", "stencil"},
		Schedulers: []string{"dep"},
		SMPWorkers: []int{4},
		GPUs:       []int{2},
		Noise:      []float64{0.05},
		Replicas:   1,
	}
	res, err := runCampaign(g, nil, 3, fakeRun)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"app,size,scheduler,machine,smp,gpus,lambda,size_tolerance,ewma_alpha,locality,chaos,noise,replicas,tasks,makespan_mean_s,makespan_std_s,makespan_min_s,makespan_p10_s,makespan_median_s,makespan_p90_s,makespan_max_s,makespan_ci95_lo_s,makespan_ci95_hi_s,gflops_mean,tx_mean_bytes,requeued_mean,readapt_max_s",
		"matmul-hyb,tiny,dep,node,4,2,0,0,0,false,,0.05,1,42,0.1,0,0.1,0.1,0.1,0.1,0.1,0.1,0.1,200,1000,0,0",
		"stencil,tiny,dep,node,4,2,0,0,0,false,,0.05,1,42,0.1,0,0.1,0.1,0.1,0.1,0.1,0.1,0.1,200,1000,0,0",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("CSV mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestJSONGolden(t *testing.T) {
	g := Grid{
		Apps:       []string{"stencil"},
		Schedulers: []string{"bf"},
		SMPWorkers: []int{2},
		GPUs:       []int{1},
		Noise:      []float64{0},
		Replicas:   1,
	}
	res, err := runCampaign(g, nil, 1, fakeRun)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	want := `{
  "grid": {
    "apps": [
      "stencil"
    ],
    "schedulers": [
      "bf"
    ],
    "smp": [
      2
    ],
    "gpus": [
      1
    ],
    "noise": [
      0
    ],
    "size": "tiny",
    "replicas": 1,
    "base_seed": 1
  },
  "cells": [
    {
      "app": "stencil",
      "size": "tiny",
      "scheduler": "bf",
      "machine": "node",
      "smp": 2,
      "gpus": 1,
      "lambda": 0,
      "size_tolerance": 0,
      "ewma_alpha": 0,
      "locality_aware": false,
      "noise": 0,
      "replicas": 1,
      "tasks": 42,
      "makespan_s": {
        "n": 1,
        "mean": 0.1,
        "std": 0,
        "min": 0.1,
        "p10": 0.1,
        "p25": 0.1,
        "median": 0.1,
        "p75": 0.1,
        "p90": 0.1,
        "max": 0.1,
        "ci95_low": 0.1,
        "ci95_high": 0.1
      },
      "gflops": {
        "n": 1,
        "mean": 100,
        "std": 0,
        "min": 100,
        "p10": 100,
        "p25": 100,
        "median": 100,
        "p75": 100,
        "p90": 100,
        "max": 100,
        "ci95_low": 100,
        "ci95_high": 100
      },
      "tx_bytes": {
        "n": 1,
        "mean": 1000,
        "std": 0,
        "min": 1000,
        "p10": 1000,
        "p25": 1000,
        "median": 1000,
        "p75": 1000,
        "p90": 1000,
        "max": 1000,
        "ci95_low": 1000,
        "ci95_high": 1000
      },
      "requeued": {
        "n": 1,
        "mean": 0,
        "std": 0,
        "min": 0,
        "p10": 0,
        "p25": 0,
        "median": 0,
        "p75": 0,
        "p90": 0,
        "max": 0,
        "ci95_low": 0,
        "ci95_high": 0
      },
      "readapt_s": {
        "n": 1,
        "mean": 0,
        "std": 0,
        "min": 0,
        "p10": 0,
        "p25": 0,
        "median": 0,
        "p75": 0,
        "p90": 0,
        "max": 0,
        "ci95_low": 0,
        "ci95_high": 0
      }
    }
  ]
}
`
	if got := buf.String(); got != want {
		t.Errorf("JSON mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestParseSize(t *testing.T) {
	for _, ok := range []string{"tiny", "quick", "full"} {
		if got, err := ParseSize(ok); err != nil || string(got) != ok {
			t.Errorf("ParseSize(%q) = %v, %v", ok, got, err)
		}
	}
	// The empty string must be rejected, not silently defaulted: the
	// default is the CLI flag's (and fillDefaults') job, and a silent
	// fallback in the parser once masked typos upstream.
	if _, err := ParseSize(""); err == nil {
		t.Error("ParseSize(\"\") did not error")
	}
	if _, err := ParseSize("huge"); err == nil {
		t.Error("ParseSize(\"huge\") did not error")
	}
}

func TestGridExtensionAxes(t *testing.T) {
	g := Grid{
		Apps:           []string{"matmul-hyb"},
		Schedulers:     []string{"versioning"},
		SMPWorkers:     []int{2},
		GPUs:           []int{1},
		Lambdas:        []int{0, 6},
		SizeTolerances: []float64{0, 0.25},
		EWMAAlphas:     []float64{0, 0.3},
		LocalityAware:  []bool{false, true},
		Noise:          []float64{0},
		Replicas:       2,
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.NumCells(); got != 16 {
		t.Errorf("NumCells = %d, want 16", got)
	}
	specs := g.Runs()
	if len(specs) != 32 {
		t.Fatalf("len(Runs()) = %d, want 32", len(specs))
	}
	seen := make(map[RunSpec]bool)
	for _, s := range specs {
		if seen[s] {
			t.Errorf("duplicate spec %v", s)
		}
		seen[s] = true
	}
	// Every knob combination must appear.
	combos := make(map[[4]any]bool)
	for _, s := range specs {
		combos[[4]any{s.Lambda, s.SizeTolerance, s.EWMAAlpha, s.LocalityAware}] = true
	}
	if len(combos) != 16 {
		t.Errorf("knob combinations = %d, want 16", len(combos))
	}
}

func TestGridExtensionAxesValidate(t *testing.T) {
	base := Grid{Apps: []string{"matmul-hyb"}, Schedulers: []string{"bf"},
		SMPWorkers: []int{2}, GPUs: []int{1}, Noise: []float64{0}}
	bad := base
	bad.Lambdas = []int{-1}
	if err := bad.Validate(); err == nil {
		t.Error("negative lambda passed Validate")
	}
	bad = base
	bad.SizeTolerances = []float64{-0.1}
	if err := bad.Validate(); err == nil {
		t.Error("negative size tolerance passed Validate")
	}
	bad = base
	bad.EWMAAlphas = []float64{1.5}
	if err := bad.Validate(); err == nil {
		t.Error("EWMA alpha > 1 passed Validate")
	}
	bad = base
	bad.Machines = []MachineSpec{"rack:3"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown machine shape passed Validate")
	}
	bad = base
	bad.Machines = []MachineSpec{"cluster:2x6+0g"} // alias of cluster:2x6
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "canonical") {
		t.Errorf("non-canonical machine shape: Validate = %v", err)
	}
	bad = base
	bad.Machines = []MachineSpec{"cluster:2x6"} // needs smp > 12
	if err := bad.Validate(); err == nil {
		t.Error("cluster shape too large for smp axis passed Validate")
	}
	bad = base
	bad.Machines = []MachineSpec{MachineNode}
	bad.SMPWorkers = []int{20} // a single node hosts at most 12 cores
	if err := bad.Validate(); err == nil {
		t.Error("node shape with smp=20 passed Validate")
	}
}

func TestParseMachineSpec(t *testing.T) {
	cases := []struct {
		in   string
		want MachineSpec
	}{
		{"", MachineNode},
		{"node", MachineNode},
		{"cluster:2x6", "cluster:2x6"},
		{"cluster:2x6+1g", "cluster:2x6+1g"},
		{"cluster:2x6+0g", "cluster:2x6"}, // canonicalized
	}
	for _, c := range cases {
		got, err := ParseMachineSpec(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseMachineSpec(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"rack", "cluster:", "cluster:x6", "cluster:2x", "cluster:0x6", "cluster:2x0", "cluster:2x6+1", "cluster:2x6+-1g"} {
		if _, err := ParseMachineSpec(bad); err == nil {
			t.Errorf("ParseMachineSpec(%q) did not error", bad)
		}
	}
}

func TestMachineSpecMaterialize(t *testing.T) {
	if m, err := MachineNode.Materialize(4, 1); err != nil || m != nil {
		t.Errorf("node Materialize = %v, %v; want nil machine", m, err)
	}
	m, err := MachineSpec("cluster:2x6+1g").Materialize(20, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 keeps 8 cores + 2 GPUs; 2 remote nodes add 6 cores + 1 GPU
	// each: 20 SMP devices and 4 CUDA devices in total.
	if got := len(m.DevicesOfKind(ompss.SMP)); got != 20 {
		t.Errorf("SMP devices = %d, want 20", got)
	}
	if got := len(m.DevicesOfKind(ompss.CUDA)); got != 4 {
		t.Errorf("CUDA devices = %d, want 4", got)
	}
	// Worker counts the shape cannot host must fail, not panic — for the
	// node shape too, so Grid.Validate fails fast instead of the sweep
	// dying mid-campaign on a recovered runtime panic.
	if _, err := MachineNode.Materialize(20, 2); err == nil {
		t.Error("node with smp=20 (MinoTauro has 12 cores) did not error")
	}
	if _, err := MachineNode.Materialize(4, 3); err == nil {
		t.Error("node with gpus=3 (MinoTauro has 2 GPUs) did not error")
	}
	if _, err := MachineSpec("cluster:2x6").Materialize(12, 0); err == nil {
		t.Error("cluster:2x6 with smp=12 (node 0 would have 0 cores) did not error")
	}
	if _, err := MachineSpec("cluster:2x6").Materialize(30, 0); err == nil {
		t.Error("cluster:2x6 with smp=30 (node 0 would need 18 cores) did not error")
	}
	if _, err := MachineSpec("cluster:2x6+1g").Materialize(20, 1); err == nil {
		t.Error("cluster:2x6+1g with gpus=1 (node 0 would have -1 GPUs) did not error")
	}
}

// TestClusterGridSweep runs a real (simulated) sweep over the machine
// axis: the cluster shape must execute and report more transferred bytes
// than the single node (InfiniBand staging), with everything else equal.
func TestClusterGridSweep(t *testing.T) {
	g := Grid{
		Apps:       []string{"pbpi-smp"},
		Schedulers: []string{"dep"},
		Machines:   []MachineSpec{MachineNode, "cluster:1x2"},
		SMPWorkers: []int{4},
		GPUs:       []int{0},
		Noise:      []float64{0},
		Replicas:   1,
	}
	res, err := runCampaign(g, nil, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(res.Cells))
	}
	if res.Cells[0].Machine != MachineNode || res.Cells[1].Machine != "cluster:1x2" {
		t.Errorf("machine column wrong: %q, %q", res.Cells[0].Machine, res.Cells[1].Machine)
	}
	if res.Cells[0].Tasks != res.Cells[1].Tasks {
		t.Errorf("task counts differ across machines: %d vs %d", res.Cells[0].Tasks, res.Cells[1].Tasks)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(RunSpec{App: "no-such-app", GPUs: 1}); err == nil {
		t.Error("unknown app did not error")
	}
	// A typo'd size must fail fast, not silently run full paper scale.
	if _, err := Run(RunSpec{App: "matmul-hyb", Size: "small", GPUs: 1}); err == nil {
		t.Error("unknown size did not error")
	}
	// matmul's main implementation is CUBLAS: the MinGPUs guard must
	// reject a GPU-less shape instead of deadlocking the simulation.
	if _, err := Run(RunSpec{App: "matmul-hyb", Scheduler: "bf", SMPWorkers: 2, GPUs: 0}); err == nil {
		t.Error("GPU-less shape for a GPU-main app did not error")
	}
	// pbpi-smp genuinely runs without GPUs.
	if _, err := Run(RunSpec{App: "pbpi-smp", Scheduler: "dep", SMPWorkers: 2, GPUs: 0, Size: SizeTiny}); err != nil {
		t.Errorf("pbpi-smp without GPUs: %v", err)
	}
}

// TestTables checks the compile-time scheduler and app tables: every
// listed scheduler builds through the facade under its own name, app
// names are unique, and an unknown scheduler is rejected on every path
// with the full list of names.
func TestTables(t *testing.T) {
	names := sched.Names()
	if len(names) != 6 {
		t.Errorf("sched.Names() = %v, want six policies", names)
	}
	for _, n := range names {
		r, err := ompss.NewRuntime(ompss.Config{Scheduler: n, SMPWorkers: 1, GPUs: 1})
		if err != nil {
			t.Errorf("NewRuntime(%s): %v", n, err)
			continue
		}
		if got := r.Config().Scheduler.Name(); got != n {
			t.Errorf("scheduler %q builds a policy named %q", n, got)
		}
	}

	seen := map[string]bool{}
	for _, a := range appTable {
		if seen[a.Name] {
			t.Errorf("duplicate app %q", a.Name)
		}
		seen[a.Name] = true
		if got, ok := LookupApp(a.Name); !ok || got.Name != a.Name {
			t.Errorf("LookupApp(%q) = %v, %v", a.Name, got.Name, ok)
		}
	}
	if len(AppNames()) != len(appTable) {
		t.Errorf("AppNames() = %v, want %d names", AppNames(), len(appTable))
	}

	_, facadeErr := ompss.NewRuntime(ompss.Config{Scheduler: "nope", SMPWorkers: 1, GPUs: 1})
	_, specErr := RunSpec{App: "matmul-hyb", Size: SizeTiny, Scheduler: "nope", SMPWorkers: 1, GPUs: 1}.validate()
	for what, err := range map[string]error{
		"grid":   Grid{Schedulers: []string{"nope"}}.Validate(),
		"spec":   specErr,
		"facade": facadeErr,
	} {
		if err == nil {
			t.Errorf("%s: unknown scheduler accepted", what)
			continue
		}
		for _, n := range names {
			if !strings.Contains(err.Error(), n) {
				t.Errorf("%s: error %q does not list %q", what, err, n)
			}
		}
	}
}

// TestCSVIdenticalAcrossParallelism runs a real (simulated) sweep twice —
// serial and with 4 workers — and asserts byte-identical CSV, the
// acceptance property of the sweep subsystem.
func TestCSVIdenticalAcrossParallelism(t *testing.T) {
	g := Grid{
		Apps:       []string{"matmul-hyb", "cholesky-potrf-hyb"},
		Schedulers: []string{"bf", "versioning"},
		SMPWorkers: []int{2},
		GPUs:       []int{2},
		Noise:      []float64{0.05},
		Size:       SizeTiny,
		Replicas:   2,
	}
	render := func(parallel int) string {
		res, err := runCampaign(g, nil, parallel, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(4)
	if serial != parallel {
		t.Errorf("CSV differs between -parallel 1 and -parallel 4:\n%s\nvs\n%s", serial, parallel)
	}
}
