package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// fakeTracedRun is fakeRun plus a minimal synthetic tracer, for sink
// tests that must not pay for real simulations.
func fakeTracedRun(spec RunSpec) (RunResult, *trace.Tracer, error) {
	rr, err := fakeRun(spec)
	if err != nil {
		return rr, nil, err
	}
	tr := trace.New()
	tr.RecordTask(trace.TaskRecord{
		TaskID: 1, Type: "tile", Version: "tile_smp",
		Worker: 0, Start: sim.Time(1), End: sim.Time(10),
	})
	return rr, tr, nil
}

// recordingObserver captures the event stream. The engine serializes
// delivery, but the test goroutine reads the log after Execute returns,
// so a mutex keeps -race happy.
type recordingObserver struct {
	mu     sync.Mutex
	events []Event
}

func (r *recordingObserver) OnEvent(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

func (r *recordingObserver) log() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// checkObserverSemantics asserts the per-cell delivery contract of
// event.go over a recorded stream: Started (at most once per cell)
// precedes the completion, and every cell completes exactly once via
// CellDone or CellCached.
func checkObserverSemantics(t *testing.T, events []Event, total int) (done, cached int) {
	t.Helper()
	started := map[int]int{}
	completed := map[int]int{}
	for _, ev := range events {
		switch ev := ev.(type) {
		case CellStarted:
			started[ev.Index]++
			if completed[ev.Index] > 0 {
				t.Errorf("cell %d: CellStarted after its completion event", ev.Index)
			}
		case CellDone:
			completed[ev.Index]++
			done++
		case CellCached:
			completed[ev.Index]++
			cached++
		}
	}
	for idx, n := range started {
		if n != 1 {
			t.Errorf("cell %d: CellStarted %d times, want at most once", idx, n)
		}
	}
	if len(completed) != total {
		t.Errorf("completion events for %d distinct cells, want %d", len(completed), total)
	}
	for idx, n := range completed {
		if n != 1 {
			t.Errorf("cell %d: completed %d times, want exactly once (CellDone|CellCached)", idx, n)
		}
	}
	return done, cached
}

// TestCampaignObserverSemantics runs a partially warm campaign at
// Parallel 4 (events interleave across cells) and asserts the delivery
// contract plus deterministic rendered output. Run under -race in CI it
// also proves observers need no locking beyond their own state.
func TestCampaignObserverSemantics(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Warm half the grid (gpus=1); the campaign sweeps gpus=1,2.
	if _, err := runCampaign(smallGrid(1), cache, 2, fakeRun); err != nil {
		t.Fatal(err)
	}
	rec := &recordingObserver{}
	camp := Campaign{
		Grid:     smallGrid(1, 2), // 8 runs
		Store:    cache,
		Parallel: 4,
		Observer: rec,
		run:      fakeRun,
	}
	res, stats, err := camp.Execute()
	if err != nil {
		t.Fatal(err)
	}
	done, cached := checkObserverSemantics(t, rec.log(), 8)
	if done != 4 || cached != 4 {
		t.Errorf("events: done=%d cached=%d, want 4/4", done, cached)
	}
	if stats.Simulated != 4 || stats.Hits != 4 {
		t.Errorf("stats: %v, want simulated=4 hits=4", stats)
	}
	// The rendered output must not depend on event interleaving.
	cold, err := runCampaign(smallGrid(1, 2), nil, 1, fakeRun)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderCSV(t, res), renderCSV(t, cold); got != want {
		t.Errorf("campaign CSV differs from cold serial sweep:\n%s\nvs\n%s", got, want)
	}
}

// TestCampaignClaimObserverSemantics is the claim-mode twin: the same
// contract must hold when cells resolve through the lease loop, and
// every simulated cell must have been preceded by a LeaseClaimed.
func TestCampaignClaimObserverSemantics(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runCampaign(smallGrid(1), cache, 2, fakeRun); err != nil {
		t.Fatal(err)
	}
	rec := &recordingObserver{}
	camp := Campaign{
		Grid:     smallGrid(1, 2), // 8 runs, 4 warm
		Store:    cache,
		Parallel: 3,
		Observer: rec,
		Claim:    &ClaimOptions{Owner: "observer-test"},
		run:      fakeRun,
	}
	res, stats, err := camp.Execute()
	if err != nil {
		t.Fatal(err)
	}
	events := rec.log()
	done, cached := checkObserverSemantics(t, events, 8)
	if done != 4 || cached != 4 {
		t.Errorf("events: done=%d cached=%d, want 4/4", done, cached)
	}
	claimed := map[int]bool{}
	for _, ev := range events {
		if lc, ok := ev.(LeaseClaimed); ok {
			if lc.Owner != "observer-test" {
				t.Errorf("LeaseClaimed owner = %q", lc.Owner)
			}
			claimed[lc.Index] = true
		}
	}
	if len(claimed) != 4 {
		t.Errorf("LeaseClaimed for %d cells, want the 4 uncached ones", len(claimed))
	}
	if stats.Claimed != 4 || stats.Simulated != 4 || stats.Hits != 4 {
		t.Errorf("stats: %v", stats)
	}
	cold, err := runCampaign(smallGrid(1, 2), nil, 1, fakeRun)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderCSV(t, res), renderCSV(t, cold); got != want {
		t.Errorf("claim campaign CSV differs from cold sweep:\n%s\nvs\n%s", got, want)
	}
}

// TestCampaignCostPlannerOrder: with a warm cost model and Parallel 1,
// cells run most-expensive-first; cells without an estimate run first in
// expansion order; and the rendered output is byte-identical to the
// expansion-order plan.
func TestCampaignCostPlannerOrder(t *testing.T) {
	g := Grid{
		Apps:       []string{"matmul-hyb", "stencil", "cholesky-potrf-hyb"},
		Schedulers: []string{"bf"},
		SMPWorkers: []int{2},
		GPUs:       []int{1},
		Noise:      []float64{0},
		Replicas:   1,
	} // 3 runs: matmul, stencil, cholesky in expansion order
	model := NewCostModel()
	specs := g.Runs()
	// stencil gets no estimate; cholesky is far more expensive than
	// matmul.
	model.Observe(RunSpec{App: "matmul-hyb", Scheduler: "bf", SMPWorkers: 2, GPUs: 1, Seed: 999}, 0.01)
	model.Observe(RunSpec{App: "cholesky-potrf-hyb", Scheduler: "bf", SMPWorkers: 2, GPUs: 1, Seed: 999}, 5.0)

	var order []string
	recorder := func(s RunSpec) (RunResult, error) {
		order = append(order, s.App)
		return fakeRun(s)
	}
	camp := Campaign{Grid: g, Parallel: 1, Planner: CostPlanner{Model: model}, run: recorder}
	res, _, err := camp.Execute()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"stencil", "cholesky-potrf-hyb", "matmul-hyb"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("cost-plan execution order = %v, want %v (unknown first, then expensive first)", order, want)
	}
	// Results stay in expansion order regardless of the plan.
	for i, r := range res.Runs {
		if r.Spec != specs[i] {
			t.Errorf("run %d committed out of expansion order: %v", i, r.Spec)
		}
	}
	ordered, err := runCampaign(g, nil, 1, fakeRun)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderCSV(t, res), renderCSV(t, ordered); got != want {
		t.Errorf("cost-planned CSV differs from order-planned CSV:\n%s\nvs\n%s", got, want)
	}
}

// badPlanner drops a cell — the engine must refuse the plan.
type badPlanner struct{}

func (badPlanner) Name() string { return "bad" }
func (badPlanner) Plan(pending []PlanCell) []PlanCell {
	out := append([]PlanCell(nil), pending[1:]...)
	return append(out, pending[1]) // wrong length stays equal: duplicate + drop
}

func TestCampaignRejectsNonPermutationPlan(t *testing.T) {
	camp := Campaign{Grid: smallGrid(1), Parallel: 1, Planner: badPlanner{}, run: fakeRun}
	if _, _, err := camp.Execute(); err == nil || !strings.Contains(err.Error(), "dropped or duplicated") {
		t.Errorf("Execute with a non-permutation plan = %v, want permutation error", err)
	}
}

// TestCampaignSink: every freshly simulated run reaches the sink exactly
// once; cached cells never do.
func TestCampaignSink(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sink, err := NewTraceDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	camp := Campaign{
		Grid:      smallGrid(1), // 4 runs
		Store:     cache,
		Parallel:  2,
		Sink:      sink,
		runTraced: fakeTracedRun,
	}
	if _, stats, err := camp.Execute(); err != nil {
		t.Fatal(err)
	} else if stats.Simulated != 4 {
		t.Fatalf("stats: %v", stats)
	}
	prv, _ := filepath.Glob(filepath.Join(dir, "*.prv"))
	pcf, _ := filepath.Glob(filepath.Join(dir, "*.pcf"))
	if len(prv) != 4 || len(pcf) != 4 {
		t.Fatalf("artifacts: %d prv, %d pcf, want 4+4", len(prv), len(pcf))
	}
	for _, p := range prv {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "#Paraver") {
			t.Errorf("%s does not start with a Paraver header", p)
		}
	}

	// A warm re-run simulates nothing, so a fresh sink stays empty —
	// the documented "cached hits do not re-simulate to produce traces".
	dir2 := t.TempDir()
	sink2, err := NewTraceDirSink(dir2)
	if err != nil {
		t.Fatal(err)
	}
	camp2 := Campaign{Grid: smallGrid(1), Store: cache, Parallel: 2, Sink: sink2, runTraced: fakeTracedRun}
	if _, stats, err := camp2.Execute(); err != nil {
		t.Fatal(err)
	} else if stats.Simulated != 0 || stats.Hits != 4 {
		t.Fatalf("warm stats: %v", stats)
	}
	if got, _ := filepath.Glob(filepath.Join(dir2, "*")); len(got) != 0 {
		t.Errorf("warm campaign wrote %d artifacts, want none: %v", len(got), got)
	}
}

// TestCampaignSinkRealSimulation drives one real run end to end through
// RunTraced and the Paraver sink (the -trace-dir path).
func TestCampaignSinkRealSimulation(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewTraceDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	camp := Campaign{
		Specs: []RunSpec{{App: "matmul-hyb", Scheduler: "bf", SMPWorkers: 2, GPUs: 1, Seed: 3}},
		Sink:  sink,
	}
	res, _, err := camp.Execute()
	if err != nil {
		t.Fatal(err)
	}
	prv, _ := filepath.Glob(filepath.Join(dir, "*.prv"))
	if len(prv) != 1 {
		t.Fatalf("artifacts: %v", prv)
	}
	data, err := os.ReadFile(prv[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines < res.Runs[0].Tasks {
		t.Errorf("trace has %d lines for %d tasks", lines, res.Runs[0].Tasks)
	}
}

func TestCampaignSpecsMatchRun(t *testing.T) {
	spec := RunSpec{App: "matmul-hyb", Scheduler: "dep", SMPWorkers: 2, GPUs: 1, NoiseSigma: 0.05, Seed: 0}
	direct, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	camp := Campaign{Specs: []RunSpec{spec}}
	res, stats, err := camp.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 1 || stats.Simulated != 1 {
		t.Errorf("stats: %v", stats)
	}
	got := res.Runs[0]
	// Seed 0 must pass through verbatim (no grid BaseSeed defaulting).
	if got.Spec.Seed != 0 {
		t.Errorf("explicit spec seed rewritten to %d", got.Spec.Seed)
	}
	if got.Elapsed != direct.Elapsed || got.GFlops != direct.GFlops || got.Tasks != direct.Tasks {
		t.Errorf("Specs campaign diverged from Run: %+v vs %+v", got.Result, direct.Result)
	}
	if len(res.Cells) != 1 || res.Cells[0].Replicas != 1 {
		t.Errorf("cells: %+v", res.Cells)
	}
}

func TestCampaignDefinitionErrors(t *testing.T) {
	both := Campaign{Grid: smallGrid(1), Specs: []RunSpec{{App: "matmul-hyb", GPUs: 1}}, run: fakeRun}
	if _, _, err := both.Execute(); err == nil || !strings.Contains(err.Error(), "not both") {
		t.Errorf("Grid+Specs campaign = %v, want definition error", err)
	}
	badApp := Campaign{Specs: []RunSpec{{App: "no-such-app", GPUs: 1}}, run: fakeRun}
	if _, _, err := badApp.Execute(); err == nil || !strings.Contains(err.Error(), "no-such-app") {
		t.Errorf("unknown app spec = %v", err)
	}
	badSched := Campaign{Specs: []RunSpec{{App: "matmul-hyb", Scheduler: "nope", GPUs: 1}}, run: fakeRun}
	if _, _, err := badSched.Execute(); err == nil {
		t.Error("unknown scheduler spec did not error")
	}
	badShape := Campaign{Specs: []RunSpec{{App: "matmul-hyb", SMPWorkers: 99, GPUs: 1}}, run: fakeRun}
	if _, _, err := badShape.Execute(); err == nil {
		t.Error("unhostable machine shape did not error")
	}
	noCache := Campaign{Grid: smallGrid(1), Claim: &ClaimOptions{}, run: fakeRun}
	if _, _, err := noCache.Execute(); err == nil {
		t.Error("claim campaign without a cache did not error")
	}
}

func TestCacheWallCostRoundTrip(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{App: "matmul-hyb", Scheduler: "bf", SMPWorkers: 2, GPUs: 1, Seed: 11}
	spec.fillDefaults()
	rr, err := fakeRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	rr.Wall = 1500 * time.Millisecond
	if err := cache.StoreCell(rr); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.LoadCell(spec, spec.Hash())
	if !ok {
		t.Fatal("LoadCell missed")
	}
	if got.Wall != rr.Wall {
		t.Errorf("wall cost round trip: %v, want %v", got.Wall, rr.Wall)
	}

	// A cell written without wall_s (pre-cost format) still loads, with
	// an unknown (zero) cost — the compatibility the planner relies on.
	old := spec
	old.Seed = 12
	orr, err := fakeRun(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.StoreCell(orr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cache.Dir(), orr.Spec.Hash()+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "wall_s") {
		t.Fatalf("zero wall cost serialized: %s", data)
	}
	if got, ok := cache.LoadCell(old, old.Hash()); !ok || got.Wall != 0 {
		t.Errorf("pre-cost cell load = (%v, %t), want hit with zero wall", got.Wall, ok)
	}
}

func TestCostModelTiers(t *testing.T) {
	m := NewCostModel()
	base := RunSpec{App: "matmul-hyb", Scheduler: "bf", SMPWorkers: 2, GPUs: 1}
	m.Observe(base, 2.0)
	m.Observe(base, 4.0) // exact-key mean: 3.0

	if est, ok := m.Estimate(base); !ok || est != 3.0 {
		t.Errorf("exact estimate = (%g, %t), want (3, true)", est, ok)
	}
	// Different scheduler: exact key misses, coarse (app|size) answers.
	other := base
	other.Scheduler = "dep"
	if est, ok := m.Estimate(other); !ok || est != 3.0 {
		t.Errorf("coarse estimate = (%g, %t), want (3, true)", est, ok)
	}
	// Different app: no observation at any tier.
	if _, ok := m.Estimate(RunSpec{App: "stencil", SMPWorkers: 2, GPUs: 1}); ok {
		t.Error("estimate for an unobserved app did not miss")
	}
	// Non-positive costs (the pre-cost-cell encoding) are ignored.
	m.Observe(RunSpec{App: "stencil", SMPWorkers: 2, GPUs: 1}, 0)
	if _, ok := m.Estimate(RunSpec{App: "stencil", SMPWorkers: 2, GPUs: 1}); ok {
		t.Error("zero-cost observation produced an estimate")
	}
}

// TestCostModelEstimateAllocs: the planner, budget admission and every
// watch poll estimate each uncached cell, so a lookup must not build
// its keys on the heap, at either tier or on a miss.
func TestCostModelEstimateAllocs(t *testing.T) {
	m := NewCostModel()
	base := RunSpec{App: "matmul-hyb", Scheduler: "bf", SMPWorkers: 2, GPUs: 1}
	m.Observe(base, 2.0)
	coarse := base
	coarse.Scheduler = "dep"
	for _, spec := range []RunSpec{base, coarse, {App: "stencil"}} {
		if allocs := testing.AllocsPerRun(100, func() { m.Estimate(spec) }); allocs != 0 {
			t.Errorf("Estimate(%s/%s) allocates %.0f times, want 0", spec.App, spec.Scheduler, allocs)
		}
	}
}

func TestCacheCostModelScan(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{App: "matmul-hyb", Scheduler: "bf", SMPWorkers: 2, GPUs: 1, Seed: 21}
	rr, err := fakeRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	rr.Wall = 2 * time.Second
	if err := cache.StoreCell(rr); err != nil {
		t.Fatal(err)
	}
	// A pre-cost cell and a corrupt file must both be skipped silently.
	noCost := spec
	noCost.Seed = 22
	nrr, _ := fakeRun(noCost)
	if err := cache.StoreCell(nrr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cache.Dir(), "garbage.json"), []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := LoadCostModel(cache)
	if err != nil {
		t.Fatal(err)
	}
	// The pre-cost cell shares the exact key: had it been folded in as
	// a zero cost, the mean would be 1.
	if est, ok := m.Estimate(spec); !ok || est != 2.0 {
		t.Errorf("estimate = (%g, %t), want (2, true): cost-bearing cell only", est, ok)
	}
}

// TestGridIsZeroCoversEveryField pins Grid.isZero to the struct: when a
// new axis is added without updating isZero, a Campaign setting only
// that axis plus Specs would slip past the Grid-vs-Specs exclusivity
// check and have its Grid silently ignored. Setting each field to a
// non-zero value via reflection must flip isZero.
func TestGridIsZeroCoversEveryField(t *testing.T) {
	if !(Grid{}).isZero() {
		t.Fatal("zero Grid reported non-zero")
	}
	typ := reflect.TypeOf(Grid{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		gv := reflect.New(typ).Elem()
		fv := gv.Field(i)
		switch f.Type.Kind() {
		case reflect.Slice:
			fv.Set(reflect.MakeSlice(f.Type, 1, 1))
		case reflect.String:
			fv.SetString("x")
		case reflect.Int, reflect.Int64:
			fv.SetInt(1)
		default:
			t.Fatalf("field %s has kind %v: teach this test (and isZero) about it", f.Name, f.Type.Kind())
		}
		if gv.Interface().(Grid).isZero() {
			t.Errorf("Grid with only %s set reports isZero — update Grid.isZero", f.Name)
		}
	}
}

func TestCampaignStatus(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := smallGrid(1) // 4 runs
	specs := g.Runs()
	// Store half the grid.
	for _, s := range specs[:2] {
		rr, err := fakeRun(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.StoreCell(rr); err != nil {
			t.Fatal(err)
		}
	}
	// One outstanding lease.
	s3 := specs[3]
	s3.fillDefaults()
	lease, _, err := cache.Claim(s3.Hash(), "watch-test-owner", time.Minute)
	if err != nil || lease == nil {
		t.Fatalf("Claim: %v, %v", lease, err)
	}
	defer lease.Release()

	w, err := NewWatcher(cache, g)
	if err != nil {
		t.Fatal(err)
	}
	st, err := w.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 4 || st.Done != 2 {
		t.Errorf("status = %d/%d, want 2/4", st.Done, st.Runs)
	}
	if len(st.Leases) != 1 || st.Leases[0].Owner != "watch-test-owner" {
		t.Fatalf("leases = %+v", st.Leases)
	}
	if st.Leases[0].Age < 0 || st.Leases[0].Age > time.Minute {
		t.Errorf("lease age = %v", st.Leases[0].Age)
	}
	line := st.String()
	if !strings.Contains(line, "2/4 cells cached") || !strings.Contains(line, "watch-test-owner") {
		t.Errorf("status line = %q", line)
	}
}
