package exp

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// budgetModel prices smallGrid(1, 2)'s cells so the cost-plan order and
// the budget arithmetic are fully determined: bf/gpu2 is the most
// expensive, bf/gpu1 the cheapest. (The exact key ignores seeds, so
// both replicas of a cell share its estimate.)
func budgetModel() *CostModel {
	m := NewCostModel()
	base := RunSpec{App: "matmul-hyb", SMPWorkers: 2}
	for sched, byGPU := range map[string]map[int]float64{
		"bf":  {1: 1.0, 2: 4.0},
		"dep": {1: 2.0, 2: 3.0},
	} {
		for gpus, cost := range byGPU {
			s := base
			s.Scheduler, s.GPUs = sched, gpus
			m.Observe(s, cost)
		}
	}
	return m
}

// smallGrid(1,2) expansion order (2 replicas each):
//
//	0,1 bf/gpu1 (est 1s)   2,3 bf/gpu2 (est 4s)
//	4,5 dep/gpu1 (est 2s)  6,7 dep/gpu2 (est 3s)
//
// Cost-plan order: 2,3 (4s), 6,7 (3s), 4,5 (2s), 0,1 (1s). A 10s limit
// admits 2 and 3 (spend 8s), hard-stops on 6 (11s > 10s), and skips
// everything after — expansion indexes 0,1,4,5,6,7.
var wantAdmitted = map[int]bool{2: true, 3: true}

func newBudgetCampaign(cache *DirStore, parallel int, claim *ClaimOptions) *Campaign {
	model := budgetModel()
	return &Campaign{
		Grid:     smallGrid(1, 2),
		Store:    cache,
		Parallel: parallel,
		Planner:  CostPlanner{Model: model},
		Budget:   &BudgetOptions{Limit: 10 * time.Second, Model: model},
		Claim:    claim,
		run:      fakeRun,
	}
}

func budgetCampaign(t *testing.T, cache *DirStore, parallel int, claim *ClaimOptions) (*SweepResult, ClaimStats) {
	t.Helper()
	return executeBudgetCampaign(t, newBudgetCampaign(cache, parallel, claim))
}

func executeBudgetCampaign(t *testing.T, camp *Campaign) (*SweepResult, ClaimStats) {
	t.Helper()
	res, stats, err := camp.Execute()
	if err != nil {
		t.Fatal(err)
	}
	return res, stats
}

func checkSkipSet(t *testing.T, res *SweepResult, label string) {
	t.Helper()
	if len(res.Skipped) != 6 {
		t.Fatalf("%s: skipped %d runs, want 6: %+v", label, len(res.Skipped), res.Skipped)
	}
	for i, s := range res.Skipped {
		if i > 0 && res.Skipped[i-1].Index >= s.Index {
			t.Errorf("%s: skip report out of expansion order at %d", label, i)
		}
		if wantAdmitted[s.Index] {
			t.Errorf("%s: admitted index %d reported skipped", label, s.Index)
		}
		if !s.Known {
			t.Errorf("%s: skip %d lost its estimate", label, s.Index)
		}
	}
}

// TestBudgetDeterminism is the acceptance battery: for a fixed grid and
// cost model the admitted set is identical at any Parallel and in claim
// mode with concurrent claimants, the budgeted partial CSV is
// byte-stable, and an unbudgeted resume over the budgeted cache renders
// byte-identically to a never-budgeted run.
func TestBudgetDeterminism(t *testing.T) {
	// Reference: a never-budgeted cold run.
	cold, err := runCampaign(smallGrid(1, 2), nil, 1, fakeRun)
	if err != nil {
		t.Fatal(err)
	}
	coldCSV := renderCSV(t, cold)

	var budgetedCSV string
	for _, parallel := range []int{1, 4} {
		cache, err := OpenDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		res, stats := budgetCampaign(t, cache, parallel, nil)
		checkSkipSet(t, res, fmt.Sprintf("parallel=%d", parallel))
		if stats.Simulated != 2 || stats.Skipped != 6 || stats.Simulated+stats.Hits+stats.Skipped != stats.Runs {
			t.Errorf("parallel=%d stats: %v", parallel, stats)
		}
		// Skipped cells stay uncached; admitted cells land.
		for i, s := range smallGrid(1, 2).Runs() {
			s.fillDefaults()
			_, cached := cache.LoadCell(s, s.Hash())
			if cached != wantAdmitted[i] {
				t.Errorf("parallel=%d: cell %d cached=%t, want %t", parallel, i, cached, wantAdmitted[i])
			}
		}
		// The budgeted partial output is itself deterministic.
		csv := renderCSV(t, res)
		if budgetedCSV == "" {
			budgetedCSV = csv
		} else if csv != budgetedCSV {
			t.Errorf("budgeted CSV differs between parallelisms:\n%s\nvs\n%s", csv, budgetedCSV)
		}
		if csv == coldCSV {
			t.Error("budgeted partial CSV unexpectedly equals the full-grid CSV")
		}

		// The unbudgeted resume completes the grid byte-identically to the
		// never-budgeted run — the budget chose which cells ran, not what
		// they produced.
		resumed, err := runCampaign(smallGrid(1, 2), cache, parallel, fakeRun)
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Simulated != 6 || resumed.CacheHits != 2 {
			t.Errorf("resume simulated=%d hits=%d, want 6/2", resumed.Simulated, resumed.CacheHits)
		}
		if got := renderCSV(t, resumed); got != coldCSV {
			t.Errorf("parallel=%d: resumed CSV differs from never-budgeted run:\n%s\nvs\n%s", parallel, got, coldCSV)
		}
	}
}

// barrierPlanner holds every claimant at planning time until all of
// them have pre-scanned the store, so concurrent claimants start from
// the same store state.
type barrierPlanner struct {
	Planner
	ready *sync.WaitGroup
}

func (p barrierPlanner) Plan(pending []PlanCell) []PlanCell {
	p.ready.Done()
	p.ready.Wait()
	return p.Planner.Plan(pending)
}

// TestBudgetDeterminismClaimMode: two concurrent claimants of one cold
// cache, both budgeted, must each compute the same skip set (admission
// is a pure function of the shared model), and their merged work must
// cover exactly the admitted cells. Budgets price only the cells a
// claimant's pre-scan finds uncached, so both claimants plan before
// either stores a cell; a claimant joining a warmer store admits more.
func TestBudgetDeterminismClaimMode(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const claimants = 2
	var wg, planned sync.WaitGroup
	planned.Add(claimants)
	results := make([]*SweepResult, claimants)
	statsAll := make([]ClaimStats, claimants)
	for i := 0; i < claimants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			camp := newBudgetCampaign(cache, 2, &ClaimOptions{
				Owner: fmt.Sprintf("budget-claimant-%d", i),
				TTL:   time.Second,
			})
			camp.Planner = barrierPlanner{Planner: camp.Planner, ready: &planned}
			results[i], statsAll[i] = executeBudgetCampaign(t, camp)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	simulated := 0
	for i := range results {
		checkSkipSet(t, results[i], fmt.Sprintf("claimant %d", i))
		simulated += statsAll[i].Simulated
	}
	if simulated != 2 {
		t.Errorf("claimants simulated %d cells in total, want exactly the 2 admitted", simulated)
	}
	if got, want := renderCSV(t, results[0]), renderCSV(t, results[1]); got != want {
		t.Errorf("claimants rendered different budgeted CSVs:\n%s\nvs\n%s", got, want)
	}
}

// TestAdmitBudget pins the admission rule: in-order charge, unknown
// cells free, hard stop at the first overflow, zero budgets admit
// nothing, skip report in expansion order.
func TestAdmitBudget(t *testing.T) {
	cells := func(idxs ...int) []PlanCell {
		out := make([]PlanCell, len(idxs))
		for i, idx := range idxs {
			out[i] = PlanCell{Index: idx, Spec: RunSpec{App: "matmul-hyb", Scheduler: "bf", SMPWorkers: 2, GPUs: 1, Seed: int64(idx)}}
		}
		return out
	}
	model := NewCostModel()
	model.Observe(RunSpec{App: "matmul-hyb", Scheduler: "bf", SMPWorkers: 2, GPUs: 1}, 3)

	// nil budget admits everything.
	adm, skip := admitBudget(nil, nil, cells(0, 1, 2))
	if len(adm) != 3 || len(skip) != 0 {
		t.Errorf("nil budget: admitted %d skipped %d", len(adm), len(skip))
	}

	// 3s per cell, 7s limit: two admitted, hard stop on the third even
	// though a later cell might also cost 3s.
	b := &BudgetOptions{Limit: 7 * time.Second, Model: model}
	adm, skip = admitBudget(b, model, cells(5, 1, 3, 4))
	if len(adm) != 2 || adm[0].Index != 5 || adm[1].Index != 1 {
		t.Errorf("admitted = %+v, want plan-order prefix [5 1]", adm)
	}
	if len(skip) != 2 || skip[0].Index != 3 || skip[1].Index != 4 {
		t.Errorf("skipped = %+v, want expansion-ordered [3 4]", skip)
	}
	for _, s := range skip {
		if !s.Known || s.EstSec != 3 {
			t.Errorf("skip %d estimate = (%g, %t)", s.Index, s.EstSec, s.Known)
		}
	}

	// Unknown-cost cells are admitted free while the budget is open...
	unknown := []PlanCell{{Index: 9, Spec: RunSpec{App: "stencil", SMPWorkers: 2, GPUs: 1}}}
	adm, skip = admitBudget(&BudgetOptions{Limit: time.Nanosecond}, model, unknown)
	if len(adm) != 1 || len(skip) != 0 {
		t.Errorf("unknown cell under open budget: admitted %d skipped %d", len(adm), len(skip))
	}
	// ...and an exactly-exhausted budget admits no further cell, unknown
	// or not — the same decision a zero limit makes.
	exhaust := &BudgetOptions{Limit: 6 * time.Second, Model: model}
	adm, skip = admitBudget(exhaust, model, append(cells(0, 1), unknown...))
	if len(adm) != 2 || len(skip) != 1 || skip[0].Index != 9 {
		t.Errorf("exhausted budget: admitted %+v skipped %+v, want the free cell cut", adm, skip)
	}
	// ...but a zero limit (the -procs coordinator's render budget)
	// admits nothing at all, not even an unknown-cost cell.
	adm, skip = admitBudget(&BudgetOptions{Model: model}, model, unknown)
	if len(adm) != 0 || len(skip) != 1 {
		t.Errorf("zero budget: admitted %d skipped %d", len(adm), len(skip))
	}
	if s := skip[0]; s.Known || s.EstSec != 0 {
		t.Errorf("unknown skip carries estimate (%g, %t)", s.EstSec, s.Known)
	}
	adm, _ = admitBudget(&BudgetOptions{Limit: 0}, model, cells(0))
	if len(adm) != 0 {
		t.Error("zero budget admitted a cell")
	}
}

// TestBudgetResolveFromCache: a budget without an explicit model builds
// one from the campaign cache at Execute time.
func TestBudgetResolveFromCache(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Record real costs for the gpus=1 half of the grid; the gpus=2
	// half inherits coarse (app|size) estimates from it.
	for _, s := range smallGrid(1).Runs() {
		rr, err := fakeRun(s)
		if err != nil {
			t.Fatal(err)
		}
		rr.Wall = 2 * time.Second
		if err := cache.StoreCell(rr); err != nil {
			t.Fatal(err)
		}
	}
	camp := Campaign{
		Grid:     smallGrid(1, 2),
		Store:    cache,
		Parallel: 2,
		Planner:  OrderPlanner{},
		Budget:   &BudgetOptions{Limit: 5 * time.Second}, // fits 2 of the 4 uncached 2s cells
		run:      fakeRun,
	}
	res, stats, err := camp.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 4 || stats.Simulated != 2 || stats.Skipped != 2 {
		t.Errorf("stats: %v, want hits=4 simulated=2 skipped=2", stats)
	}
	if len(res.Skipped) != 2 {
		t.Errorf("skipped: %+v", res.Skipped)
	}
}

// TestWriteSkipReport freezes the report's greppable shape.
func TestWriteSkipReport(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, _ := budgetCampaign(t, cache, 1, nil)
	var buf bytes.Buffer
	if err := WriteSkipReport(&buf, res, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Skipped: both replicas each of bf/gpu1 (1s), dep/gpu1 (2s) and
	// dep/gpu2 (3s) = 12s of deferred estimated simulation.
	if want := "budget: limit=10s admitted=2 skipped=6 est_skipped=12s\n"; !strings.HasPrefix(out, want) {
		t.Errorf("report = %q, want prefix %q", out, want)
	}
	if got := strings.Count(out, "\n"); got != 7 { // header + one line per skip
		t.Errorf("report has %d lines:\n%s", got, out)
	}
}

// TestBudgetedSweepSkipsCostRows: budget-skipped runs are absent from
// the cost report (they have no execution to report) and from the
// aggregated cells.
func TestBudgetedSweepSkipsCostRows(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, _ := budgetCampaign(t, cache, 1, nil)
	if len(res.Cells) != 1 { // only bf/gpu2's replica pair completed
		t.Errorf("aggregated cells = %d, want 1", len(res.Cells))
	}
	var buf bytes.Buffer
	if err := WriteCostCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 { // header + 2 admitted runs
		t.Errorf("cost CSV has %d lines, want 3:\n%s", got, buf.String())
	}
}
