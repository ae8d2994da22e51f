package exp

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/trace"
)

// Campaign is the experiment engine: one type that owns the whole run
// lifecycle — expand, plan, execute, persist, aggregate — with three
// composable extension points:
//
//   - Planner orders the uncached cells (default: expansion order;
//     CostPlanner prefers expensive cells using recorded wall costs).
//   - Observer consumes the typed event stream (progress renderers,
//     watch modes, lifecycle tests); see event.go for the contract.
//   - Sink receives every freshly simulated run's tracer (per-cell
//     Paraver export and other artifacts).
//
// Every mode — in-process pool, resumable store, multi-process claim
// fleet — runs through one dispatch loop (claim mode only adds a lease
// step before each cell) and renders byte-identical output: results are
// committed by expansion index regardless of planner, parallelism or
// which process simulated a cell.
type Campaign struct {
	// Grid declares the campaign as a cartesian product (the common
	// case). Exactly one of Grid and Specs must be set.
	Grid Grid
	// Specs declares the campaign as an explicit cell list instead — for
	// callers whose cases are not a product, chiefly harness.Run, which
	// passes every paper figure's distinct specs as one campaign. Each
	// spec is one cell (duplicates are not merged here: the caller
	// deduplicates), filled and validated like a grid's cells, all
	// before any simulation; aggregation treats every run as its own
	// cell and the result's Grid is left zero.
	Specs []RunSpec
	// Store, if set, makes the campaign resumable (and is required for
	// claim mode): cells the store already holds are not re-simulated,
	// fresh results are persisted with their wall cost. Any CellStore
	// works — a DirStore for shared-filesystem campaigns, an HTTP store
	// for an ompss-sweepd fleet.
	Store CellStore
	// Parallel bounds the worker pool (<=0 selects GOMAXPROCS).
	Parallel int
	// Planner orders the uncached cells (nil = OrderPlanner).
	Planner Planner
	// Observer receives the campaign's event stream (nil = silent).
	Observer Observer
	// Sink receives each simulated run's tracer (nil = none). Only a
	// campaign with a Sink traces its runs; without one, cells run
	// untraced through Run.
	Sink ArtifactSink
	// Budget, if set, bounds the campaign's estimated spend: uncached
	// cells are admitted in plan order while cost-model estimates fit
	// the limit, and the rest are skipped (reported, never simulated).
	// Skipped cells stay uncached; an unbudgeted campaign over the same
	// cache later completes the grid byte-identically.
	Budget *BudgetOptions
	// Claim, if set, runs the campaign cooperatively with other claimant
	// processes over the shared Store: every cell is leased before it is
	// dispatched (see ClaimOptions).
	Claim *ClaimOptions

	// run is the injectable runner for tests (nil = Run). It yields no
	// tracer, so campaigns driven through it skip the Sink.
	run func(RunSpec) (RunResult, error)
	// runTraced is the injectable traced runner for sink tests
	// (nil = RunTraced when a Sink is set and run is nil).
	runTraced func(RunSpec) (RunResult, *trace.Tracer, error)
}

// ClaimOptions configure claim mode: before dispatching a cell, the
// campaign re-checks the store and leases the cell through Store.Claim,
// heartbeating the lease every TTL/4 until the cell is stored and the
// lease released. N claimants — goroutines, `ompss-sweep -procs N`
// workers, or hand-launched `ompss-sweep -claim` workers on hosts
// sharing the store — partition one grid with the store as the only
// coordination substrate. Execute returns once every run is stored,
// whoever computed it, so each claimant's result is byte-identical to a
// single-process campaign.
type ClaimOptions struct {
	// Owner tags this claimant's leases and stats (default host:pid).
	Owner string
	// TTL is the lease staleness threshold (default DefaultLeaseTTL).
	// All claimants of one grid should agree on it. Cells a live peer
	// holds are revisited every min(100ms, TTL/4).
	TTL time.Duration
}

// ClaimStats accounts for how a campaign was satisfied. On success
// Simulated + Hits + Skipped == Runs: every run was either simulated
// (and stored) locally exactly once, loaded from a cached result, or
// priced out by the campaign budget. Claimed and Reclaimed stay zero
// outside claim mode; Skipped stays zero outside budgeted campaigns.
type ClaimStats struct {
	// Runs is the grid's total run count.
	Runs int
	// Claimed counts leases this claimant acquired.
	Claimed int
	// Simulated counts runs this claimant simulated and stored.
	Simulated int
	// Hits counts runs satisfied from the store (stored by a peer, a
	// previous campaign, or found stored under a freshly won lease).
	Hits int
	// Reclaimed counts stale leases this claimant broke.
	Reclaimed int
	// Skipped counts runs a campaign budget priced out (see
	// BudgetOptions); on a budgeted campaign Simulated + Hits + Skipped
	// == Runs. Always zero without a budget.
	Skipped int
	// Requeued counts tasks that fault injection forced this claimant's
	// own simulations to fail and re-queue (summed over its locally
	// simulated runs only, so a fleet's per-claimant counts add up to
	// the single-process total). Always zero without a chaos axis.
	Requeued int64
	// PreRuns counts this claimant's own faulted simulations that had to
	// pre-run their no-chaos baseline (see RunResult.PreRun). Zero when
	// every such cell's sibling ran earlier in this process.
	PreRuns int
}

func (s ClaimStats) String() string {
	out := fmt.Sprintf("runs=%d claimed=%d simulated=%d hits=%d reclaimed=%d",
		s.Runs, s.Claimed, s.Simulated, s.Hits, s.Reclaimed)
	if s.Skipped > 0 {
		out += fmt.Sprintf(" skipped=%d", s.Skipped)
	}
	if s.Requeued > 0 {
		out += fmt.Sprintf(" requeued=%d", s.Requeued)
	}
	if s.PreRuns > 0 {
		out += fmt.Sprintf(" preruns=%d", s.PreRuns)
	}
	return out
}

// Execute resolves the whole campaign and blocks until every cell is
// accounted for, returning the complete sweep result plus how it was
// satisfied. The first run (or store, or sink) error aborts the campaign
// and is returned.
func (c *Campaign) Execute() (*SweepResult, ClaimStats, error) {
	var stats ClaimStats
	start := time.Now()
	cells, grid, replicas, err := c.expand()
	if err != nil {
		return nil, stats, err
	}
	if c.Claim != nil && c.Store == nil {
		return nil, stats, errors.New("exp: claim campaigns need a Store (the store is the claim substrate)")
	}
	e := &engine{c: c, cells: cells, results: make([]RunResult, len(cells))}
	if c.Budget != nil {
		// The model is resolved per Execute, into the engine — never
		// written back into the caller's BudgetOptions, so a reused
		// options value prices every campaign with current store costs.
		e.budgetModel = c.Budget.Model
		if e.budgetModel == nil && c.Store != nil {
			m, err := LoadCostModel(c.Store)
			if err != nil {
				return nil, stats, err
			}
			e.budgetModel = m
		}
	}
	if stats, err = e.dispatch(); err != nil {
		return nil, stats, err
	}
	return &SweepResult{
		Grid:           grid,
		Runs:           e.results,
		Cells:          aggregate(e.results, replicas, skippedIndexes(e.skipped)),
		Skipped:        e.skipped,
		BudgetAdmitted: e.admitted,
		Simulated:      stats.Simulated,
		CacheHits:      stats.Hits,
		Requeued:       stats.Requeued,
		PreRuns:        stats.PreRuns,
		Wall:           time.Since(start),
	}, stats, nil
}

// expand resolves the campaign definition into its cells plus the grid
// and replica count the result will carry.
func (c *Campaign) expand() ([]PlanCell, Grid, int, error) {
	if len(c.Specs) > 0 && !c.Grid.isZero() {
		return nil, Grid{}, 0, errors.New("exp: Campaign takes a Grid or explicit Specs, not both")
	}
	cells, err := expand(c.Grid, c.Specs)
	if err != nil {
		return nil, Grid{}, 0, err
	}
	if len(c.Specs) > 0 {
		return cells, Grid{}, 1, nil
	}
	grid := c.Grid
	grid.fillDefaults()
	return cells, grid, grid.Replicas, nil
}

// expand turns an explicit spec list, or the grid when specs is empty,
// into cells in expansion order: every spec filled, validated and
// hashed once, before any simulation. The hash names the cell to the
// store, the planner, the budget and every event.
func expand(g Grid, specs []RunSpec) ([]PlanCell, error) {
	var err error
	if len(specs) > 0 {
		specs = slices.Clone(specs)
		err = checkSpecs(specs)
	} else {
		specs, err = g.filledRuns()
	}
	if err != nil {
		return nil, err
	}
	cells := make([]PlanCell, len(specs))
	for i, s := range specs {
		cells[i] = PlanCell{Index: i, Spec: s, Hash: s.Hash()}
	}
	return cells, nil
}

// checkSpecs fills every spec in place and validates it, so one bad
// spec fails the whole list.
func checkSpecs(specs []RunSpec) error {
	for i := range specs {
		specs[i].fillDefaults()
		if _, err := specs[i].validate(); err != nil {
			return err
		}
	}
	return nil
}

// engine is one Execute call's mutable state.
type engine struct {
	c       *Campaign
	cells   []PlanCell // expansion order: cells[i].Index == i
	results []RunResult
	skipped []SkippedRun // budget skips, expansion-index order
	// admitted counts the uncached cells the budget let through
	// (0 without a budget); budgetModel is the per-Execute resolution
	// of Budget.Model (nil without a budget).
	admitted    int
	budgetModel *CostModel

	emitMu sync.Mutex // serializes Observer delivery (see event.go)
	sinkMu sync.Mutex // serializes Sink.Consume
}

func (e *engine) emit(ev Event) {
	if e.c.Observer == nil {
		return
	}
	e.emitMu.Lock()
	defer e.emitMu.Unlock()
	e.c.Observer.OnEvent(ev)
}

// emitFault delivers the CellFaultInjected event for a freshly simulated
// cell whose chaos plan fired (see the delivery contract in event.go);
// no-fault and no-chaos cells deliver nothing.
func (e *engine) emitFault(idx int, rr RunResult) {
	if rr.FaultsInjected == 0 {
		return
	}
	e.emit(CellFaultInjected{
		Index:    idx,
		Hash:     e.cells[idx].Hash,
		Chaos:    rr.Spec.Chaos,
		Faults:   rr.FaultsInjected,
		Requeued: rr.TasksRequeued,
	})
}

func (e *engine) workers() int {
	n := e.c.Parallel
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > len(e.cells) {
		n = len(e.cells)
	}
	return n
}

// runner resolves the runner every simulation goes through. Only a
// campaign with a Sink traces (RunTraced); the others run untraced, as
// does a custom untraced runner (the test seam), and their nil tracers
// skip the sink.
func (e *engine) runner() func(RunSpec) (RunResult, *trace.Tracer, error) {
	if e.c.runTraced != nil {
		return e.c.runTraced
	}
	run := e.c.run
	if run == nil {
		if e.c.Sink != nil {
			return RunTraced
		}
		run = Run
	}
	return func(s RunSpec) (RunResult, *trace.Tracer, error) {
		rr, err := run(s)
		return rr, nil, err
	}
}

// satisfy resolves one cell: a fresh simulation fed to the sink and
// persisted back to the cache. Only a worker holding the cell's lease
// (claim mode) re-checks the store first — the exactly-once check,
// which turns a peer's earlier store into a hit. Pool mode simulates
// what its pre-scan missed without reading it again, so two
// uncoordinated pool-mode processes on one store can both simulate a
// cell. A store failure (disk full, unwritable dir) fails the campaign
// in both modes, because a silently unpersisted result is exactly what
// the cache exists to prevent.
func (e *engine) satisfy(j job, run func(RunSpec) (RunResult, *trace.Tracer, error)) (RunResult, bool, error) {
	cell := e.cells[j.idx]
	if j.lease != nil {
		if rr, ok := e.c.Store.LoadCell(cell.Spec, cell.Hash); ok {
			return rr, true, nil
		}
	}
	rr, tr, err := run(cell.Spec)
	if err != nil {
		return RunResult{}, false, err
	}
	if e.c.Sink != nil && tr != nil {
		e.sinkMu.Lock()
		serr := e.c.Sink.Consume(rr, tr)
		e.sinkMu.Unlock()
		if serr != nil {
			return RunResult{}, false, serr
		}
	}
	if e.c.Store != nil {
		if err := e.c.Store.StoreCell(rr); err != nil {
			return RunResult{}, false, err
		}
	}
	return rr, false, nil
}

// budget applies the campaign budget to the planned cells, records the
// skip list and delivers CellSkipped events in expansion-index order —
// before any execution, so a skip is always the cell's only event.
func (e *engine) budget(planned []PlanCell) []PlanCell {
	admitted, skipped := admitBudget(e.c.Budget, e.budgetModel, planned)
	e.skipped = skipped
	if e.c.Budget != nil {
		e.admitted = len(admitted)
	}
	for _, s := range skipped {
		e.emit(CellSkipped{Index: s.Index, Spec: s.Spec, Hash: s.Hash, EstSec: s.EstSec, Known: s.Known})
	}
	return admitted
}

// skippedIndexes is the skip list as a set, for the aggregation step.
func skippedIndexes(skipped []SkippedRun) map[int]bool {
	if len(skipped) == 0 {
		return nil
	}
	set := make(map[int]bool, len(skipped))
	for _, s := range skipped {
		set[s.Index] = true
	}
	return set
}

// job is one dispatched cell; lease and stopHB are set in claim mode
// only.
type job struct {
	idx    int
	lease  StoreLease
	stopHB chan struct{}
}

// outcome is how one cell settled; warm marks a pre-scan hit.
type outcome struct {
	idx       int
	rr        RunResult
	hit, warm bool
	err       error
}

// prescan looks every cell up in the store before anything is planned.
// The lookups are independent, so the cells are split into one
// contiguous slice per worker and the slices resolve at once: one
// LoadCells call each when the store is a CellBatchLoader, one LoadCell
// per cell otherwise. Every cell is read exactly once. A hit's result
// lands in e.results (cell indexes are positions), and the returned
// flags are aligned with e.cells; with no store they are nil. With one
// worker or no store, no goroutine starts.
func (e *engine) prescan() []bool {
	if e.c.Store == nil {
		return nil
	}
	hits := make([]bool, len(e.cells))
	n := e.workers()
	scan := func(k int) {
		lo, hi := k*len(e.cells)/n, (k+1)*len(e.cells)/n
		e.lookup(e.cells[lo:hi], e.results[lo:hi], hits[lo:hi])
	}
	if n == 1 {
		scan(0)
		return hits
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for k := range n {
		go func() {
			defer wg.Done()
			scan(k)
		}()
	}
	wg.Wait()
	return hits
}

// lookup answers one pre-scan slice from the store into rrs and hits,
// which are aligned with cells.
func (e *engine) lookup(cells []PlanCell, rrs []RunResult, hits []bool) {
	if bl, ok := e.c.Store.(CellBatchLoader); ok {
		got, in := bl.LoadCells(cells)
		copy(rrs, got)
		copy(hits, in)
		return
	}
	for i, c := range cells {
		rrs[i], hits[i] = e.c.Store.LoadCell(c.Spec, c.Hash)
	}
}

// dispatch executes the campaign, in either mode. A store pre-scan
// (prescan: one slice of the cells per worker, resolved concurrently)
// settles the already-cached cells (committed in expansion order, so
// the warm CellCached events are deterministic), the planner orders the
// rest, the budget admits what fits, and up to Parallel workers resolve
// the admitted cells through satisfy. Every outcome is committed on the
// dispatching goroutine by expansion index, so outputs are independent
// of Parallel, of the plan, and of which claimant simulated a cell.
//
// Claim mode adds one lease step before a cell is dispatched: a store
// re-check (a peer may have stored it meanwhile), Store.Claim, and a
// heartbeat from acquisition. A cell a live peer holds is revisited
// after a poll, until the peer stores it or its lease goes stale.
// Exactly-once simulation holds because a cell only runs under a held
// lease, after satisfy's store re-check inside that lease: a peer that
// stored the cell first turns the claim into a hit. Pool mode has no
// lease and no re-check, so it is exactly-once only within one
// process: a pre-scan miss is simulated.
func (e *engine) dispatch() (ClaimStats, error) {
	stats := ClaimStats{Runs: len(e.cells)}
	var firstErr error
	commit := func(o outcome) {
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			return
		}
		e.results[o.idx] = o.rr
		if o.hit {
			stats.Hits++
			e.emit(CellCached{Index: o.idx, Result: o.rr, Hash: e.cells[o.idx].Hash, Warm: o.warm})
			return
		}
		stats.Simulated++
		stats.Requeued += o.rr.TasksRequeued
		if o.rr.PreRun {
			stats.PreRuns++
		}
		e.emitFault(o.idx, o.rr)
		e.emit(CellDone{Index: o.idx, Result: o.rr, Hash: e.cells[o.idx].Hash})
	}

	// The slices resolve concurrently; their hits commit here, one by
	// one in expansion order.
	hits := e.prescan()
	pending := make([]PlanCell, 0, len(e.cells))
	for i, cell := range e.cells {
		if hits != nil && hits[i] {
			commit(outcome{idx: cell.Index, rr: e.results[i], hit: true, warm: true})
			continue
		}
		pending = append(pending, cell)
	}
	planned, err := applyPlan(e.c.Planner, pending)
	if err != nil {
		return stats, err
	}
	// The budget prices cells out of *this* campaign: a budgeted claimant
	// never waits on cells it refused to pay for, even though a peer with
	// a different cost model may still run them.
	queue := e.budget(planned)
	stats.Skipped = len(e.skipped)
	if len(queue) == 0 {
		return stats, nil
	}

	run := e.runner()
	workers := min(e.workers(), len(queue))
	// Both channels hold at most one entry per worker slot, so neither
	// the dispatcher nor a worker ever blocks on the other.
	jobs := make(chan job, workers)
	done := make(chan outcome, workers)
	defer close(jobs)
	for w := 0; w < workers; w++ {
		go func() {
			for j := range jobs {
				cell := e.cells[j.idx]
				e.emit(CellStarted{Index: cell.Index, Spec: cell.Spec, Hash: cell.Hash})
				rr, hit, err := e.satisfy(j, run)
				if j.lease != nil {
					close(j.stopHB)
					if relErr := j.lease.Release(); err == nil {
						err = relErr
					}
				}
				done <- outcome{idx: j.idx, rr: rr, hit: hit, err: err}
			}
		}()
	}

	var owner string
	var ttl, heartbeat, poll time.Duration
	if co := e.c.Claim; co != nil {
		owner, ttl = co.Owner, co.TTL
		if owner == "" {
			owner = defaultOwner()
		}
		if ttl <= 0 {
			ttl = DefaultLeaseTTL
		}
		heartbeat = ttl / 4
		if heartbeat <= 0 {
			// A sub-4ns TTL truncates ttl/4 to zero, which would panic
			// time.NewTicker; such leases are stale on arrival anyway.
			heartbeat = time.Millisecond
		}
		poll = min(100*time.Millisecond, heartbeat)
	}
	var (
		held     []PlanCell // leased by live peers, in plan order
		revisit  time.Time  // when held cells are scanned again
		inflight int
	)
	for {
		// Held cells precede every queued cell in plan order, so putting
		// them back in front keeps each pass in plan order.
		if len(held) > 0 && !time.Now().Before(revisit) {
			queue, held = append(held, queue...), nil
		}
		for len(queue) > 0 && inflight < workers && firstErr == nil {
			cell := queue[0]
			queue = queue[1:]
			j := job{idx: cell.Index}
			if e.c.Claim != nil {
				if rr, ok := e.c.Store.LoadCell(cell.Spec, cell.Hash); ok {
					commit(outcome{idx: cell.Index, rr: rr, hit: true})
					continue
				}
				lease, reclaimed, err := e.c.Store.Claim(cell.Hash, owner, ttl)
				if reclaimed {
					stats.Reclaimed++
					e.emit(LeaseReclaimed{Hash: cell.Hash, By: owner})
				}
				if err != nil {
					commit(outcome{err: err})
					break
				}
				if lease == nil {
					if len(held) == 0 {
						revisit = time.Now().Add(poll)
					}
					held = append(held, cell)
					continue
				}
				stats.Claimed++
				e.emit(LeaseClaimed{Index: cell.Index, Hash: cell.Hash, Owner: owner})
				// The heartbeat runs from acquisition until the worker
				// releases the lease.
				j.lease, j.stopHB = lease, make(chan struct{})
				go refreshLease(lease, heartbeat, j.stopHB)
			}
			jobs <- j
			inflight++
		}
		if firstErr != nil {
			queue, held = nil, nil // dispatch nothing new; drain in-flight cells
		}
		if inflight == 0 && len(queue) == 0 && len(held) == 0 {
			return stats, firstErr
		}
		var wake <-chan time.Time
		if len(held) > 0 && inflight < workers {
			wake = time.After(time.Until(revisit))
		}
		select {
		case o := <-done:
			inflight--
			commit(o)
		case <-wake:
		}
	}
}

// refreshLease heartbeats a held lease every period until stop closes.
// Lost-lease errors are benign (see StoreLease.Refresh).
func refreshLease(l StoreLease, period time.Duration, stop <-chan struct{}) {
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			l.Refresh()
		}
	}
}
