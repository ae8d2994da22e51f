package exp

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// BudgetOptions bound a campaign's estimated spend: cells are admitted
// in the planner's order while the running total of cost-model
// estimates stays within Limit; from the first cell whose admission
// would exceed it, this claimant stops claiming new cells and reports
// the rest as skipped (CellSkipped events, SweepResult.Skipped).
//
// Semantics the rest of the system relies on:
//
//   - Spend is charged at admission, from estimates, never from actual
//     wall clocks: the admitted set is a pure function of (plan order,
//     cost model, Limit), so the skip report is deterministic
//     and identical at any Parallel, and the budget can be enforced
//     before execution rather than raced against it. "Estimated spend
//     of completed + in-flight work" and "estimated spend of admitted
//     work" are the same number under this rule.
//   - The budget affects only which cells run, never their bytes: a
//     skipped cell is simply left uncached, and a later unbudgeted
//     campaign over the same cache completes the grid byte-identically
//     to a never-budgeted run (CI-asserted).
//   - Cells the model cannot estimate are admitted free while the
//     budget is not yet exhausted: an unknown cost cannot be budgeted,
//     and running it records the cost that makes the next campaign's
//     budget bite. CostPlanner schedules exactly those cells first, so
//     the budgeted CLI pairs the two. Once spend reaches the limit
//     nothing further is admitted, unknown or not.
//   - The stop is a hard stop, not best-fit packing: under CostPlanner
//     order the remaining cells are cheaper than the one that
//     overflowed, but admitting them would make the skip set depend on
//     subtle estimate orderings; "everything after the first overflow"
//     is the explainable rule.
type BudgetOptions struct {
	// Limit is the campaign's spend ceiling, in estimated simulation
	// seconds (the cost model's unit: single-run wall cost, so the
	// budget bounds serial simulation work, independent of Parallel).
	// A non-positive limit admits nothing: spend starts at or past the
	// ceiling, and the hard stop fires on the first cell. The -procs
	// coordinator renders with a zero limit, so after its worker fleet
	// returns it reports every still-uncached cell as skipped instead
	// of simulating it.
	Limit time.Duration
	// Model supplies the estimates. Nil with a cached campaign builds
	// the model from the cache at every Execute (never written back
	// here, so a reused BudgetOptions prices each campaign with the
	// cache's current costs); nil without a cache is an empty model
	// (every cell unknown, so everything is admitted).
	Model *CostModel
}

// SkippedRun is one cell a budgeted campaign declined to run.
type SkippedRun struct {
	// Index is the run's position in the campaign's expansion order.
	Index int
	Spec  RunSpec
	Hash  string
	// EstSec is the cost-model estimate that priced the cell out
	// (0 with Known false only when an unknown-cost cell was cut by
	// the hard stop).
	EstSec float64
	Known  bool
}

// admitBudget splits the planned cells into the admitted prefix and the
// skipped rest, pricing them with the given model (resolved by the
// engine; may differ from b.Model, which is only the caller's
// override). A nil budget admits everything. The skipped list is
// returned in expansion-index order (the report order), regardless of
// the plan.
func admitBudget(b *BudgetOptions, model *CostModel, planned []PlanCell) (admitted []PlanCell, skipped []SkippedRun) {
	if b == nil {
		return planned, nil
	}
	limit := b.Limit.Seconds()
	spent := 0.0
	admitting := true
	admitted = planned[:0:0]
	for _, cell := range planned {
		est, known := 0.0, false
		if model != nil {
			est, known = model.Estimate(cell.Spec)
		}
		// spent < limit keeps free (unknown-cost) cells from slipping in
		// once the budget is exactly exhausted, or when it is zero.
		if admitting && spent < limit && spent+est <= limit {
			admitted = append(admitted, cell)
			spent += est
			continue
		}
		admitting = false // hard stop: nothing after the first overflow
		skipped = append(skipped, SkippedRun{
			Index: cell.Index, Spec: cell.Spec, Hash: cell.Hash,
			EstSec: est, Known: known,
		})
	}
	sort.Slice(skipped, func(i, j int) bool { return skipped[i].Index < skipped[j].Index })
	return admitted, skipped
}

// WriteSkipReport renders a budgeted campaign's skipped cells: one
// summary line, which prints limit, plus one line per skipped run in
// expansion order. The report is deterministic for a fixed grid, plan
// and cost model — CI greps it, and operators diff it between budget
// levels.
func WriteSkipReport(w io.Writer, res *SweepResult, limit time.Duration) error {
	var estSum float64
	for _, s := range res.Skipped {
		estSum += s.EstSec
	}
	// admitted counts only cells the budget actually let through — cache
	// hits cost nothing and are not part of the admission decision.
	if _, err := fmt.Fprintf(w, "budget: limit=%v admitted=%d skipped=%d est_skipped=%ss\n",
		limit, res.BudgetAdmitted, len(res.Skipped), ftoa(estSum)); err != nil {
		return err
	}
	for _, s := range res.Skipped {
		est := "unknown"
		if s.Known {
			est = ftoa(s.EstSec) + "s"
		}
		if _, err := fmt.Fprintf(w, "budget: skip idx=%d est=%s %v\n", s.Index, est, s.Spec); err != nil {
			return err
		}
	}
	return nil
}
