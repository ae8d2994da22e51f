package exp

import (
	"fmt"
	"sort"
)

// PlanCell is one cell of a campaign: its position in the campaign's
// expansion order, the filled and validated spec, and the spec's content
// hash. Planners receive the cells still uncached.
type PlanCell struct {
	Index int
	Spec  RunSpec
	Hash  string
}

// Planner orders the cells a campaign still has to run. It only chooses
// the execution (and, in claim mode, the lease-claim) order: results are
// committed by expansion index, so every planner renders byte-identical
// CSV/JSON. Plan must return a permutation of its input; the engine
// rejects anything else.
type Planner interface {
	// Name identifies the planner ("order", "cost") in errors and docs.
	Name() string
	// Plan returns the cells in execution order. The input slice is the
	// planner's to reorder (the engine passes a private copy).
	Plan(pending []PlanCell) []PlanCell
}

// OrderPlanner is the default: run cells in grid-expansion order,
// exactly as campaigns did before planners existed.
type OrderPlanner struct{}

// Name implements Planner.
func (OrderPlanner) Name() string { return "order" }

// Plan implements Planner.
func (OrderPlanner) Plan(pending []PlanCell) []PlanCell { return pending }

// CostPlanner runs the most expensive cells first, using wall-cost
// estimates from a CostModel (recorded per cell by previous campaigns —
// see LoadCostModel). Longest-first claiming fixes the straggler
// serialization of expansion order: a fleet no longer idles while the
// last claimant grinds through the biggest cell it happened to draw
// late.
//
// Cells the model cannot estimate run first, in expansion order: an
// unknown cost is a scheduling risk, and running it early both bounds
// the straggler window and records its cost for the next campaign. With
// no estimates at all (a cold cache, or no cache) the plan therefore
// degrades to exactly the expansion order.
type CostPlanner struct {
	// Model provides the estimates; nil behaves like an empty model.
	Model *CostModel
}

// Name implements Planner.
func (CostPlanner) Name() string { return "cost" }

// Plan implements Planner.
func (p CostPlanner) Plan(pending []PlanCell) []PlanCell {
	type scored struct {
		cost  float64
		known bool
	}
	scores := make([]scored, len(pending))
	for i, c := range pending {
		if p.Model != nil {
			if est, ok := p.Model.Estimate(c.Spec); ok {
				scores[i] = scored{cost: est, known: true}
			}
		}
	}
	order := make([]int, len(pending))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := scores[order[a]], scores[order[b]]
		if sa.known != sb.known {
			return !sa.known // unknown cost first
		}
		return sa.cost > sb.cost // then most expensive first
	})
	out := make([]PlanCell, len(pending))
	for i, j := range order {
		out[i] = pending[j]
	}
	return out
}

// NewPlanner resolves a planner name (the ompss-sweep -plan flag):
// "order" (or "") is the expansion-order default; "cost" loads a cost
// model from the campaign store (nil store, or a store with no recorded
// costs, degrades to expansion order).
func NewPlanner(name string, store CellStore) (Planner, error) {
	switch name {
	case "", "order":
		return OrderPlanner{}, nil
	case "cost":
		var model *CostModel
		if store != nil {
			m, err := LoadCostModel(store)
			if err != nil {
				return nil, err
			}
			model = m
		}
		return CostPlanner{Model: model}, nil
	}
	return nil, fmt.Errorf("exp: unknown planner %q (have order, cost)", name)
}

// applyPlan runs the planner and verifies the result is a permutation of
// the input — a planner that drops or duplicates cells would silently
// corrupt a campaign, so the engine refuses it loudly instead.
func applyPlan(p Planner, pending []PlanCell) ([]PlanCell, error) {
	if p == nil || len(pending) <= 1 {
		return pending, nil
	}
	in := make([]PlanCell, len(pending))
	copy(in, pending)
	out := p.Plan(in)
	if len(out) != len(pending) {
		return nil, fmt.Errorf("exp: planner %q returned %d cells, want %d",
			p.Name(), len(out), len(pending))
	}
	want := make(map[int]bool, len(pending))
	for _, c := range pending {
		want[c.Index] = true
	}
	for _, c := range out {
		if !want[c.Index] {
			return nil, fmt.Errorf("exp: planner %q dropped or duplicated cells (index %d)",
				p.Name(), c.Index)
		}
		delete(want, c.Index)
	}
	return out, nil
}
