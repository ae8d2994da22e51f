package exp

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// CostModel estimates the wall-clock simulation cost of a RunSpec from
// costs recorded by previous campaigns (stored cells carry a wall_s
// field; see DirStore.StoreCell). Estimates are advisory — they order work
// (CostPlanner), never change results — so the model is deliberately
// coarse: it averages observations at two granularities and answers from
// the most specific one that has data.
//
//	exact:  app | size | scheduler | machine | smp | gpus
//	coarse: app | size
//
// The exact key pins the axes that dominate simulation wall cost; the
// extension knobs, noise sigma and seed are deliberately folded
// together — they perturb the schedule, not the amount of simulation
// work, and keying on them would shatter the sample pool into
// single-observation buckets. The coarse key captures the dominant cost
// driver alone (the application's task graph at a problem size), so a
// campaign that grows a new scheduler or machine axis still gets a
// usable estimate from cells of the same app.
type CostModel struct {
	exact  map[costKey]*costObs
	coarse map[coarseKey]*costObs
}

type costObs struct {
	sum float64
	n   int
}

func (o *costObs) mean() float64 { return o.sum / float64(o.n) }

// costKey is the exact granularity, coarseKey the coarse one; both are
// taken from the filled spec.
type costKey struct {
	app, scheduler string
	size           Size
	machine        MachineSpec
	smp, gpus      int
}

type coarseKey struct {
	app  string
	size Size
}

func costKeys(s RunSpec) (costKey, coarseKey) {
	s.fillDefaults()
	return costKey{app: s.App, scheduler: s.Scheduler, size: s.Size, machine: s.Machine, smp: s.SMPWorkers, gpus: s.GPUs},
		coarseKey{app: s.App, size: s.Size}
}

// NewCostModel returns an empty model (every estimate misses).
func NewCostModel() *CostModel {
	return &CostModel{exact: map[costKey]*costObs{}, coarse: map[coarseKey]*costObs{}}
}

// Observe folds one recorded cost (seconds of host time) into the model.
// Non-positive costs are ignored: zero is the encoding of "not recorded"
// in pre-cost cache cells.
func (m *CostModel) Observe(spec RunSpec, wallSec float64) {
	if wallSec <= 0 {
		return
	}
	exact, coarse := costKeys(spec)
	observe(m.exact, exact, wallSec)
	observe(m.coarse, coarse, wallSec)
}

func observe[K comparable](agg map[K]*costObs, key K, wallSec float64) {
	o := agg[key]
	if o == nil {
		o = &costObs{}
		agg[key] = o
	}
	o.sum += wallSec
	o.n++
}

// Estimate returns the expected wall cost of a spec in seconds, false if
// the model has no observation at any granularity.
func (m *CostModel) Estimate(spec RunSpec) (float64, bool) {
	exact, coarse := costKeys(spec)
	if o := m.exact[exact]; o != nil {
		return o.mean(), true
	}
	if o := m.coarse[coarse]; o != nil {
		return o.mean(), true
	}
	return 0, false
}

// LoadCostModel folds a store's manifest snapshot into a cost model —
// no cell file is read. Cells stored before costs existed carry WallSec
// 0, which Observe ignores; the model stays best-effort by design, and a
// campaign with no usable costs simply plans in expansion order. The
// fold runs in sorted-hash order: float accumulation is order-dependent
// in its last ulp, and budget admission (a pure function of the model)
// must not flicker with map iteration order.
func LoadCostModel(store CellStore) (*CostModel, error) {
	snap, err := store.Snapshot()
	if err != nil {
		return nil, err
	}
	hashes := make([]string, 0, len(snap.Cells))
	for h := range snap.Cells {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	m := NewCostModel()
	for _, h := range hashes {
		e := snap.Cells[h]
		m.Observe(e.Spec, e.WallSec)
	}
	return m, nil
}

// costCSVHeader is the stable column set of WriteCostCSV: one row per
// run (not per cell — costs are per simulation), spec axes first, then
// how the run was satisfied and what it cost.
var costCSVHeader = []string{
	"app", "size", "scheduler", "machine", "smp", "gpus",
	"lambda", "size_tolerance", "ewma_alpha", "locality",
	"noise", "seed", "source", "wall_s",
}

// WriteCostCSV renders each run's recorded wall-clock simulation cost as
// CSV, one row per run in expansion order. Unlike WriteCSV this output
// is an execution fact, not a result: wall costs vary run to run and
// cached rows carry the cost recorded when the cell was first simulated
// (empty when the cell predates cost recording). It exists for cost
// dashboards and for auditing what CostPlanner will see. Budget-skipped
// runs have no cost to report and are omitted (see WriteSkipReport for
// their estimates).
func WriteCostCSV(w io.Writer, res *SweepResult) error {
	skipped := skippedIndexes(res.Skipped)
	cw := csv.NewWriter(w)
	if err := cw.Write(costCSVHeader); err != nil {
		return err
	}
	for i, r := range res.Runs {
		if skipped[i] {
			continue
		}
		s := r.Spec
		source := "simulated"
		if r.Cached {
			source = "cached"
		}
		wall := ""
		if r.Wall > 0 {
			wall = ftoa(r.Wall.Seconds())
		}
		row := []string{
			s.App, string(s.Size), s.Scheduler, string(s.Machine),
			strconv.Itoa(s.SMPWorkers), strconv.Itoa(s.GPUs),
			strconv.Itoa(s.Lambda), ftoa(s.SizeTolerance), ftoa(s.EWMAAlpha),
			strconv.FormatBool(s.LocalityAware),
			ftoa(s.NoiseSigma), strconv.FormatInt(s.Seed, 10),
			source, wall,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCostJSON renders the per-run costs as indented JSON (same data as
// WriteCostCSV, same execution-fact caveats, skipped runs omitted).
func WriteCostJSON(w io.Writer, res *SweepResult) error {
	type costRow struct {
		Spec    RunSpec `json:"spec"`
		Cached  bool    `json:"cached"`
		WallSec float64 `json:"wall_s"`
	}
	skipped := skippedIndexes(res.Skipped)
	rows := make([]costRow, 0, len(res.Runs))
	for i, r := range res.Runs {
		if skipped[i] {
			continue
		}
		rows = append(rows, costRow{Spec: r.Spec, Cached: r.Cached, WallSec: r.Wall.Seconds()})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
