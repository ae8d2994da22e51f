package exp

import "fmt"

// replicaSeedStride spaces replica seeds so adjacent cells never share a
// jitter stream even if a caller picks adjacent base seeds.
const replicaSeedStride = 1_000_003

// Grid declares a sweep: the cartesian product of every axis, replicated
// Replicas times with distinct seeds. Expansion order is fixed (apps
// outermost, replicas innermost), so run indexes — and therefore all
// outputs — are independent of how many workers execute the sweep.
//
// The machine and extension axes are optional: leaving one empty sweeps
// only its default value (single node, paper-baseline knobs) and keeps
// the grid's serialized form — and every cached cell hash — identical to
// a grid written before the axis existed.
type Grid struct {
	Apps       []string      `json:"apps"`
	Schedulers []string      `json:"schedulers"`
	Machines   []MachineSpec `json:"machines,omitempty"`
	SMPWorkers []int         `json:"smp"`
	GPUs       []int         `json:"gpus"`
	// Versioning-extension knob axes (see RunSpec): empty means the
	// single baseline value (0 / 0 / 0 / false).
	Lambdas        []int     `json:"lambdas,omitempty"`
	SizeTolerances []float64 `json:"size_tolerances,omitempty"`
	EWMAAlphas     []float64 `json:"ewma_alphas,omitempty"`
	LocalityAware  []bool    `json:"locality_aware,omitempty"`
	// Chaos is the fault-injection axis: each value is a chaos spec (see
	// internal/chaos; "" or "none" = no faults). Empty sweeps only the
	// no-chaos default. Clauses naming devices a cell's machine lacks are
	// inert, so one chaos axis can cross varying GPU counts.
	Chaos []string  `json:"chaos,omitempty"`
	Noise []float64 `json:"noise"`
	Size  Size      `json:"size"`
	// Replicas is the number of seed replicas per cell (default 1).
	Replicas int `json:"replicas"`
	// BaseSeed derives replica seeds: seed(i) = BaseSeed + i*stride.
	// 0 selects the default of 1 (a zero base cannot be expressed;
	// pick any other seed for an independent campaign).
	BaseSeed int64 `json:"base_seed"`
}

// isZero reports whether no field was set at all — the test Campaign
// uses to reject a definition that sets both Grid and Specs (a zero Grid
// is a valid campaign on its own: it defaults to the flagship 96-run
// grid).
func (g Grid) isZero() bool {
	return len(g.Apps) == 0 && len(g.Schedulers) == 0 && len(g.Machines) == 0 &&
		len(g.SMPWorkers) == 0 && len(g.GPUs) == 0 &&
		len(g.Lambdas) == 0 && len(g.SizeTolerances) == 0 &&
		len(g.EWMAAlphas) == 0 && len(g.LocalityAware) == 0 && len(g.Chaos) == 0 &&
		len(g.Noise) == 0 && g.Size == "" && g.Replicas == 0 && g.BaseSeed == 0
}

func (g *Grid) fillDefaults() {
	if len(g.Apps) == 0 {
		g.Apps = DefaultApps()
	}
	if len(g.Schedulers) == 0 {
		g.Schedulers = DefaultSchedulers()
	}
	if len(g.SMPWorkers) == 0 {
		g.SMPWorkers = []int{2, 4}
	}
	if len(g.GPUs) == 0 {
		g.GPUs = []int{1, 2}
	}
	if len(g.Noise) == 0 {
		g.Noise = []float64{0.05}
	}
	if g.Size == "" {
		g.Size = SizeTiny
	}
	if g.Replicas <= 0 {
		g.Replicas = 1
	}
	if g.BaseSeed == 0 {
		g.BaseSeed = 1
	}
}

// The optional axes keep their empty encoding (so old grids serialize —
// and hash — unchanged); expansion reads them through these accessors.
func (g Grid) machines() []MachineSpec {
	if len(g.Machines) == 0 {
		return []MachineSpec{MachineNode}
	}
	return g.Machines
}

func (g Grid) lambdas() []int {
	if len(g.Lambdas) == 0 {
		return []int{0}
	}
	return g.Lambdas
}

func (g Grid) sizeTolerances() []float64 {
	if len(g.SizeTolerances) == 0 {
		return []float64{0}
	}
	return g.SizeTolerances
}

func (g Grid) ewmaAlphas() []float64 {
	if len(g.EWMAAlphas) == 0 {
		return []float64{0}
	}
	return g.EWMAAlphas
}

func (g Grid) localityAware() []bool {
	if len(g.LocalityAware) == 0 {
		return []bool{false}
	}
	return g.LocalityAware
}

func (g Grid) chaosSpecs() []string {
	if len(g.Chaos) == 0 {
		return []string{""}
	}
	return g.Chaos
}

// Validate checks the grid before any simulation starts, so a typo
// fails fast instead of 40 cells in. Only the SMP axis is checked as an
// axis — filling would turn a non-positive entry into 1, which no filled
// spec can reveal; every expanded spec then passes RunSpec.validate, the
// gate campaigns, watchers and bare runs share.
func (g Grid) Validate() error {
	_, err := g.filledRuns()
	return err
}

// filledRuns is Runs with every spec filled and validated.
func (g Grid) filledRuns() ([]RunSpec, error) {
	g.fillDefaults()
	for _, n := range g.SMPWorkers {
		if n <= 0 {
			return nil, fmt.Errorf("exp: grid SMP worker count %d must be positive", n)
		}
	}
	specs := g.Runs()
	if err := checkSpecs(specs); err != nil {
		return nil, err
	}
	return specs, nil
}

// NumCells is the number of distinct (app, scheduler, machine, smp,
// gpus, knobs, noise) cells; each runs Replicas times.
func (g Grid) NumCells() int {
	g.fillDefaults()
	return len(g.Apps) * len(g.Schedulers) * len(g.machines()) *
		len(g.SMPWorkers) * len(g.GPUs) *
		len(g.lambdas()) * len(g.sizeTolerances()) * len(g.ewmaAlphas()) * len(g.localityAware()) *
		len(g.chaosSpecs()) * len(g.Noise)
}

// NumRuns is the total number of simulation runs the grid expands to.
func (g Grid) NumRuns() int { return g.NumCells() * max(1, g.Replicas) }

// Runs expands the grid into its run specs in canonical order: apps
// outermost, then schedulers, machines, SMP, GPUs, the extension knobs,
// chaos, noise, and seed replicas innermost (so one cell's replicas
// stay adjacent for aggregation).
func (g Grid) Runs() []RunSpec {
	g.fillDefaults()
	specs := make([]RunSpec, 0, g.NumRuns())
	for _, app := range g.Apps {
		for _, sched := range g.Schedulers {
			for _, mach := range g.machines() {
				for _, smp := range g.SMPWorkers {
					for _, gpus := range g.GPUs {
						for _, lambda := range g.lambdas() {
							for _, tol := range g.sizeTolerances() {
								for _, alpha := range g.ewmaAlphas() {
									for _, loc := range g.localityAware() {
										for _, cspec := range g.chaosSpecs() {
											for _, noise := range g.Noise {
												for rep := 0; rep < g.Replicas; rep++ {
													specs = append(specs, RunSpec{
														App:           app,
														Size:          g.Size,
														Scheduler:     sched,
														Machine:       mach,
														SMPWorkers:    smp,
														GPUs:          gpus,
														Lambda:        lambda,
														SizeTolerance: tol,
														EWMAAlpha:     alpha,
														LocalityAware: loc,
														Chaos:         cspec,
														NoiseSigma:    noise,
														Seed:          g.BaseSeed + int64(rep)*replicaSeedStride,
													})
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return specs
}
