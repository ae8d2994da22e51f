// Package exp is the experiment-sweep subsystem: it expands a
// declarative grid of scenarios (application x scheduler x machine shape
// x noise x seed replica) into independent simulation runs, executes
// them concurrently on a bounded worker pool, and aggregates every grid
// cell's replicas into percentile/confidence summaries. Campaign is the
// single entry point.
//
// Each run owns a private sim.Engine, which is single-threaded and
// deterministic, so the fan-out is embarrassingly parallel: results
// depend only on the RunSpec, never on worker interleaving. Campaigns
// scale past one process through a content-addressed CellStore
// (Campaign.Store) and claim mode (Campaign.Claim), whose leases let
// independent claimant processes — local, on hosts sharing a
// filesystem, or talking to an ompss-sweepd coordinator — partition one
// grid exactly-once. The cmd/ompss-sweep CLI drives campaigns through
// this package, and the paper experiments in internal/harness are thin
// wrappers over Run.
package exp

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/ompss"
)

// Size selects a problem-size tier for every application.
type Size string

const (
	// SizeTiny is sweep scale: seconds of virtual time, thousands of
	// runs per minute. The default for ompss-sweep campaigns and tests.
	SizeTiny Size = "tiny"
	// SizeQuick matches the harness -quick sizes (CI scale).
	SizeQuick Size = "quick"
	// SizeFull matches the paper's evaluation sizes.
	SizeFull Size = "full"
)

// ParseSize validates a size name. The empty string is rejected:
// defaulting is a policy decision that belongs to the caller (the CLI
// flag defaults to "tiny" explicitly, RunSpec.fillDefaults fills
// SizeTiny), not to the parser, where a silent fallback once hid typos.
func ParseSize(s string) (Size, error) {
	switch Size(s) {
	case SizeTiny, SizeQuick, SizeFull:
		return Size(s), nil
	case "":
		return "", fmt.Errorf("exp: empty size (have tiny, quick, full)")
	}
	return "", fmt.Errorf("exp: unknown size %q (have tiny, quick, full)", s)
}

// App is a sweepable application: a named builder that declares task
// types and the master function on a fresh runtime at a given size.
type App struct {
	Name string
	// MinGPUs guards shapes the app cannot run on: most apps' main
	// implementations are CUDA, so non-versioning schedulers would
	// deadlock without a GPU worker.
	MinGPUs int
	Build   func(r *ompss.Runtime, size Size) error
}

// LookupApp finds an application in the app table.
func LookupApp(name string) (App, bool) {
	for _, a := range appTable {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// AppNames lists the applications, sorted.
func AppNames() []string {
	out := make([]string, len(appTable))
	for i, a := range appTable {
		out[i] = a.Name
	}
	sort.Strings(out)
	return out
}

// RunSpec fully determines one simulation run: the same spec always
// produces the same result, byte for byte. Every field is a plain value
// (no pointers), so specs are comparable, JSON-serializable, and have a
// stable content hash (see Hash) that keys the on-disk result cache.
type RunSpec struct {
	// App names an application (see AppNames).
	App string `json:"app"`
	// Size selects the problem-size tier (default tiny).
	Size Size `json:"size"`
	// Scheduler is the policy name ("bf", "dep", "affinity", "wf",
	// "random" or "versioning"; default versioning).
	Scheduler string `json:"scheduler"`
	// Machine is the enumerable machine shape: MachineNode (default) or a
	// cluster form like "cluster:2x6+1g" (see ParseMachineSpec).
	Machine MachineSpec `json:"machine,omitempty"`
	// SMPWorkers and GPUs shape the simulated machine. On cluster shapes
	// they are machine-wide totals; the remote nodes' share is fixed by
	// the shape and the remainder sizes node 0.
	SMPWorkers int `json:"smp"`
	GPUs       int `json:"gpus"`
	// Versioning-extension knobs (ignored by non-versioning schedulers).
	// The zero values select the paper's baseline behaviour: Lambda 0
	// means the default learning threshold of 3, SizeTolerance 0 exact
	// size matching, EWMAAlpha 0 the arithmetic mean, LocalityAware false
	// the plain earliest-executor policy.
	Lambda        int     `json:"lambda,omitempty"`
	SizeTolerance float64 `json:"size_tolerance,omitempty"`
	EWMAAlpha     float64 `json:"ewma_alpha,omitempty"`
	LocalityAware bool    `json:"locality_aware,omitempty"`
	// NoiseSigma is the log-normal execution-time jitter (0 = exact).
	NoiseSigma float64 `json:"noise"`
	// Seed seeds the jitter RNG (and any seedable scheduler).
	Seed int64 `json:"seed"`
	// Chaos is a fault-injection spec (see internal/chaos): adversarial
	// machine dynamics — GPU dropout, throttling, stragglers, blackouts —
	// scheduled over virtual time. Empty means no faults. Percent points
	// (e.g. "gpu1:drop@40%") are relative to the cell's own no-chaos
	// makespan: the Elapsed of the same spec with Chaos "", taken from
	// the process's horizon table when this process already ran that
	// spec, and from a deterministic baseline pre-run otherwise.
	Chaos string `json:"chaos,omitempty"`
}

// Config is the shared run-spec -> ompss.Config plumbing every
// experiment goes through (the harness wrappers included). It fails if
// the machine shape cannot host the worker counts.
func (s RunSpec) Config() (ompss.Config, error) {
	s.fillDefaults()
	mach, err := s.Machine.Materialize(s.SMPWorkers, s.GPUs)
	if err != nil {
		return ompss.Config{}, err
	}
	return s.config(mach), nil
}

// config is Config on a filled spec whose machine is already
// materialized.
func (s RunSpec) config(mach *ompss.Machine) ompss.Config {
	return ompss.Config{
		Machine:       mach,
		Scheduler:     s.Scheduler,
		SMPWorkers:    s.SMPWorkers,
		GPUs:          s.GPUs,
		Lambda:        s.Lambda,
		SizeTolerance: s.SizeTolerance,
		EWMAAlpha:     s.EWMAAlpha,
		LocalityAware: s.LocalityAware,
		NoiseSigma:    s.NoiseSigma,
		Seed:          s.Seed,
	}
}

// String is a compact human-readable cell label. Non-default machine
// shapes and extension knobs are appended only when set, so classic
// campaign labels look exactly as before.
func (s RunSpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/%s", s.App, s.Size, s.Scheduler)
	if s.Machine != "" && s.Machine != MachineNode {
		fmt.Fprintf(&b, " mach=%s", s.Machine)
	}
	fmt.Fprintf(&b, " smp=%d gpu=%d", s.SMPWorkers, s.GPUs)
	if s.Lambda != 0 {
		fmt.Fprintf(&b, " lambda=%d", s.Lambda)
	}
	if s.SizeTolerance != 0 {
		fmt.Fprintf(&b, " tol=%g", s.SizeTolerance)
	}
	if s.EWMAAlpha != 0 {
		fmt.Fprintf(&b, " ewma=%g", s.EWMAAlpha)
	}
	if s.LocalityAware {
		b.WriteString(" locality")
	}
	if s.Chaos != "" {
		fmt.Fprintf(&b, " chaos=%q", s.Chaos)
	}
	fmt.Fprintf(&b, " noise=%g seed=%d", s.NoiseSigma, s.Seed)
	return b.String()
}

func (s *RunSpec) fillDefaults() {
	if s.Size == "" {
		s.Size = SizeTiny
	}
	if s.Scheduler == "" {
		s.Scheduler = "versioning"
	}
	if s.Machine == "" {
		s.Machine = MachineNode
	}
	if s.SMPWorkers <= 0 {
		s.SMPWorkers = 1
	}
	// "none" is the spelling of "no chaos" in axis lists (an empty string
	// cannot ride a comma-separated flag); normalize so both hash equal.
	if s.Chaos == "none" {
		s.Chaos = ""
	}
}

// checkedSpec is what validate resolved on its way to accepting a spec,
// kept so a run builds from it instead of resolving it again.
type checkedSpec struct {
	app  App
	mach *ompss.Machine // nil for the node shape (see Materialize)
	plan *chaos.Plan    // nil without chaos
}

// validate is the one gate every spec passes before it is simulated,
// cached or watched: grids, explicit spec lists, watchers and bare runs
// all call it on the filled spec (fillDefaults applied), so a bad cell
// fails before any simulation with an error naming the offending value.
// It checks the size, the app and its MinGPUs, the scheduler name, a
// canonical machine shape that can host the worker counts, non-negative
// GPUs, lambda and size tolerance, an EWMA alpha in [0, 1], and a chaos
// spec that parses.
func (s RunSpec) validate() (checkedSpec, error) {
	var c checkedSpec
	if _, err := ParseSize(string(s.Size)); err != nil {
		return c, err
	}
	app, ok := LookupApp(s.App)
	if !ok {
		return c, fmt.Errorf("exp: unknown app %q (have %v)", s.App, AppNames())
	}
	if s.GPUs < 0 {
		return c, fmt.Errorf("exp: spec GPU count %d must be non-negative", s.GPUs)
	}
	if s.GPUs < app.MinGPUs {
		return c, fmt.Errorf("exp: app %q needs at least %d GPU(s), spec has %d",
			s.App, app.MinGPUs, s.GPUs)
	}
	if err := sched.CheckName(s.Scheduler); err != nil {
		return c, fmt.Errorf("exp: spec references unknown scheduler: %w", err)
	}
	canon, err := ParseMachineSpec(string(s.Machine))
	if err != nil {
		return c, err
	}
	if canon != s.Machine {
		return c, fmt.Errorf("exp: spec machine %q is not canonical (want %q)", s.Machine, canon)
	}
	mach, err := s.Machine.Materialize(s.SMPWorkers, s.GPUs)
	if err != nil {
		return c, err
	}
	if s.Lambda < 0 {
		return c, fmt.Errorf("exp: spec lambda %d must be non-negative (0 = default)", s.Lambda)
	}
	if s.SizeTolerance < 0 {
		return c, fmt.Errorf("exp: spec size tolerance %g must be non-negative", s.SizeTolerance)
	}
	if s.EWMAAlpha < 0 || s.EWMAAlpha > 1 {
		return c, fmt.Errorf("exp: spec EWMA alpha %g must be in [0, 1]", s.EWMAAlpha)
	}
	var plan *chaos.Plan
	if s.Chaos != "" {
		if plan, err = chaos.Parse(s.Chaos); err != nil {
			return c, fmt.Errorf("exp: spec chaos %q: %w", s.Chaos, err)
		}
	}
	return checkedSpec{app: app, mach: mach, plan: plan}, nil
}

// RunResult is the outcome of one run: the spec it came from, the
// virtual-time metrics, and the wall-clock cost of simulating it.
type RunResult struct {
	Spec RunSpec
	ompss.Result
	// Wall is the host time spent simulating (excluded from CSV/JSON so
	// outputs stay deterministic).
	Wall time.Duration
	// Cached marks a result served from a campaign cache instead of a
	// fresh simulation (also excluded from deterministic outputs).
	Cached bool
	// PreRun marks a faulted run that simulated its no-chaos baseline
	// because the horizon table held none (an execution fact, excluded
	// from deterministic outputs like Cached).
	PreRun bool
}

// Build constructs the traced runtime for a spec and installs the
// application, but does not execute it: callers that need the runtime
// afterwards (trace extraction, energy reports, profile dumps) use
// Build + Execute; everyone else uses Run.
func Build(spec RunSpec) (*ompss.Runtime, error) {
	spec.fillDefaults()
	c, err := spec.validate()
	if err != nil {
		return nil, err
	}
	return build(spec, c, true)
}

// build constructs the runtime of a filled spec from what validate
// resolved, with the trace optional: an untraced runtime keeps only the
// counters Result reads.
func build(spec RunSpec, c checkedSpec, traced bool) (*ompss.Runtime, error) {
	cfg := spec.config(c.mach)
	cfg.NoTrace = !traced
	r, err := ompss.NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.app.Build(r, spec.Size); err != nil {
		return nil, err
	}
	return r, nil
}

// Run executes one spec to completion, untraced: the Result's task and
// version counts come from the runtime's counters, so no task or
// transfer record is kept. A panicking simulation (e.g. a deadlocked
// schedule) is recovered into an error so one bad cell cannot kill a
// whole sweep; a run that faults stranded returns its
// *ompss.StrandedError wrapped.
func Run(spec RunSpec) (RunResult, error) {
	rr, _, err := run(spec, false)
	return rr, err
}

// RunTraced is Run with a trace, handing back the run's tracer so
// callers — Campaign artifact sinks foremost — can export per-run trace
// artifacts without rebuilding the runtime. Its Result equals Run's.
func RunTraced(spec RunSpec) (RunResult, *trace.Tracer, error) {
	return run(spec, true)
}

// run is the shared body of Run and RunTraced; tr is nil when untraced.
func run(spec RunSpec, traced bool) (rr RunResult, tr *trace.Tracer, err error) {
	spec.fillDefaults()
	defer func() {
		if p := recover(); p != nil {
			rr, tr = RunResult{}, nil
			if se, ok := p.(*ompss.StrandedError); ok {
				err = fmt.Errorf("exp: run %v: %w", spec, se)
				return
			}
			err = fmt.Errorf("exp: run %v panicked: %v", spec, p)
		}
	}()
	c, err := spec.validate()
	if err != nil {
		return RunResult{}, nil, err
	}
	r, err := build(spec, c, traced)
	if err != nil {
		return RunResult{}, nil, err
	}
	start := time.Now()
	var preRun bool
	if c.plan != nil {
		if preRun, err = armChaos(r, spec, c); err != nil {
			return RunResult{}, nil, err
		}
	}
	res := r.Execute()
	r.Release()
	if spec.Chaos == "" {
		horizons.put(spec, res.Elapsed)
	}
	return RunResult{Spec: spec, Result: res, Wall: time.Since(start), PreRun: preRun}, r.Tracer(), nil
}

// armChaos schedules the spec's chaos plan, compiled by validate, on the
// runtime, reporting whether it had to pre-run the baseline. Percent
// points that act on this machine need a horizon: the same spec's
// no-chaos makespan. It comes from the horizon table when this process
// has already run that spec (a grid's "none" sibling, or an earlier
// pre-run), and otherwise from a deterministic baseline pre-run, whose
// result the table then keeps. Either way it is a pure function of the
// spec, so the faulted run stays replayable byte for byte. A plan whose
// percent clauses are all inert here needs neither. The pre-run's wall
// cost folds into the faulted run's Wall; its other results are
// discarded, so it runs untraced and releases its slabs to the faulted
// run.
func armChaos(r *ompss.Runtime, spec RunSpec, c checkedSpec) (preRun bool, err error) {
	var horizon time.Duration
	if c.plan.NeedsHorizonOn(r.Runtime) {
		base := spec
		base.Chaos = ""
		var ok bool
		if horizon, ok = horizons.get(base); !ok {
			br, err := build(base, c, false)
			if err != nil {
				return false, err
			}
			horizon = br.Execute().Elapsed
			br.Release()
			horizons.put(base, horizon)
			preRun = true
		}
	}
	return preRun, c.plan.Arm(r.Runtime, horizon)
}

// horizonCap bounds the horizon table. An entry costs ~190 bytes of map
// (the key's strings are shared with the specs), so a full table stays
// under 1 MB, and it holds the base specs of a grid many times the size
// of the 720-run acceptance grid (240 base specs).
const horizonCap = 4096

// horizons maps a filled no-chaos spec to its makespan, for every
// successful no-chaos simulation this process ran. Equal keys are the
// same deterministic simulation, so a hit is exactly what a pre-run
// would measure. The table reads no store: it never trusts another
// process's bytes. When full it is cleared, which costs only pre-runs.
var horizons = horizonTable{m: make(map[RunSpec]time.Duration)}

type horizonTable struct {
	mu sync.Mutex
	m  map[RunSpec]time.Duration
}

func (h *horizonTable) get(base RunSpec) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.m[base]
	return d, ok
}

func (h *horizonTable) put(base RunSpec, d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.m[base]; !ok && len(h.m) >= horizonCap {
		clear(h.m)
	}
	h.m[base] = d
}

// TraceString serializes a run's task trace deterministically (submission
// order, every timestamp and placement). Two runs of the same spec must
// produce byte-identical trace strings; the determinism regression tests
// assert exactly that.
func TraceString(tr *trace.Tracer) string {
	var b strings.Builder
	for _, r := range tr.Tasks {
		fmt.Fprintf(&b, "%d %s %s w%d %s submit=%d ready=%d start=%d end=%d size=%d preds=%v\n",
			r.TaskID, r.Type, r.Version, r.Worker, r.Device,
			int64(r.Submit), int64(r.Ready), int64(r.Start), int64(r.End),
			r.DataSetSize, r.Preds)
	}
	for _, x := range tr.Transfers {
		fmt.Fprintf(&b, "x %s %d->%d cat=%v bytes=%d start=%d end=%d\n",
			x.Tag, x.From, x.To, x.Category, x.Bytes, int64(x.Start), int64(x.End))
	}
	return b.String()
}
