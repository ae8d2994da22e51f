package rt

import (
	"fmt"
	"time"

	"repro/internal/deps"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// Config parameterizes a Runtime, mirroring the NX_ARGS / environment
// configuration of the real OmpSs runtime.
type Config struct {
	// Machine is the node description (required).
	Machine *machine.Machine
	// SMPWorkers is the number of worker threads devoted to SMP cores.
	SMPWorkers int
	// GPUWorkers is the number of worker threads devoted to GPUs.
	GPUWorkers int
	// Scheduler is the scheduling policy plug-in (required).
	Scheduler Scheduler
	// NoiseSigma is the log-normal execution-time jitter (0 = exact).
	NoiseSigma float64
	// Seed seeds the jitter RNG; runs with equal seeds are identical.
	Seed int64
	// Prefetch enables one-task look-ahead data staging, overlapping
	// transfers with computation (the evaluation enables this for all
	// schedulers).
	Prefetch bool
	// RealCompute executes versions' real Go implementations so results
	// can be verified numerically.
	RealCompute bool
	// CreateOverhead is the master-thread cost of creating one task.
	CreateOverhead time.Duration
	// NoTrace runs without a tracer: no task or transfer records are kept
	// and Runtime.Tracer returns nil. The task count and per-version
	// counts stay available (TasksCompleted, VersionCounts); everything
	// that reads records — Paraver and Chrome export, energy, critical
	// path, summaries — needs a traced runtime. Without it, New creates
	// a fresh tracer (retrievable via Runtime.Tracer).
	NoTrace bool
}

// Runtime is the task runtime instance: the analogue of one Nanos++
// process bound to a node.
type Runtime struct {
	cfg     Config
	eng     *sim.Engine
	mach    *machine.Machine
	fabric  *xfer.Fabric
	dir     *mem.Directory
	tracker *deps.Tracker
	sched   Scheduler
	noise   *perfmodel.Noise
	tracer  *trace.Tracer

	workers []*Worker
	types   map[string]*TaskType

	taskSeq     int64
	outstanding int
	waiters     []func()

	// tasks hands out Task records from chunked slabs: one slab per
	// arenaChunk submits instead of one allocation per task. Slots are
	// never reused within a run, so *Task pointers stay valid for the
	// run's lifetime. Slabs come from the process-wide free lists (see
	// Release) before they are allocated. ids hands out predID backing
	// storage, edges successor-list edges and accs the task's own copy
	// of its access list the same way.
	tasks slab.Arena[Task]
	ids   slab.Arena[int64]
	edges slab.Arena[edge]
	accs  slab.Arena[deps.Access]

	// objStamp and dssEpoch dedup objects in dataSetSize: an object
	// counts once per submit when its stamp (indexed by mem.ObjectID)
	// equals the current epoch.
	objStamp []uint64
	dssEpoch uint64

	// Commutative mutual exclusion (the OmpSs commutative clause): a
	// task holding an object's commutative lock excludes every other
	// member of the group; dependence-free members park here until the
	// lock frees, in readiness order.
	commHeld map[mem.ObjectID]*Task
	parked   []*Task

	// TotalFlops accumulates the Work.Flops of every submitted task, for
	// GFLOP/s reporting.
	TotalFlops float64
	// TasksSubmitted counts Submit calls.
	TasksSubmitted int64

	// Fault-injection accounting (see fault.go): chaos events applied,
	// tasks bounced back to the scheduler by a device drop, and the worst
	// re-adaptation latency (virtual time from re-queue to completion).
	FaultsInjected int64
	TasksRequeued  int64
	ReadaptMax     time.Duration
}

// New builds a runtime on a fresh simulation engine.
func New(cfg Config) *Runtime {
	if cfg.Machine == nil {
		panic("rt: Config.Machine is required")
	}
	if cfg.Scheduler == nil {
		panic("rt: Config.Scheduler is required")
	}
	if err := cfg.Machine.Validate(); err != nil {
		panic("rt: invalid machine: " + err.Error())
	}
	eng := sim.NewEngine()
	var tracer *trace.Tracer
	// A nil *Tracer must reach the fabric as a nil Recorder, not as a
	// typed nil that would still be called per transfer.
	var rec xfer.Recorder
	if !cfg.NoTrace {
		tracer = trace.New()
		rec = tracer
	}
	fabric := xfer.NewFabric(eng, cfg.Machine, rec)
	r := &Runtime{
		cfg:      cfg,
		eng:      eng,
		mach:     cfg.Machine,
		fabric:   fabric,
		dir:      mem.NewDirectory(eng, cfg.Machine, fabric),
		tracker:  deps.NewTracker(),
		tasks:    slab.NewArena(taskSlabs),
		ids:      slab.NewArena(idSlabs),
		edges:    slab.NewArena(edgeSlabs),
		accs:     slab.NewArena(accSlabs),
		sched:    cfg.Scheduler,
		noise:    perfmodel.NewNoise(cfg.NoiseSigma, cfg.Seed),
		tracer:   tracer,
		types:    make(map[string]*TaskType),
		commHeld: make(map[mem.ObjectID]*Task),
	}

	smp := cfg.Machine.DevicesOfKind(machine.KindSMP)
	gpu := cfg.Machine.DevicesOfKind(machine.KindCUDA)
	if cfg.SMPWorkers > len(smp) {
		panic(fmt.Sprintf("rt: %d SMP workers requested, machine has %d cores", cfg.SMPWorkers, len(smp)))
	}
	if cfg.GPUWorkers > len(gpu) {
		panic(fmt.Sprintf("rt: %d GPU workers requested, machine has %d GPUs", cfg.GPUWorkers, len(gpu)))
	}
	addWorker := func(dev machine.Device) {
		w := &Worker{id: len(r.workers), dev: dev, rt: r, speed: 1}
		w.completeFn = func() { w.complete(w.current) }
		w.bindStagers()
		r.workers = append(r.workers, w)
	}
	for i := 0; i < cfg.SMPWorkers; i++ {
		addWorker(smp[i])
	}
	for i := 0; i < cfg.GPUWorkers; i++ {
		addWorker(gpu[i])
	}
	if len(r.workers) == 0 {
		panic("rt: no workers configured")
	}
	eng.OnDeadlock = r.explainDeadlock
	r.sched.Init(r)
	return r
}

// Engine returns the simulation engine.
func (r *Runtime) Engine() *sim.Engine { return r.eng }

// Machine returns the node description.
func (r *Runtime) Machine() *machine.Machine { return r.mach }

// Directory returns the memory directory (used by locality-aware
// schedulers).
func (r *Runtime) Directory() *mem.Directory { return r.dir }

// Fabric returns the transfer fabric.
func (r *Runtime) Fabric() *xfer.Fabric { return r.fabric }

// Tracer returns the trace sink for this run, or nil when the runtime
// was built with Config.NoTrace.
func (r *Runtime) Tracer() *trace.Tracer { return r.tracer }

// TasksCompleted returns the number of tasks that have finished.
func (r *Runtime) TasksCompleted() int {
	n := 0
	for _, w := range r.workers {
		n += int(w.TasksRun)
	}
	return n
}

// VersionCounts returns, per task type, how many instances each version
// ran — the counts behind the paper's Figures 8, 11, 14 and 15, kept as
// tasks complete so they need no trace. Types and versions that never
// ran are absent, matching trace.Tracer.VersionCounts.
func (r *Runtime) VersionCounts() map[string]map[string]int {
	out := make(map[string]map[string]int)
	for name, tt := range r.types {
		for _, v := range tt.Versions {
			if v.runs == 0 {
				continue
			}
			m, ok := out[name]
			if !ok {
				m = make(map[string]int)
				out[name] = m
			}
			m[v.Name] = v.runs
		}
	}
	return out
}

// Workers returns all workers in ID order. The slice is shared; do not
// mutate.
func (r *Runtime) Workers() []*Worker { return r.workers }

// Now returns the current virtual time.
func (r *Runtime) Now() sim.Time { return r.eng.Now() }

// Config returns the runtime configuration.
func (r *Runtime) Config() Config { return r.cfg }

// Register creates a data object resident in host memory.
func (r *Runtime) Register(name string, size int64) *mem.Object {
	return r.dir.Register(name, size)
}

// DeclareTaskType creates (or returns the existing) task type with the
// given name; versions are added with AddVersion.
func (r *Runtime) DeclareTaskType(name string) *TaskType {
	if tt, ok := r.types[name]; ok {
		return tt
	}
	tt := &TaskType{Name: name, rt: r}
	r.types[name] = tt
	return tt
}

// TaskType returns a declared task type, or nil.
func (r *Runtime) TaskType(name string) *TaskType { return r.types[name] }

// arenaChunk is how many Task records (and successor edges) each arena
// slab holds; pred-ID and access slabs hold idChunk elements.
const (
	arenaChunk = 256
	idChunk    = 4 * arenaChunk
)

// The free lists finished runs return their slabs to (see Release). Each
// cap is the number of slabs one pinned pbpi cell (pbpi-hyb at quick
// size: 6,625 tasks, ~32k dependence edges) draws: 26 task, 125 edge,
// 33 pred-ID and 25 access slabs. A serial campaign of cells up to that
// size allocates no slab after its first cell, and a process retains at
// most ~3.2 MB of them, and none once it stops simulating (see package
// slab).
var (
	taskSlabs = slab.New[Task](arenaChunk, 26)
	edgeSlabs = slab.New[edge](arenaChunk, 125)
	idSlabs   = slab.New[int64](idChunk, 33)
	accSlabs  = slab.New[deps.Access](idChunk, 25)
)

// Release returns the run's task, edge, pred-ID and access slabs, its
// dependence tracker's slabs and its directory's slabs to the free lists
// the next runtime in the process draws from. Call it only after Run has
// returned normally (never after a panic, which may leave tasks
// referenced mid-flight), and only when nothing will read the runtime's
// tasks or data objects again: the slabs are zeroed and handed to other
// runs, so every *Task and *mem.Object of the run is invalid once it
// returns. Counters, version counts and the tracer stay readable; a
// traced runtime keeps its pred-ID slabs, because its trace's task
// records alias them (they hold no accesses). A second call is a no-op.
func (r *Runtime) Release() {
	r.tasks.Release()
	r.edges.Release()
	r.accs.Release()
	if r.tracer == nil {
		r.ids.Release()
	}
	r.tracker.Release()
	r.dir.Recycle()
}

// submit creates a task instance, wires its dependences and hands it to
// the scheduler when ready. Must run in engine or master context. The
// task keeps its own copy of clauses, so the caller's slice is free for
// reuse as soon as submit returns (and, not escaping, can live on the
// caller's stack).
func (r *Runtime) submit(tt *TaskType, clauses []deps.Access, work perfmodel.Work, args any, priority int) *Task {
	if len(tt.Versions) == 0 {
		panic(fmt.Sprintf("rt: submit of task %q with no versions", tt.Name))
	}
	// Runnability only ever flips false→true (versions are added, never
	// removed), so a positive answer is cached on the type.
	if !tt.runnable {
		for _, w := range r.workers {
			if tt.HasVersionFor(w.dev.Kind) {
				tt.runnable = true
				break
			}
		}
		if !tt.runnable {
			panic(fmt.Sprintf("rt: task %q has no version runnable on any configured worker", tt.Name))
		}
	}

	accs := r.accs.Alloc(len(clauses))
	copy(accs, clauses)

	r.taskSeq++
	t := r.tasks.New()
	*t = Task{
		ID:          r.taskSeq,
		Type:        tt,
		Accesses:    accs,
		Work:        work,
		Args:        args,
		DataSetSize: r.dataSetSize(accs),
		Priority:    priority,
		state:       StatePending,
		submitAt:    r.eng.Now(),
	}
	r.outstanding++
	r.TasksSubmitted++
	r.TotalFlops += work.Flops

	preds := r.tracker.Add(t, accs)
	if len(preds) > 0 {
		t.predIDs = r.ids.Alloc(len(preds))
		for i, p := range preds {
			pt := p.(*Task)
			t.predIDs[i] = pt.ID
			if pt.state != StateFinished {
				pt.addSucc(r.edges.New(), t)
				t.npred++
			}
		}
	}
	if t.npred == 0 {
		r.becomeReady(t)
	}
	return t
}

// becomeReady hands a dependence-free task to the scheduler and lets
// workers pull. Tasks with commutative accesses must first win all of
// their objects' commutative locks (all-or-nothing, so no deadlock);
// losers park until a completing group member releases.
func (r *Runtime) becomeReady(t *Task) {
	t.state = StateReady
	t.readyAt = r.eng.Now()
	if !r.tryAcquireComm(t) {
		r.parked = append(r.parked, t)
		return
	}
	r.sched.TaskReady(t)
	r.pokeAll()
}

// commObjects returns the objects the task accesses commutatively.
func commObjects(t *Task) []*mem.Object {
	var out []*mem.Object
	for _, a := range t.Accesses {
		if a.Mode == mem.Commutative {
			out = append(out, a.Obj)
		}
	}
	return out
}

// tryAcquireComm atomically takes every commutative lock the task needs,
// or none. Tasks without commutative accesses always succeed.
func (r *Runtime) tryAcquireComm(t *Task) bool {
	objs := commObjects(t)
	for _, o := range objs {
		if holder := r.commHeld[o.ID]; holder != nil && holder != t {
			return false
		}
	}
	for _, o := range objs {
		r.commHeld[o.ID] = t
	}
	return true
}

// releaseComm frees the task's commutative locks and unparks, in
// readiness order, every parked task that can now take all of its locks.
func (r *Runtime) releaseComm(t *Task) {
	objs := commObjects(t)
	if len(objs) == 0 {
		return
	}
	for _, o := range objs {
		if r.commHeld[o.ID] == t {
			delete(r.commHeld, o.ID)
		}
	}
	var still []*Task
	var woken []*Task
	for _, p := range r.parked {
		if r.tryAcquireComm(p) {
			woken = append(woken, p)
		} else {
			still = append(still, p)
		}
	}
	r.parked = still
	for _, p := range woken {
		p.readyAt = r.eng.Now() // queueing starts when the lock is won
		r.sched.TaskReady(p)
	}
	if len(woken) > 0 {
		r.pokeAll()
	}
}

// pokeAll gives every worker a dispatch/prefetch opportunity, in ID order
// for determinism. Idle workers dispatch first: a busy worker's prefetch
// slot must never steal a ready task from an idle peer that could start
// it immediately.
func (r *Runtime) pokeAll() {
	for _, w := range r.workers {
		if w.current == nil {
			w.tryDispatch()
		}
	}
	if r.cfg.Prefetch {
		for _, w := range r.workers {
			w.poke()
		}
	}
}

// taskDone propagates a finished task: commutative locks release first
// (a parked group member may be the successor that keeps devices busy),
// then successors may become ready, and taskwait waiters fire when
// nothing is outstanding.
func (r *Runtime) taskDone(t *Task) {
	r.releaseComm(t)
	for e := t.succHead; e != nil; e = e.next {
		s := e.succ
		s.npred--
		s.lastPredWorker = t.worker
		if s.npred == 0 {
			r.becomeReady(s)
		}
	}
	for _, fn := range t.onFinish {
		fn()
	}
	t.onFinish = nil
	r.outstanding--
	if r.outstanding == 0 && len(r.waiters) > 0 {
		ws := r.waiters
		r.waiters = nil
		for _, fn := range ws {
			fn()
		}
	}
}

// Run executes the simulation to completion and returns the final virtual
// time.
func (r *Runtime) Run() sim.Time { return r.eng.Run() }

// GFlops returns achieved GFLOP/s over the whole run so far.
func (r *Runtime) GFlops() float64 {
	return perfmodel.GFlopsRate(r.TotalFlops, r.eng.Now().Duration())
}
