package apps

import (
	"fmt"
	"math/rand"
	"time"

	"repro/ompss"
)

// RandDAG generates a seeded random layered task graph: an irregular
// synthetic workload for stress tests, scheduler-correctness oracles and
// ablation benches. Unlike the paper's regular applications it has no
// exploitable structure: fan-ins and fan-outs vary per task, several task
// types with different version sets coexist, and task durations differ
// per type — a scheduler bug that regular lattices mask (lost wakeups,
// ordering races, starvation) tends to surface here.
//
// Determinism: the same RandDAGConfig (including Seed) always produces
// the same graph, the same objects and the same work, so runs are
// reproducible and comparable across schedulers.

// RandDAGConfig parameterizes the generator.
type RandDAGConfig struct {
	// Seed drives the graph shape (default 1).
	Seed int64
	// Layers is the DAG depth (default 8).
	Layers int
	// Width is the number of tasks per layer (default 16).
	Width int
	// EdgeProb is the probability a task consumes any given previous-layer
	// output (default 0.3; each task always consumes at least one once a
	// previous layer exists).
	EdgeProb float64
	// Types is how many distinct task types to declare (default 3; type 0
	// is hybrid SMP+CUDA, the rest alternate SMP-only / CUDA-only, so the
	// graph mixes device constraints).
	Types int
	// ObjectBytes is the size of every produced object (default 1 MB).
	ObjectBytes int64
	// MeanTaskTime is the base duration scale (default 1ms; each type t
	// runs at (t+1) x base on its slowest device).
	MeanTaskTime time.Duration
}

func (c *RandDAGConfig) fillDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Layers == 0 {
		c.Layers = 8
	}
	if c.Width == 0 {
		c.Width = 16
	}
	if c.EdgeProb == 0 {
		c.EdgeProb = 0.3
	}
	if c.Types == 0 {
		c.Types = 3
	}
	if c.ObjectBytes == 0 {
		c.ObjectBytes = 1 << 20
	}
	if c.MeanTaskTime == 0 {
		c.MeanTaskTime = time.Millisecond
	}
}

// RandDAGEdge is one dependence edge between task indexes (submission
// order, 0-based).
type RandDAGEdge struct{ From, To int }

// RandDAG is a built random-graph application instance.
type RandDAG struct {
	cfg   RandDAGConfig
	edges []RandDAGEdge
}

// RandDAGTaskType names the task type with the given index.
func RandDAGTaskType(i int) string { return fmt.Sprintf("randdag_t%d", i) }

// BuildRandDAG declares the task types, generates the graph and installs
// the master function. The runtime must have at least one SMP and —
// when cfg.Types > 1 — one GPU worker (CUDA-only types appear from type
// 2 on).
func BuildRandDAG(r *ompss.Runtime, cfg RandDAGConfig) (*RandDAG, error) {
	cfg.fillDefaults()
	if cfg.Layers < 1 || cfg.Width < 1 || cfg.Types < 1 {
		return nil, fmt.Errorf("apps: randdag needs layers, width, types >= 1")
	}
	app := &RandDAG{cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))

	tts := make([]*ompss.TaskType, cfg.Types)
	for t := 0; t < cfg.Types; t++ {
		name := RandDAGTaskType(t)
		tt := r.DeclareTaskType(name)
		base := time.Duration(t+1) * cfg.MeanTaskTime
		switch {
		case t == 0 || t%3 == 0: // hybrid: fast CUDA, slow SMP
			tt.AddVersion(name+"_cuda", ompss.CUDA, ompss.Fixed{D: base / 4}, nil)
			tt.AddVersion(name+"_smp", ompss.SMP, ompss.Fixed{D: base}, nil)
		case t%3 == 1: // SMP only
			tt.AddVersion(name+"_smp", ompss.SMP, ompss.Fixed{D: base}, nil)
		default: // CUDA only
			tt.AddVersion(name+"_cuda", ompss.CUDA, ompss.Fixed{D: base / 2}, nil)
		}
		tts[t] = tt
	}

	// One output object per task; edges become In accesses on them.
	total := cfg.Layers * cfg.Width
	outs := make([]*ompss.Object, total)
	for i := range outs {
		outs[i] = r.Register(fmt.Sprintf("dag[%d]", i), cfg.ObjectBytes)
	}

	// Pre-draw the whole structure so graph shape does not depend on
	// runtime interleaving.
	type node struct {
		typ   int
		preds []int
	}
	nodes := make([]node, total)
	for l := 0; l < cfg.Layers; l++ {
		for w := 0; w < cfg.Width; w++ {
			id := l*cfg.Width + w
			nd := node{typ: rng.Intn(cfg.Types)}
			if l > 0 {
				for p := (l - 1) * cfg.Width; p < l*cfg.Width; p++ {
					if rng.Float64() < cfg.EdgeProb {
						nd.preds = append(nd.preds, p)
					}
				}
				if len(nd.preds) == 0 {
					nd.preds = append(nd.preds, (l-1)*cfg.Width+rng.Intn(cfg.Width))
				}
			}
			for _, p := range nd.preds {
				app.edges = append(app.edges, RandDAGEdge{From: p, To: id})
			}
			nodes[id] = nd
		}
	}

	work := ompss.Work{Bytes: cfg.ObjectBytes, Elems: cfg.ObjectBytes / 8}
	r.Main(func(m *ompss.Master) {
		var accs []ompss.Access // rebuilt per task: Submit copies it
		for id, nd := range nodes {
			accs = append(accs[:0], ompss.Out(outs[id]))
			for _, p := range nd.preds {
				accs = append(accs, ompss.In(outs[p]))
			}
			m.Submit(tts[nd.typ], accs, work, nil)
		}
		m.Taskwait()
	})
	return app, nil
}

// TaskCount returns the number of generated tasks.
func (a *RandDAG) TaskCount() int { return a.cfg.Layers * a.cfg.Width }

// Edges returns the generated dependence edges in task-submission indexes
// (task IDs in the trace are 1-based in submission order, so trace ID =
// index + 1). The slice is shared; do not mutate.
func (a *RandDAG) Edges() []RandDAGEdge { return a.edges }
