package rt_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/perfmodel"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/sched/versioning"
	"repro/internal/stats"
)

// TestRandomDAGStress generates random task graphs (random objects,
// access modes, versions and durations) and executes them under every
// scheduler with several seeds, checking global invariants:
//
//   - every submitted task executes exactly once;
//   - the trace validates (no double-booked worker or link, monotonic
//     per-task timelines);
//   - conflicting tasks (sharing an object, at least one writer) never
//     overlap in time and execute in submission order;
//   - after the final taskwait every object is valid at host.
func TestRandomDAGStress(t *testing.T) {
	for _, schedName := range []string{"versioning", "bf", "dep", "affinity"} {
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("%s/seed=%d", schedName, seed)
			t.Run(name, func(t *testing.T) {
				runRandomDAG(t, schedName, seed)
			})
		}
	}
}

func runRandomDAG(t *testing.T, schedName string, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var s rt.Scheduler = versioning.New(versioning.Options{})
	if schedName != "versioning" {
		var err error
		if s, err = sched.New(schedName); err != nil {
			t.Fatal(err)
		}
	}
	r := rt.New(rt.Config{
		Machine:    machine.MinoTauro(3, 2),
		SMPWorkers: 3,
		GPUWorkers: 2,
		Scheduler:  s,
		NoiseSigma: 0.05,
		Seed:       seed,
		Prefetch:   true,
	})

	// A few task types with random version sets (always at least one SMP
	// version so every task can run on this machine).
	var types []*rt.TaskType
	for i := 0; i < 3; i++ {
		tt := r.DeclareTaskType(fmt.Sprintf("type%d", i))
		tt.AddVersion(fmt.Sprintf("type%d_smp", i), machine.KindSMP,
			perfmodel.Fixed{D: time.Duration(rng.Intn(900)+100) * time.Microsecond}, nil)
		if rng.Intn(2) == 0 {
			tt.AddVersion(fmt.Sprintf("type%d_gpu", i), machine.KindCUDA,
				perfmodel.Fixed{D: time.Duration(rng.Intn(300)+50) * time.Microsecond}, nil)
		}
		types = append(types, tt)
	}

	const nObjects = 12
	objs := make([]*mem.Object, nObjects)
	for i := range objs {
		objs[i] = r.Register(fmt.Sprintf("obj%d", i), int64(rng.Intn(1<<20)+1024))
	}

	const nTasks = 120
	taskAccesses := make([][]accessRec, nTasks+1) // indexed by task ID

	r.SpawnMain(func(m *rt.Master) {
		for i := 0; i < nTasks; i++ {
			tt := types[rng.Intn(len(types))]
			nAcc := rng.Intn(3) + 1
			var accs []deps.Access
			seen := make(map[int]bool)
			var recs []accessRec
			for a := 0; a < nAcc; a++ {
				oi := rng.Intn(nObjects)
				if seen[oi] {
					continue
				}
				seen[oi] = true
				mode := []mem.AccessMode{mem.Read, mem.Write, mem.ReadWrite}[rng.Intn(3)]
				accs = append(accs, deps.Access{Obj: objs[oi], Mode: mode})
				recs = append(recs, accessRec{objs[oi].ID, mode.Writes()})
			}
			task := m.Submit(tt, accs, perfmodel.Work{}, nil)
			taskAccesses[task.ID] = recs
			if rng.Intn(20) == 0 {
				m.Taskwait() // occasional barriers
			}
		}
		m.Taskwait()
	})
	r.Run()

	// Every task ran exactly once.
	recs := r.Tracer().Tasks
	if len(recs) != nTasks {
		t.Fatalf("executed %d tasks, want %d", len(recs), nTasks)
	}
	seenIDs := make(map[int64]bool)
	for _, rec := range recs {
		if seenIDs[rec.TaskID] {
			t.Fatalf("task %d executed twice", rec.TaskID)
		}
		seenIDs[rec.TaskID] = true
	}

	// Trace invariants.
	if problems := stats.Validate(r.Tracer()); len(problems) > 0 {
		for _, p := range problems {
			t.Error(p)
		}
	}

	// Conflict serialization: conflicting tasks must not overlap and must
	// run in submission (ID) order.
	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < len(recs); j++ {
			a, b := recs[i], recs[j]
			if a.TaskID > b.TaskID {
				a, b = b, a
			}
			if !conflict(taskAccesses[a.TaskID], taskAccesses[b.TaskID]) {
				continue
			}
			if b.Start < a.End {
				t.Errorf("conflicting tasks %d and %d overlap: %v-%v vs %v-%v",
					a.TaskID, b.TaskID, a.Start, a.End, b.Start, b.End)
			}
		}
	}

	// Post-taskwait coherence: everything home.
	for _, obj := range objs {
		if !r.Directory().ValidAt(obj, machine.HostSpace) {
			t.Errorf("%v not valid at host after final taskwait", obj)
		}
		if r.Directory().Dirty(obj) {
			t.Errorf("%v still dirty after final taskwait", obj)
		}
	}
}

type accessRec struct {
	obj    mem.ObjectID
	writes bool
}

func conflict(a, b []accessRec) bool {
	for _, x := range a {
		for _, y := range b {
			if x.obj == y.obj && (x.writes || y.writes) {
				return true
			}
		}
	}
	return false
}
