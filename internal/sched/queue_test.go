package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/rt"
)

// refList is the one global ready list the class-split readyQueue
// replaces: kept in InsertByPriority order (FIFO) or as a push-down
// stack (LIFO), and scanned from the front (or the top) for the first
// task whose main implementation runs on the worker's kind.
type refList struct {
	lifo  bool
	tasks []*rt.Task
}

func (l *refList) push(t *rt.Task) {
	if l.lifo {
		l.tasks = append(l.tasks, t)
		return
	}
	l.tasks = InsertByPriority(l.tasks, t, taskPriority)
}

func (l *refList) pop(kind machine.DeviceKind) *rt.Task {
	for j := range l.tasks {
		i := j
		if l.lifo {
			i = len(l.tasks) - 1 - j
		}
		if t := l.tasks[i]; t.Type.Main().RunsOn(kind) {
			l.tasks = append(l.tasks[:i], l.tasks[i+1:]...)
			return t
		}
	}
	return nil
}

// queueTestTypes are task types whose main implementations run on
// {SMP}, {GPU} and {SMP, GPU}.
func queueTestTypes() []*rt.TaskType {
	mk := func(name string, kinds ...machine.DeviceKind) *rt.TaskType {
		return &rt.TaskType{Name: name, Versions: []*rt.Version{{Name: name + "_main", Device: kinds[0], Devices: kinds}}}
	}
	return []*rt.TaskType{
		mk("smp", machine.KindSMP),
		mk("gpu", machine.KindCUDA),
		mk("both", machine.KindSMP, machine.KindCUDA),
	}
}

var queueTestKinds = []machine.DeviceKind{machine.KindSMP, machine.KindCUDA}

func taskName(t *rt.Task) string {
	if t == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s#%d", t.Type.Name, t.ID)
}

// TestReadyQueueMatchesGlobalScan drives the class-split queue and the
// global-list scan with the same seeded random pushes and pops, in FIFO
// (bf, dep) and LIFO (wf) order, and requires the same task from every
// pop. Priorities come from a small range, so ties are frequent, and
// popped tasks are re-pushed later the way a fault re-queue does.
func TestReadyQueueMatchesGlobalScan(t *testing.T) {
	types := queueTestTypes()
	for _, lifo := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			rq := readyQueue{lifo: lifo}
			ref := refList{lifo: lifo}
			var taken []*rt.Task // popped, candidates for a re-push
			var id int64
			check := func(step int, kind machine.DeviceKind) {
				got, want := rq.pop(kind), ref.pop(kind)
				if got != want {
					t.Fatalf("lifo=%v seed=%d step %d: pop(%v) = %s, global scan gives %s",
						lifo, seed, step, kind, taskName(got), taskName(want))
				}
				if got != nil {
					taken = append(taken, got)
				}
			}
			for step := 0; step < 2000; step++ {
				switch r := rng.Intn(10); {
				case r < 5:
					id++
					tk := &rt.Task{ID: id, Type: types[rng.Intn(len(types))], Priority: rng.Intn(3)}
					rq.push(tk)
					ref.push(tk)
				case r < 9:
					check(step, queueTestKinds[rng.Intn(len(queueTestKinds))])
				case len(taken) > 0:
					i := rng.Intn(len(taken))
					tk := taken[i]
					taken = slices.Delete(taken, i, i+1)
					rq.push(tk)
					ref.push(tk)
				}
			}
			for step := 0; len(ref.tasks) > 0; step++ {
				check(-step, queueTestKinds[step%len(queueTestKinds)])
			}
			for _, k := range queueTestKinds {
				if tk := rq.pop(k); tk != nil {
					t.Fatalf("lifo=%v seed=%d: drained queue still pops %s", lifo, seed, taskName(tk))
				}
			}
		}
	}
}

// TestQueueMatchesSlice drives Queue with seeded random pushes (ordered
// and appended) and pops at both ends, against a plain slice.
func TestQueueMatchesSlice(t *testing.T) {
	prio := func(v int) int { return v % 4 }
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[int]
		var ref []int
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(8); {
			case r < 2:
				q.Push(step, prio)
				ref = InsertByPriority(ref, step, prio)
			case r < 4:
				q.Append(step)
				ref = append(ref, step)
			case len(ref) == 0:
			case r < 6:
				if got, want := q.PopFront(), ref[0]; got != want {
					t.Fatalf("seed %d step %d: PopFront = %d, want %d", seed, step, got, want)
				}
				ref = ref[1:]
			default:
				if got, want := q.PopBack(), ref[len(ref)-1]; got != want {
					t.Fatalf("seed %d step %d: PopBack = %d, want %d", seed, step, got, want)
				}
				ref = ref[:len(ref)-1]
			}
			if !slices.Equal(q.Items(), ref) || q.Len() != len(ref) {
				t.Fatalf("seed %d step %d: queue holds %v, want %v", seed, step, q.Items(), ref)
			}
		}
	}
}

// TestQueueSteadyStateAllocatesNothing pins the reason for the head
// index: once the queues have grown to a fixed high-water mark, a steady
// cycle of pops and re-pushes reuses their capacity and allocates
// nothing, for the class-split central queue and for a per-worker queue
// popped at the front.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	types := queueTestTypes()
	const backlog = 96
	rq := readyQueue{}
	for i := 0; i < backlog; i++ {
		rq.push(&rt.Task{ID: int64(i), Type: types[i%len(types)], Priority: i % 2})
	}
	var wq Queue[*rt.Task]
	for i := 0; i < backlog; i++ {
		wq.Push(&rt.Task{ID: int64(i), Type: types[0], Priority: i % 2}, taskPriority)
	}
	cycle := func() {
		for i := 0; i < backlog; i++ {
			tk := rq.pop(queueTestKinds[i%len(queueTestKinds)])
			if tk == nil {
				t.Fatal("steady-state pop found nothing")
			}
			rq.push(tk)
			wq.Push(wq.PopFront(), taskPriority)
		}
	}
	for i := 0; i < 4; i++ {
		cycle() // grow to the high-water capacity
	}
	// One long measured run: AllocsPerRun rounds its per-run average
	// down, so a rare regrowth would vanish across many short runs.
	steady := func() {
		for i := 0; i < 50; i++ {
			cycle()
		}
	}
	if allocs := testing.AllocsPerRun(1, steady); allocs != 0 {
		t.Errorf("steady push/pop cycles allocate %.0f times, want 0", allocs)
	}
}
