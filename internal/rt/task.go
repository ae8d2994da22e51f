package rt

import (
	"fmt"
	"time"

	"repro/internal/deps"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// State is the lifecycle state of a task instance.
type State int

const (
	// StatePending means the task has unsatisfied dependences.
	StatePending State = iota
	// StateReady means all dependences are satisfied and the task is in
	// the scheduler's hands.
	StateReady
	// StateStaging means a worker is copying the task's data in.
	StateStaging
	// StateRunning means the task is executing on a device.
	StateRunning
	// StateFinished means execution completed and outputs are committed.
	StateFinished
)

// String returns a human-readable state name.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateReady:
		return "ready"
	case StateStaging:
		return "staging"
	case StateRunning:
		return "running"
	case StateFinished:
		return "finished"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Task is one task instance created by a Submit call.
type Task struct {
	ID   int64
	Type *TaskType
	// Accesses is the task's own copy of the access list given to
	// Submit, in clause order.
	Accesses []deps.Access
	Work     perfmodel.Work
	// Args carries application data for RealCompute implementations.
	Args any
	// DataSetSize is the total size of the distinct objects the task
	// touches; the versioning scheduler groups profiling data by this
	// value ("each task's parameter size is counted just once, even if it
	// is an input/output parameter", Section IV-B).
	DataSetSize int64
	// Priority orders ready tasks within scheduler queues (the OmpSs
	// priority clause): higher runs first, equal priorities keep FIFO
	// order. The paper's Cholesky discussion motivates it: potrf "acts
	// like a bottleneck and if it is not run as soon as its data
	// dependencies are satisfied, there is less parallelism to exploit"
	// (Section V-B2).
	Priority int

	state   State
	npred   int     // unfinished predecessors
	predIDs []int64 // every dependence predecessor (finished or not)
	// succHead and succTail delimit the tasks waiting on this one, in
	// the order their dependences were registered.
	succHead, succTail *edge

	onFinish []func()
	staging  int // accesses not yet acquired (staging countdown)

	submitAt sim.Time
	readyAt  sim.Time
	startAt  sim.Time
	endAt    sim.Time

	worker  *Worker  // executing worker (assigned at staging time)
	version *Version // chosen implementation

	// Fault-injection bookkeeping: how many times a device drop bounced
	// this task back to the scheduler, and when the last bounce happened.
	requeues   int
	requeuedAt sim.Time
	// lastPredWorker is the worker that ran the predecessor whose
	// completion released this task (dependency-chain locality hint).
	lastPredWorker *Worker
}

// LastPredWorker returns the worker that executed the predecessor that
// released this task, or nil for dependence-free tasks. Locality-chain
// schedulers use it to keep consumer tasks near their producers.
func (t *Task) LastPredWorker() *Worker { return t.lastPredWorker }

// PredIDs returns the IDs of every dependence predecessor, in the order
// the tracker reported them. The slice is shared; do not mutate.
func (t *Task) PredIDs() []int64 { return t.predIDs }

// State returns the task's current lifecycle state.
func (t *Task) State() State { return t.state }

// Version returns the implementation chosen for the task (nil until the
// scheduler picks one).
func (t *Task) Version() *Version { return t.version }

// Worker returns the worker that executed (or is executing) the task.
func (t *Task) Worker() *Worker { return t.worker }

// Requeues returns how many times fault injection bounced the task back
// to the scheduler before it completed.
func (t *Task) Requeues() int { return t.requeues }

// ExecTime returns the task's execution duration; valid once finished.
func (t *Task) ExecTime() time.Duration { return t.endAt.Sub(t.startAt) }

func (t *Task) String() string {
	return fmt.Sprintf("%s#%d(%s)", t.Type.Name, t.ID, t.state)
}

// edge is one link of a task's successor list. Edges come from the
// runtime's arena, so registering a dependence allocates nothing per
// task.
type edge struct {
	succ *Task
	next *edge
}

// addSucc appends s to t's successor list through the spare edge e.
func (t *Task) addSucc(e *edge, s *Task) {
	e.succ = s
	if t.succTail == nil {
		t.succHead = e
	} else {
		t.succTail.next = e
	}
	t.succTail = e
}

// dataSetSize sums the sizes of the distinct objects accessed. Access
// lists can be long (pbpi's reduction task touches every likelihood
// block), so objects are deduped in O(n) by stamping each ObjectID with
// the current submit's epoch rather than rescanning the list.
func (r *Runtime) dataSetSize(accs []deps.Access) int64 {
	switch len(accs) {
	case 0:
		return 0
	case 1:
		return accs[0].Obj.Size
	}
	r.dssEpoch++
	var sum int64
	for _, a := range accs {
		id := int(a.Obj.ID)
		if id >= len(r.objStamp) {
			r.objStamp = append(r.objStamp, make([]uint64, max(id+1, r.dir.NumObjects())-len(r.objStamp))...)
		}
		if r.objStamp[id] == r.dssEpoch {
			continue
		}
		r.objStamp[id] = r.dssEpoch
		sum += a.Obj.Size
	}
	return sum
}
