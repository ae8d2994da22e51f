package rt

import "time"

// Assignment is a scheduler's answer to "what should this worker run
// next": a task plus the implementation to use. The version must target
// the worker's device kind. Assignments travel by value (a two-word
// struct) so the dispatch path allocates nothing; the zero Assignment
// (nil Task) means "leave the worker idle".
type Assignment struct {
	Task    *Task
	Version *Version
}

// Empty reports whether the assignment carries no task.
func (a Assignment) Empty() bool { return a.Task == nil }

// Scheduler is the plug-in interface every OmpSs scheduling policy
// implements. The runtime invokes it from simulation-event context:
//
//   - Init once, before any task is submitted;
//   - TaskReady whenever a task's dependences are all satisfied;
//   - NextTask whenever a worker can accept work (it returns the zero
//     Assignment to leave the worker idle; the runtime will ask again
//     after the next TaskReady or task completion);
//   - TaskFinished after a task's outputs are committed, carrying the
//     realized execution time (this is where the versioning scheduler
//     updates its profiles).
//
// As with OmpSs's NX_SCHEDULE, a run selects its policy by name: the
// names are listed by sched.Names and built by sched.New or, for
// "versioning", by the ompss facade.
type Scheduler interface {
	Name() string
	Init(rt *Runtime)
	TaskReady(t *Task)
	NextTask(w *Worker) Assignment
	TaskFinished(w *Worker, t *Task, v *Version, exec time.Duration)
}
