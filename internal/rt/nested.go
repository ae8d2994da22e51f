package rt

import (
	"repro/internal/deps"
	"repro/internal/perfmodel"
)

// Submit creates a child task from inside a running task. OmpSs uses a
// thread-pool execution model in which "nesting of constructs allows
// other threads to generate work as well" (Section III): any task body
// may create further tasks, which enter the same dependence graph and
// scheduler as tasks created by the master thread.
//
// Like Master.Submit, it copies accs, so the slice is free for reuse
// once Submit returns. Child tasks are counted like any other
// outstanding work: a taskwait on the master waits for them too. No
// per-task creation overhead is charged (the creating worker is
// mid-execution; its duration already comes from its performance
// model).
func (ctx *ExecContext) Submit(tt *TaskType, accs []deps.Access, work perfmodel.Work, args any) *Task {
	return ctx.Worker.rt.submit(tt, accs, work, args, ctx.Task.Priority)
}
