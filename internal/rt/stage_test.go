package rt

import (
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/perfmodel"
)

// idleScheduler never hands out work; the test drives staging by hand.
type idleScheduler struct{}

func (idleScheduler) Name() string                                         { return "idle" }
func (idleScheduler) Init(*Runtime)                                        {}
func (idleScheduler) TaskReady(*Task)                                      {}
func (idleScheduler) NextTask(*Worker) Assignment                          { return Assignment{} }
func (idleScheduler) TaskFinished(*Worker, *Task, *Version, time.Duration) {}

// A worker stages at most its current and its prefetched task, so it
// owns two staging countdowns; a third concurrent staging is a runtime
// bug and must fail loudly, naming the worker and the task.
func TestThirdConcurrentStagingPanics(t *testing.T) {
	r := New(Config{Machine: machine.MinoTauro(1, 0), SMPWorkers: 1, Scheduler: idleScheduler{}})
	tt := r.DeclareTaskType("kernel")
	v := tt.AddVersion("kernel_smp", machine.KindSMP, perfmodel.Fixed{D: time.Millisecond}, nil)
	w := r.Workers()[0]
	task := func(id int64) *Task { return &Task{ID: id, Type: tt, state: StateReady} }
	w.stage(task(1), v)
	w.stage(task(2), v)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, w.String()) || !strings.Contains(msg, "kernel#3") {
			t.Fatalf("panic %q does not name the worker and the task", msg)
		}
	}()
	w.stage(task(3), v)
}
