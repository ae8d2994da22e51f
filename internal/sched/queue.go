package sched

import (
	"repro/internal/machine"
	"repro/internal/rt"
)

// Queue is a slice-backed ready queue whose front pops advance a head
// index instead of re-slicing. Re-slicing q[1:] drops the popped slot's
// capacity for good, so a queue that is popped at the front and pushed
// at the back reallocates over and over; here a full buffer slides its
// live window back to the front instead, and grows only while more than
// half of it is live. Push keeps the queue in InsertByPriority order;
// Append pushes at the back for the deques that ignore priority. The
// zero value is an empty queue.
type Queue[E any] struct {
	buf  []E
	head int
}

// Len returns the number of queued elements.
func (q *Queue[E]) Len() int { return len(q.buf) - q.head }

// Items returns the queued elements front to back. The slice aliases the
// queue until its next mutation.
func (q *Queue[E]) Items() []E { return q.buf[q.head:] }

// Push inserts e by descending priority, FIFO among equal priorities.
func (q *Queue[E]) Push(e E, priority func(E) int) {
	q.reserve()
	q.setLive(InsertByPriority(q.buf[q.head:], e, priority))
}

// Append pushes e at the back.
func (q *Queue[E]) Append(e E) {
	q.reserve()
	q.setLive(append(q.buf[q.head:], e))
}

// PopFront removes and returns the front element; the queue must not be
// empty.
func (q *Queue[E]) PopFront() E {
	var zero E
	e := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return e
}

// PopBack removes and returns the back element; the queue must not be
// empty.
func (q *Queue[E]) PopBack() E {
	var zero E
	n := len(q.buf) - 1
	e := q.buf[n]
	q.buf[n] = zero
	q.buf = q.buf[:n]
	if q.head == n {
		q.buf, q.head = q.buf[:0], 0
	}
	return e
}

// reserve guarantees that one push behind a nonzero head lands in place:
// a full buffer slides its live window to the front when at least half
// of it is spent, and otherwise moves the window to a buffer twice the
// size.
func (q *Queue[E]) reserve() {
	if q.head == 0 || len(q.buf) < cap(q.buf) {
		return
	}
	live := q.buf[q.head:]
	var n int
	if 2*q.head >= len(q.buf) {
		n = copy(q.buf, live)
		clear(q.buf[n:])
	} else {
		buf := make([]E, len(live), 2*cap(q.buf))
		n = copy(buf, live)
		q.buf = buf
	}
	q.buf, q.head = q.buf[:n], 0
}

// setLive stores the live window an insertion returned. Behind a nonzero
// head, reserve left room, so the insertion extended the buffer in place.
func (q *Queue[E]) setLive(live []E) {
	if q.head == 0 {
		q.buf = live
		return
	}
	q.buf = q.buf[:q.head+len(live)]
}

// kindSet is a set of device kinds: bit k stands for machine.DeviceKind k.
type kindSet uint8

func (s kindSet) has(k machine.DeviceKind) bool { return s&(1<<k) != 0 }

// mainKinds is the set of device kinds t's main implementation runs on.
func mainKinds(t *rt.Task) kindSet {
	var s kindSet
	for _, d := range t.Type.Main().Devices {
		s |= 1 << d
	}
	return s
}

// upKinds is the set of device kinds with at least one up worker.
func upKinds(r *rt.Runtime) kindSet {
	var s kindSet
	for _, w := range r.Workers() {
		if !w.Down() {
			s |= 1 << w.Kind()
		}
	}
	return s
}

// readyQueue is a central ready queue of tasks the baseline policies run
// by their main implementation. It behaves exactly like one global list
// — kept in InsertByPriority order (FIFO) or as a push-down stack (LIFO)
// — that a worker scans from the front (or the top) for the first task
// its device kind can run. Instead of scanning, it keeps one class per
// distinct device set of the queued tasks' main implementations
// (typically one to three), each ordered the same way and stamped with a
// global push sequence number. pop compares only the heads of the
// classes the worker's kind belongs to, so a dispatch costs O(classes)
// whatever the backlog, and returns the task the scan would have.
type readyQueue struct {
	lifo    bool
	seq     uint64
	classes []readyClass
}

// readyClass is the part of a readyQueue whose tasks' main
// implementations run on exactly the device kinds in kinds.
type readyClass struct {
	kinds kindSet
	q     Queue[queued]
}

// queued is a task with its readyQueue push sequence number.
type queued struct {
	t   *rt.Task
	seq uint64
}

func queuedPriority(e queued) int { return e.t.Priority }

// push queues a ready task.
func (rq *readyQueue) push(t *rt.Task) {
	rq.seq++
	e := queued{t, rq.seq}
	q := rq.class(mainKinds(t))
	if rq.lifo {
		q.Append(e)
	} else {
		q.Push(e, queuedPriority)
	}
}

// class returns the queue of the class for kinds, adding it if new.
func (rq *readyQueue) class(kinds kindSet) *Queue[queued] {
	for i := range rq.classes {
		if rq.classes[i].kinds == kinds {
			return &rq.classes[i].q
		}
	}
	rq.classes = append(rq.classes, readyClass{kinds: kinds})
	return &rq.classes[len(rq.classes)-1].q
}

// pop removes and returns the task a worker of the given kind takes
// next, or nil if no queued task's main implementation runs on it: in
// FIFO order the highest priority, oldest among equals; in LIFO order
// the newest.
func (rq *readyQueue) pop(kind machine.DeviceKind) *rt.Task {
	var best *Queue[queued]
	var head queued
	for i := range rq.classes {
		c := &rq.classes[i]
		if !c.kinds.has(kind) || c.q.Len() == 0 {
			continue
		}
		items := c.q.Items()
		e := items[0]
		if rq.lifo {
			e = items[len(items)-1]
		}
		if best == nil || rq.before(e, head) {
			best, head = &c.q, e
		}
	}
	if best == nil {
		return nil
	}
	if rq.lifo {
		best.PopBack()
	} else {
		best.PopFront()
	}
	return head.t
}

// before reports whether a is dispatched ahead of b.
func (rq *readyQueue) before(a, b queued) bool {
	if rq.lifo {
		return a.seq > b.seq
	}
	if a.t.Priority != b.t.Priority {
		return a.t.Priority > b.t.Priority
	}
	return a.seq < b.seq
}

// stranded appends to out the queued tasks whose main implementation
// runs on none of the kinds in up.
func (rq *readyQueue) stranded(up kindSet, out []*rt.Task) []*rt.Task {
	for i := range rq.classes {
		if c := &rq.classes[i]; c.kinds&up == 0 {
			for _, e := range c.q.Items() {
				out = append(out, e.t)
			}
		}
	}
	return out
}

// workerQueues are per-worker task queues indexed by the dense worker ID.
type workerQueues []Queue[*rt.Task]

func newWorkerQueues(r *rt.Runtime) workerQueues {
	return make(workerQueues, len(r.Workers()))
}

// stealVictim returns the queue of the same-kind peer of w holding the
// most tasks, the lowest worker ID among equals, or nil if every such
// queue is empty.
func (qs workerQueues) stealVictim(r *rt.Runtime, w *rt.Worker) *Queue[*rt.Task] {
	var victim *Queue[*rt.Task]
	for _, other := range r.Workers() {
		if other.ID() == w.ID() || other.Kind() != w.Kind() {
			continue
		}
		if q := &qs[other.ID()]; q.Len() > 0 && (victim == nil || q.Len() > victim.Len()) {
			victim = q
		}
	}
	return victim
}

// stranded appends to out the tasks queued on workers whose device kind
// has no up worker left to run or steal them.
func (qs workerQueues) stranded(r *rt.Runtime, up kindSet, out []*rt.Task) []*rt.Task {
	for _, w := range r.Workers() {
		if !up.has(w.Kind()) {
			out = append(out, qs[w.ID()].Items()...)
		}
	}
	return out
}

// mainAssignment runs t's main implementation; a nil t leaves the worker
// idle.
func mainAssignment(t *rt.Task) rt.Assignment {
	if t == nil {
		return rt.Assignment{}
	}
	return rt.Assignment{Task: t, Version: t.Type.Main()}
}
