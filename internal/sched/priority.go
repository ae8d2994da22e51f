package sched

import "repro/internal/rt"

// InsertByPriority inserts e into a ready queue ordered by descending
// priority, keeping FIFO order among equal priorities (the OmpSs
// priority clause semantics). priority reads an element's priority, so
// one helper serves plain task queues and the versioning scheduler's
// decision queues alike. It returns the updated slice.
func InsertByPriority[E any](queue []E, e E, priority func(E) int) []E {
	p := priority(e)
	i := len(queue)
	for i > 0 && priority(queue[i-1]) < p {
		i--
	}
	var zero E
	queue = append(queue, zero)
	copy(queue[i+1:], queue[i:])
	queue[i] = e
	return queue
}

// taskPriority is the priority of a plain task queue's element.
func taskPriority(t *rt.Task) int { return t.Priority }
