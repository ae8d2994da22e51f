// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event heap ordered by (time, sequence), and a
// coroutine facility used to model blocking "master threads" (application
// code that submits tasks and blocks in taskwait).
//
// All simulated components (workers, DMA engines, schedulers) are event
// handlers: they never sleep on the wall clock, they schedule callbacks at
// future virtual times. Determinism is guaranteed because ties in time are
// broken by a monotonically increasing sequence number, and coroutines are
// resumed synchronously from within event handlers.
//
// The engine is the innermost loop of every campaign cell, so its data
// structures are flat and pooled: event records live in a reusable slab
// (a freelist recycles slots, so steady-state scheduling allocates
// nothing) and the priority queue is a slice of packed (time, seq, slot)
// entries sifted in place — no per-event heap allocation, no
// container/heap interface calls, and comparisons touch one contiguous
// array instead of chasing pointers.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute virtual time stamp, in nanoseconds since the start
// of the simulation. It is kept distinct from time.Duration so that
// absolute instants and durations cannot be mixed up silently.
type Time int64

// Duration re-exports time.Duration for convenience: all durations in the
// simulator are ordinary time.Durations.
type Duration = time.Duration

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the instant expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Duration converts the instant (time since simulation start) into a
// duration.
func (t Time) Duration() Duration { return Duration(t) }

func (t Time) String() string { return Duration(t).String() }

// event is one pooled event slot. The seq doubles as the slot's
// generation: it changes every time the slot is reused, so a stale
// EventID can never cancel the slot's next tenant.
type event struct {
	seq  uint64
	fn   func()
	dead bool // cancelled
}

// heapEntry is one priority-queue element: the ordering key (at, seq)
// packed next to the slot index, so sift comparisons never touch the
// event slab.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

// EventID identifies a scheduled event so it can be cancelled.
type EventID struct {
	e   *Engine
	idx int32
	seq uint64
}

// Cancel marks the event dead; a dead event is skipped when popped.
// Cancelling an already-fired or already-cancelled event is a no-op.
func (id EventID) Cancel() {
	if id.e == nil {
		return
	}
	ev := &id.e.events[id.idx]
	if ev.seq == id.seq { // still the same tenant, not yet fired
		ev.dead = true
	}
}

// Engine is the discrete-event simulation core. The zero value is not
// usable; call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	events  []event     // slot slab; grows once, slots recycle
	free    []int32     // recycled slot indexes
	heap    []heapEntry // binary min-heap ordered by (at, seq)
	procs   []*Proc
	running bool
	stopped bool

	// EventCount is the total number of events executed so far.
	EventCount uint64

	// OnDeadlock, if set, explains a deadlock: when Run drains with
	// coroutines still parked, a non-nil error it returns is Run's panic
	// value instead of the generic diagnostic.
	OnDeadlock func() error
}

// NewEngine returns an engine with the clock at zero and no pending
// events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (t < Now) panics: that is always a simulation bug.
func (e *Engine) At(t Time, fn func()) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v, before now %v", t, e.now))
	}
	e.seq++
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.events = append(e.events, event{})
		idx = int32(len(e.events) - 1)
	}
	e.events[idx] = event{seq: e.seq, fn: fn}
	e.heapPush(heapEntry{at: t, seq: e.seq, idx: idx})
	return EventID{e: e, idx: idx, seq: e.seq}
}

// After schedules fn to run d after the current time. Negative durations
// panic.
func (e *Engine) After(d Duration, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// Immediately schedules fn at the current time, after all callbacks
// already scheduled for this instant.
func (e *Engine) Immediately(fn func()) EventID {
	return e.At(e.now, fn)
}

// Stop makes Run return after the current event completes. Pending events
// stay queued.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of live events in the queue.
func (e *Engine) Pending() int {
	n := 0
	for _, he := range e.heap {
		if !e.events[he.idx].dead {
			n++
		}
	}
	return n
}

// --- flat binary heap over (at, seq) ---

func heapLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(he heapEntry) {
	h := append(e.heap, he)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

func (e *Engine) heapPop() heapEntry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && heapLess(h[r], h[l]) {
			child = r
		}
		if !heapLess(h[child], h[i]) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	e.heap = h
	return top
}

// Run processes events in (time, seq) order until no events remain or
// Stop is called. Before the first event, every spawned coroutine is
// given its initial slice of execution (at time zero). Run returns the
// final virtual time.
//
// If Run drains all events while some coroutine is still parked, the
// simulation has deadlocked; Run panics with a diagnostic listing the
// parked coroutines (or the error OnDeadlock returns), since silently
// returning would hide lost wake-ups.
func (e *Engine) Run() Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()

	// Give every not-yet-started coroutine its initial run.
	for _, p := range e.procs {
		if !p.started {
			p.start()
		}
	}

	for len(e.heap) > 0 && !e.stopped {
		he := e.heapPop()
		ev := &e.events[he.idx]
		fn, dead := ev.fn, ev.dead
		// Recycle the slot before running fn: fn may schedule new
		// events, and the bumped seq keeps stale EventIDs harmless.
		ev.fn = nil
		ev.dead = false
		e.free = append(e.free, he.idx)
		if dead {
			continue
		}
		if he.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = he.at
		e.EventCount++
		fn()
	}

	if !e.stopped {
		var parked []string
		for _, p := range e.procs {
			if p.started && !p.finished {
				parked = append(parked, p.name)
			}
		}
		if len(parked) > 0 {
			if e.OnDeadlock != nil {
				if err := e.OnDeadlock(); err != nil {
					panic(err)
				}
			}
			panic(fmt.Sprintf("sim: deadlock: event queue empty but coroutines still parked: %v", parked))
		}
	}
	return e.now
}
