// Package slab keeps the bounded free lists through which a finished
// run's arena slabs reach the next runtime in the process. The task
// runtime (tasks, successor edges, pred IDs), the dependence tracker
// (nodes, per-object histories and their reader/writer entries) and the
// memory directory (per-object entries and their per-space records) hand
// out their records from fixed-size slabs through an Arena; a run that
// finishes cleanly returns them here, and the next runtime draws from the
// list before it allocates, so a campaign's serial cells stop allocating,
// zeroing and garbage-collecting the same few megabytes per cell.
//
// A FreeList is a mutex-guarded stack, not a sync.Pool: the garbage
// collector does not empty it while runs use it, so warm allocation
// counts stay a function of the sequence of runs, and Put needs no
// boxing. Each list is capped, so a process keeps at most one large
// cell's worth of slabs, and a list no run has touched for idleCycles
// garbage-collection cycles drops its slabs, so a process that stops
// simulating stops paying to mark them.
package slab

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// idleCycles is how many consecutive GC cycles a free list may see no
// Get or Put before it drops its slabs. A process that has stopped
// simulating (a campaign whose cells are all cached, say) keeps a heap
// small enough that marking even a few retained slabs slows it: 168 KB
// of them cost a warm 96-cell HTTP campaign ~5% per op. Runs touch
// their lists at every slab they draw and at release, and between one
// run's release and the next run's first draw a serial campaign
// normally passes at most one cycle, so busy lists keep their slabs.
const idleCycles = 3

// FreeList recycles slabs of one fixed length. It is safe for
// concurrent use: campaigns run cells on parallel goroutines.
type FreeList[T any] struct {
	size, max int

	mu   sync.Mutex
	free [][]T
	used bool // a Get or Put since the last GC cycle
	idle int  // consecutive GC cycles without one
}

type freeList interface {
	drain() int
	age()
}

var (
	regMu    sync.Mutex
	registry []freeList
)

func init() { watchGC() }

// gcTick exists only to be collected: its finalizer runs once per GC
// cycle, ages every free list and arms the next tick. (It holds a
// pointer so the tiny allocator, whose objects may never be finalized,
// does not place it.)
type gcTick struct{ _ *byte }

func watchGC() {
	runtime.SetFinalizer(&gcTick{}, func(*gcTick) {
		regMu.Lock()
		for _, f := range registry {
			f.age()
		}
		regMu.Unlock()
		watchGC()
	})
}

// New returns an empty free list of size-element slabs holding at most
// max of them. size must be a power of two, so Arena.At can index
// without dividing.
func New[T any](size, max int) *FreeList[T] {
	if size <= 0 || size&(size-1) != 0 {
		panic(fmt.Sprintf("slab: slab size %d is not a power of two", size))
	}
	f := &FreeList[T]{size: size, max: max}
	regMu.Lock()
	registry = append(registry, f)
	regMu.Unlock()
	return f
}

// Get returns a zeroed slab of the list's size: the most recently
// returned one, or a fresh allocation when the list is empty.
func (f *FreeList[T]) Get() []T {
	f.mu.Lock()
	f.used = true
	if n := len(f.free); n > 0 {
		s := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		f.mu.Unlock()
		return s
	}
	f.mu.Unlock()
	return make([]T, f.size)
}

// Put zeroes s and keeps it for a later Get, so the list never holds a
// finished run's pointers alive. Slabs of another length (oversized
// one-off allocations) and slabs beyond the cap are left to the garbage
// collector.
func (f *FreeList[T]) Put(s []T) {
	if len(s) != f.size {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.used = true
	if len(f.free) < f.max {
		clear(s)
		f.free = append(f.free, s)
	}
}

func (f *FreeList[T]) drain() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.free)
	f.free = nil
	return n
}

// age runs once per GC cycle and drops the slabs of a list that has
// gone idleCycles cycles untouched.
func (f *FreeList[T]) age() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.used {
		f.used, f.idle = false, 0
		return
	}
	if f.idle++; f.idle >= idleCycles {
		f.free = nil
	}
}

// Drain empties every free list and returns how many slabs they held. A
// runtime built right after Drain allocates all of its slabs fresh, which
// is how tests obtain a reference run to compare recycled runs against.
func Drain() int {
	regMu.Lock()
	defer regMu.Unlock()
	n := 0
	for _, f := range registry {
		n += f.drain()
	}
	return n
}

// Arena hands out single elements and capped windows from slabs it draws
// from one FreeList, and returns every slab it drew on Release. Slots are
// never reused before Release, so pointers into them stay valid until
// then. The zero Arena has no list; build one with NewArena.
type Arena[T any] struct {
	list  *FreeList[T]
	slabs [][]T // every slab drawn, in order
	rest  []T   // the unused tail of the last one
	shift int   // log2 of the slab size
}

// NewArena returns an empty arena drawing from list.
func NewArena[T any](list *FreeList[T]) Arena[T] {
	return Arena[T]{list: list, shift: bits.TrailingZeros(uint(list.size))}
}

func (a *Arena[T]) grow() {
	a.rest = a.list.Get()
	a.slabs = append(a.slabs, a.rest)
}

// New returns a zeroed element.
func (a *Arena[T]) New() *T {
	if len(a.rest) == 0 {
		a.grow()
	}
	p := &a.rest[0]
	a.rest = a.rest[1:]
	return p
}

// Alloc returns a zeroed n-element window, capped so appends cannot
// bleed into the next handout. A window that does not fit in the rest of
// the current slab starts the next one; a window larger than a slab is
// allocated on its own and left to the garbage collector.
func (a *Arena[T]) Alloc(n int) []T {
	if n > len(a.rest) {
		if n > a.list.size {
			return make([]T, n)
		}
		a.grow()
	}
	w := a.rest[:n:n]
	a.rest = a.rest[n:]
	return w
}

// At returns the i-th element New handed out. It is meaningful only for
// an arena that hands out nothing but single elements, which fill each
// slab in order.
func (a *Arena[T]) At(i int) *T {
	return &a.slabs[i>>a.shift][i&(1<<a.shift-1)]
}

// Release returns every slab the arena drew, zeroed, to its free list
// and leaves the arena empty and ready for reuse. Nothing it handed out
// may be used afterwards.
func (a *Arena[T]) Release() {
	for _, s := range a.slabs {
		a.list.Put(s)
	}
	clear(a.slabs)
	a.slabs, a.rest = a.slabs[:0], nil
}
