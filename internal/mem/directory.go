// Package mem implements the OmpSs memory model: data objects live in
// host memory (their home) and may be replicated into device memory
// spaces. A directory tracks, per object, which spaces hold a valid copy
// and whether the freshest copy is a device copy (dirty). The runtime
// asks the directory to make a task's data available in the executing
// device's space; the directory issues the minimal transfers through the
// xfer fabric, counts them in the paper's Input/Output/Device categories,
// and writes dirty data back on taskwait (flush).
//
// Device memory is finite: copies are reference-counted (pinned) while
// tasks use them and evicted LRU when space is needed, with dirty copies
// written back to host first.
//
// The directory sits on the scheduler's hot path (BytesNeeded is called
// per candidate worker per scheduling decision), so each object's entry
// is stored by value in fixed-size slabs indexed by the dense ObjectID,
// with its packed per-space records (indexed by the dense
// machine.SpaceID) carved from shared slabs: no maps, no per-object heap
// record, no per-access allocation. A copy-in in flight borrows a record
// from the directory's pool, whose continuations are bound once. Recycle
// hands the slabs to the next directory in the process.
package mem

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/xfer"
)

// AccessMode describes how a task uses an object, mirroring the OmpSs
// dependence clauses.
type AccessMode int

const (
	// Read corresponds to input: the task only reads the object.
	Read AccessMode = iota
	// Write corresponds to output: the task overwrites the whole object,
	// so no copy-in is needed.
	Write
	// ReadWrite corresponds to inout.
	ReadWrite
	// Commutative corresponds to the OmpSs commutative clause: the task
	// reads and updates the object, tasks in the same commutative group
	// may run in any order, and the runtime serializes them (mutual
	// exclusion) instead of ordering them by submission. For the
	// directory it behaves exactly like ReadWrite; the relaxation lives
	// in the dependence tracker and the runtime's commutative locks.
	Commutative
)

// String returns the OmpSs clause name for the mode.
func (m AccessMode) String() string {
	switch m {
	case Read:
		return "input"
	case Write:
		return "output"
	case ReadWrite:
		return "inout"
	case Commutative:
		return "commutative"
	default:
		return fmt.Sprintf("AccessMode(%d)", int(m))
	}
}

// Reads reports whether the mode requires a valid copy before execution.
func (m AccessMode) Reads() bool { return m == Read || m == ReadWrite || m == Commutative }

// Writes reports whether the mode produces new data.
func (m AccessMode) Writes() bool { return m == Write || m == ReadWrite || m == Commutative }

// ObjectID identifies a registered data object.
type ObjectID int

// Object is one unit of coherence: a tile, a vector, a whole matrix —
// whatever the application passes as a dependence region. Size is the
// footprint transferred when the object moves between spaces.
type Object struct {
	ID   ObjectID
	Name string
	Size int64
}

func (o *Object) String() string { return fmt.Sprintf("%s(#%d,%dB)", o.Name, o.ID, o.Size) }

// spaceState is the per-(object, space) directory record. reserved tracks
// bytes charged to the space so eviction and invalidation release exactly
// what allocation charged.
type spaceState struct {
	valid    bool
	reserved bool
	pins     int32
	lastUse  sim.Time
	copy     *copyIn // the copy-in to this space in flight, or nil
}

// objState is the directory entry for one object: the object itself and
// one packed record per memory space, indexed by the dense SpaceID.
type objState struct {
	obj    Object
	dirty  bool // the unique valid copy is a device copy newer than host
	spaces []spaceState
}

// copyIn is one copy-in of an object to a space. Readers that find the
// copy in flight join its waiters. Records come from the directory's
// pool, and each binds its continuations once: fetch issues the transfer
// once memory is charged, and arrive completes it.
type copyIn struct {
	st            *objState
	sp            machine.SpaceID
	waiters       []func()
	fetch, arrive func()
}

func (s *objState) dirtyOwner() machine.SpaceID {
	if !s.dirty {
		return machine.HostSpace
	}
	// A dirty object may be valid in several device spaces (a peer read
	// replicates the dirty copy); scan upward from the lowest-numbered
	// device space so the writeback source — and with it the whole trace
	// — is deterministic.
	for sp := int(machine.HostSpace) + 1; sp < len(s.spaces); sp++ {
		if s.spaces[sp].valid {
			return machine.SpaceID(sp)
		}
	}
	panic(fmt.Sprintf("mem: object %v marked dirty but no device copy", &s.obj))
}

// pendingAlloc is an allocation of st's size in space sp waiting for
// device memory to free up; fn runs once it is charged.
type pendingAlloc struct {
	st *objState
	sp machine.SpaceID
	fn func()
}

// The slab sizes and the free lists Recycle returns slabs to. The
// largest paper-size Section V cell, matmul-hyb at full size, registers
// 768 objects on 3 memory spaces (2 GPUs): 3 object-entry slabs and 3
// space-record slabs (2,304 records). Objects register when a runtime
// is built, so a chaos cell's baseline pre-run fills a second directory
// while the faulted run's holds its slabs; the caps hold both (6 and 6,
// ~240 KB in all). A serial campaign of cells up to that size draws no
// directory slab after its first cell.
const (
	objChunk   = 256
	spaceChunk = 1024
)

var (
	objSlabs   = slab.New[objState](objChunk, 6)
	spaceSlabs = slab.New[spaceState](spaceChunk, 6)
)

// Directory is the coherence directory for all registered objects.
type Directory struct {
	eng    *sim.Engine
	mach   *machine.Machine
	fabric *xfer.Fabric

	// objects holds every registered object's entry, indexed by ObjectID;
	// spaces holds their per-space records, len(mach.Spaces) per object.
	objects slab.Arena[objState]
	spaces  slab.Arena[spaceState]
	count   int // registered objects

	used []int64 // bytes charged per space, indexed by SpaceID
	// pending holds the parked allocations; retryPending swaps it with
	// retry so re-parking allocates nothing.
	pending, retry []pendingAlloc
	// copies is the pool of idle copy-in records.
	copies []*copyIn

	// Evictions counts LRU evictions per space, indexed by SpaceID, for
	// diagnostics.
	Evictions []int64
}

// NewDirectory builds an empty directory over the given fabric.
func NewDirectory(e *sim.Engine, m *machine.Machine, f *xfer.Fabric) *Directory {
	return &Directory{
		eng:       e,
		mach:      m,
		fabric:    f,
		objects:   slab.NewArena(objSlabs),
		spaces:    slab.NewArena(spaceSlabs),
		used:      make([]int64, len(m.Spaces)),
		Evictions: make([]int64, len(m.Spaces)),
	}
}

// Recycle returns the directory's slabs, zeroed, to the free lists the
// next directory in the process draws from. The directory and every
// *Object it registered are unusable afterwards; call it only once
// nothing will read them again.
func (d *Directory) Recycle() {
	d.objects.Release()
	d.spaces.Release()
}

// Register creates a new object resident (valid) in host memory. The
// returned pointer stays valid until Recycle.
func (d *Directory) Register(name string, size int64) *Object {
	if size < 0 {
		panic("mem: negative object size")
	}
	st := d.objects.New()
	st.obj = Object{ID: ObjectID(d.count), Name: name, Size: size}
	st.spaces = d.spaces.Alloc(len(d.mach.Spaces))
	d.count++
	host := &st.spaces[machine.HostSpace]
	host.valid = true
	host.reserved = true
	d.used[machine.HostSpace] += size
	return &st.obj
}

// state returns the entry of the object with the given ID.
func (d *Directory) state(id ObjectID) *objState { return d.objects.At(int(id)) }

// Object returns the registered object with the given ID.
func (d *Directory) Object(id ObjectID) *Object { return &d.state(id).obj }

// NumObjects returns how many objects are registered.
func (d *Directory) NumObjects() int { return d.count }

// ValidAt reports whether the object has an up-to-date copy in the space.
func (d *Directory) ValidAt(obj *Object, sp machine.SpaceID) bool {
	return d.state(obj.ID).spaces[sp].valid
}

// Dirty reports whether the freshest copy of the object is a device copy.
func (d *Directory) Dirty(obj *Object) bool { return d.state(obj.ID).dirty }

// UsedBytes returns the bytes currently charged against a space.
func (d *Directory) UsedBytes(sp machine.SpaceID) int64 { return d.used[sp] }

// BytesNeeded returns how many bytes would have to be copied into the
// space for a task accessing the object with the given mode. Write-only
// accesses and already-valid (or already-incoming) copies cost zero.
// This is the quantity the affinity scheduler minimizes.
func (d *Directory) BytesNeeded(obj *Object, sp machine.SpaceID, mode AccessMode) int64 {
	if !mode.Reads() {
		return 0
	}
	ss := &d.state(obj.ID).spaces[sp]
	if ss.valid || ss.copy != nil {
		return 0
	}
	return obj.Size
}

// Acquire makes the object usable by a task running in space sp with the
// given mode, and pins it there until Release. onReady fires (as a
// simulation event) once any required copy-in has completed. Acquire may
// be called for several objects concurrently; completions are independent.
func (d *Directory) Acquire(obj *Object, sp machine.SpaceID, mode AccessMode, onReady func()) {
	if onReady == nil {
		onReady = func() {}
	}
	st := d.state(obj.ID)
	ss := &st.spaces[sp]
	ss.pins++
	ss.lastUse = d.eng.Now()

	needCopy := mode.Reads() && !ss.valid
	if !needCopy {
		// Write-only still needs backing store in the space. The common
		// case — already charged, or chargeable without waiting — completes
		// without allocating a continuation.
		if d.tryAllocate(st, sp) {
			d.eng.Immediately(onReady)
			return
		}
		d.ensureAllocated(st, sp, func() {
			d.eng.Immediately(onReady)
		})
		return
	}
	if ss.copy != nil {
		ss.copy.waiters = append(ss.copy.waiters, onReady)
		return
	}
	c := d.newCopyIn()
	c.st, c.sp = st, sp
	c.waiters = append(c.waiters, onReady)
	ss.copy = c
	d.ensureAllocated(st, sp, c.fetch)
}

// newCopyIn returns an idle copy-in record from the pool, or a new one
// with its continuations bound.
func (d *Directory) newCopyIn() *copyIn {
	if n := len(d.copies); n > 0 {
		c := d.copies[n-1]
		d.copies = d.copies[:n-1]
		return c
	}
	c := &copyIn{}
	c.fetch = func() {
		d.fabric.Transfer(d.pickSource(c.st), c.sp, c.st.obj.Size, c.st.obj.Name, c.arrive)
	}
	c.arrive = func() { d.arrive(c) }
	return c
}

// arrive completes copy-in c: the space's copy turns valid, the waiters
// run, and the record returns to the pool.
func (d *Directory) arrive(c *copyIn) {
	st, sp := c.st, c.sp
	ss := &st.spaces[sp]
	ss.valid = true
	ss.copy = nil
	if sp == machine.HostSpace {
		// Pulling a dirty object home is an implicit writeback: host
		// now holds the freshest data, so a later flush must not
		// transfer it again.
		st.dirty = false
	}
	for _, w := range c.waiters {
		w()
	}
	clear(c.waiters)
	c.waiters, c.st = c.waiters[:0], nil
	d.copies = append(d.copies, c)
}

// pickSource chooses where to copy a missing object from: host if the
// host copy is valid, otherwise the (unique or lowest-numbered) device
// copy. Deterministic by construction.
func (d *Directory) pickSource(st *objState) machine.SpaceID {
	for sp := range st.spaces {
		if st.spaces[sp].valid {
			return machine.SpaceID(sp)
		}
	}
	panic(fmt.Sprintf("mem: object %v has no valid copy anywhere", &st.obj))
}

// Release unpins the object from a space, making its copy evictable, and
// retries any allocations that were waiting for memory.
func (d *Directory) Release(obj *Object, sp machine.SpaceID) {
	ss := &d.state(obj.ID).spaces[sp]
	if ss.pins <= 0 {
		panic(fmt.Sprintf("mem: Release of unpinned object %v at space %d", obj, sp))
	}
	ss.pins--
	ss.lastUse = d.eng.Now()
	d.retryPending()
}

// CommitWrite records that a task running in space sp has written the
// object: sp now holds the only valid copy and every other replica is
// invalidated (and its device memory freed).
func (d *Directory) CommitWrite(obj *Object, sp machine.SpaceID) {
	st := d.state(obj.ID)
	for other := range st.spaces {
		os := &st.spaces[other]
		if !os.valid || machine.SpaceID(other) == sp {
			continue
		}
		if os.pins > 0 {
			panic(fmt.Sprintf("mem: invalidating pinned copy of %v at space %d (dependence bug)", obj, other))
		}
		os.valid = false
		d.unreserve(st, machine.SpaceID(other))
	}
	ss := &st.spaces[sp]
	ss.valid = true
	d.reserve(st, sp) // ensure accounted (Write-only path allocated already, this is idempotent)
	st.dirty = sp != machine.HostSpace
	ss.lastUse = d.eng.Now()
	d.retryPending()
}

// FlushAll writes every dirty object back to host memory and calls onDone
// when the last writeback completes. Device copies stay valid (clean).
// This is the taskwait flush; with no dirty data onDone fires immediately
// as an event.
func (d *Directory) FlushAll(onDone func()) {
	var dirtyObjs []*objState
	for id := range d.count {
		if st := d.state(ObjectID(id)); st.dirty {
			dirtyObjs = append(dirtyObjs, st)
		}
	}
	d.flushSet(dirtyObjs, onDone)
}

// FlushObject writes one object back if dirty (taskwait on(x)).
func (d *Directory) FlushObject(obj *Object, onDone func()) {
	st := d.state(obj.ID)
	if st.dirty {
		d.flushSet([]*objState{st}, onDone)
	} else {
		d.flushSet(nil, onDone)
	}
}

// flushSet writes set back to host. Callers pass it in ObjectID order,
// which is the order the writebacks are issued in.
func (d *Directory) flushSet(set []*objState, onDone func()) {
	if len(set) == 0 {
		d.eng.Immediately(func() {
			if onDone != nil {
				onDone()
			}
		})
		return
	}
	remaining := len(set)
	for _, st := range set {
		owner := st.dirtyOwner()
		d.fabric.Transfer(owner, machine.HostSpace, st.obj.Size, st.obj.Name, func() {
			st.spaces[machine.HostSpace].valid = true
			st.dirty = false
			remaining--
			if remaining == 0 && onDone != nil {
				onDone()
			}
		})
	}
}

// DirtyBytes returns the total size of objects whose freshest copy is on
// a device (i.e. what a flush would move).
func (d *Directory) DirtyBytes() int64 {
	var sum int64
	for id := range d.count {
		if st := d.state(ObjectID(id)); st.dirty {
			sum += st.obj.Size
		}
	}
	return sum
}

// --- allocation and eviction ---

func (d *Directory) reserve(st *objState, sp machine.SpaceID) {
	ss := &st.spaces[sp]
	if !ss.reserved {
		ss.reserved = true
		d.used[sp] += st.obj.Size
	}
}

func (d *Directory) unreserve(st *objState, sp machine.SpaceID) {
	ss := &st.spaces[sp]
	if ss.reserved {
		ss.reserved = false
		d.used[sp] -= st.obj.Size
	}
}

// tryAllocate charges the object's size against the space (unless already
// charged), evicting LRU unpinned copies if needed. It returns false —
// charging nothing — when even eviction cannot make room, in which case
// the caller must park the request via ensureAllocated.
func (d *Directory) tryAllocate(st *objState, sp machine.SpaceID) bool {
	if st.spaces[sp].reserved {
		return true
	}
	capacity := d.mach.Space(sp).Capacity
	if sp == machine.HostSpace || capacity <= 0 {
		d.reserve(st, sp)
		return true
	}
	if d.used[sp]+st.obj.Size > capacity {
		d.evictLRU(sp, d.used[sp]+st.obj.Size-capacity)
	}
	if d.used[sp]+st.obj.Size > capacity {
		return false
	}
	d.reserve(st, sp)
	return true
}

// ensureAllocated charges the object's size against the space (unless
// already charged) and runs fn. If the space is over capacity it evicts
// LRU unpinned copies; if that is not enough the request parks until a
// Release or CommitWrite frees memory.
func (d *Directory) ensureAllocated(st *objState, sp machine.SpaceID, fn func()) {
	if d.tryAllocate(st, sp) {
		fn()
		return
	}
	d.pending = append(d.pending, pendingAlloc{st: st, sp: sp, fn: fn})
}

// evictLRU frees at least `need` bytes in the space by dropping the least
// recently used unpinned, non-incoming copies. Dirty victims are written
// back to host first (synchronously in directory state; the writeback
// transfer is issued and the copy is considered gone immediately, which
// models an eager writeback queue).
func (d *Directory) evictLRU(sp machine.SpaceID, need int64) {
	type victim struct {
		st   *objState
		last sim.Time
	}
	var victims []victim
	for id := range d.count {
		st := d.state(ObjectID(id))
		if ss := &st.spaces[sp]; ss.valid && ss.pins == 0 && ss.copy == nil {
			victims = append(victims, victim{st, ss.lastUse})
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].last != victims[j].last {
			return victims[i].last < victims[j].last
		}
		return victims[i].st.obj.ID < victims[j].st.obj.ID
	})
	var freed int64
	for _, v := range victims {
		if freed >= need {
			break
		}
		st := v.st
		if st.dirty && st.dirtyOwner() == sp {
			// Writeback before dropping the only fresh copy.
			d.fabric.Transfer(sp, machine.HostSpace, st.obj.Size, st.obj.Name, nil)
			st.spaces[machine.HostSpace].valid = true
			st.dirty = false
		}
		st.spaces[sp].valid = false
		d.unreserve(st, sp)
		d.Evictions[sp]++
		freed += st.obj.Size
	}
}

// retryPending re-attempts parked allocations after memory was freed.
func (d *Directory) retryPending() {
	if len(d.pending) == 0 {
		return
	}
	pend := d.pending
	d.pending, d.retry = d.retry[:0], nil
	for _, p := range pend {
		d.ensureAllocated(p.st, p.sp, p.fn) // re-parks if still full
	}
	clear(pend)
	d.retry = pend[:0]
}

// PendingAllocs reports how many allocation requests are parked waiting
// for device memory.
func (d *Directory) PendingAllocs() int { return len(d.pending) }
