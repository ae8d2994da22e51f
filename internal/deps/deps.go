// Package deps implements StarSs/OmpSs dependence analysis. Tasks declare
// accesses (input / output / inout) over byte ranges of data objects; the
// tracker registers each submitted task against the per-object access
// history and returns the set of earlier tasks it must wait for:
//
//   - a reader depends on every earlier writer whose written range
//     overlaps the read range (RAW);
//   - a writer depends on every earlier writer (WAW) and every reader
//     since that writer (WAR) overlapping the written range.
//
// Ranges are arbitrary byte intervals, so the tracker supports OmpSs
// array-section dependences; whole-object accesses are the common case
// (tiles). The resulting graph is a DAG by construction (dependencies
// always point to previously submitted tasks).
package deps

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/slab"
)

// Node is the opaque handle the runtime registers tasks under (the
// runtime uses *rt.Task pointers). The tracker never compares Node
// values: Add gives every node it registers a dense index of its own, so
// each Add call registers a new node even if the value was seen before.
type Node any

// Access is one dependence clause of a task: a mode over a byte range of
// an object. Len == 0 means "the whole object".
type Access struct {
	Obj  *mem.Object
	Off  int64
	Len  int64
	Mode mem.AccessMode
}

// Normalize returns the concrete [lo, hi) interval of the access.
func (a Access) Normalize() (lo, hi int64) {
	if a.Len == 0 {
		size := a.Obj.Size
		if size <= 0 {
			size = 1 // zero-sized objects still conflict as a unit
		}
		return 0, size
	}
	if a.Off < 0 || a.Len < 0 {
		panic(fmt.Sprintf("deps: negative access range off=%d len=%d", a.Off, a.Len))
	}
	return a.Off, a.Off + a.Len
}

func (a Access) String() string {
	lo, hi := a.Normalize()
	return fmt.Sprintf("%s(%s[%d:%d])", a.Mode, a.Obj.Name, lo, hi)
}

// In builds an input (read) access over a whole object.
func In(obj *mem.Object) Access { return Access{Obj: obj, Mode: mem.Read} }

// Out builds an output (write) access over a whole object.
func Out(obj *mem.Object) Access { return Access{Obj: obj, Mode: mem.Write} }

// InOut builds an inout access over a whole object.
func InOut(obj *mem.Object) Access { return Access{Obj: obj, Mode: mem.ReadWrite} }

// InRange, OutRange and InOutRange build accesses over a byte sub-range.
func InRange(obj *mem.Object, off, length int64) Access {
	return Access{Obj: obj, Off: off, Len: length, Mode: mem.Read}
}

// OutRange builds an output access over a byte sub-range.
func OutRange(obj *mem.Object, off, length int64) Access {
	return Access{Obj: obj, Off: off, Len: length, Mode: mem.Write}
}

// InOutRange builds an inout access over a byte sub-range.
func InOutRange(obj *mem.Object, off, length int64) Access {
	return Access{Obj: obj, Off: off, Len: length, Mode: mem.ReadWrite}
}

// Commutative builds a commutative access over a whole object (the OmpSs
// commutative clause). Tasks in the same commutative group carry no
// dependence edges among themselves — any execution order is legal — and
// the runtime enforces their mutual exclusion at dispatch time instead.
// Accesses before the group and after it are ordered against every
// member. Only whole-object commutative accesses are supported.
func Commutative(obj *mem.Object) Access { return Access{Obj: obj, Mode: mem.Commutative} }

// interval is a half-open byte range [lo, hi).
type interval struct{ lo, hi int64 }

func (iv interval) overlaps(other interval) bool {
	return iv.lo < other.hi && other.lo < iv.hi
}

// subtract removes cut from iv, returning the 0..2 remaining pieces in a
// fixed-size array (no allocation on the submit hot path).
func (iv interval) subtract(cut interval) (pieces [2]interval, n int) {
	if !iv.overlaps(cut) {
		pieces[0] = iv
		return pieces, 1
	}
	if iv.lo < cut.lo {
		pieces[n] = interval{iv.lo, cut.lo}
		n++
	}
	if cut.hi < iv.hi {
		pieces[n] = interval{cut.hi, iv.hi}
		n++
	}
	return pieces, n
}

// nodeID is the dense index Add gives the node it registers; history
// entries hold it instead of the Node itself.
type nodeID int32

// entry is one history record: node n last wrote (or read) iv.
type entry struct {
	iv interval
	n  nodeID
}

// objHist is the access history of one object.
type objHist struct {
	writers []entry // non-overlapping: each byte has at most one last writer
	readers []entry // readers since the last write of each byte
	// comm is the open commutative group: members carry no edges among
	// themselves. Any non-commutative access closes the group by folding
	// every member into writers (as co-last-writers of the whole object),
	// so later accesses depend on all of them.
	comm []nodeID
}

// nodeSlot is the per-node record: the registered Node and the epoch of
// the last Add that collected it as a predecessor.
type nodeSlot struct {
	n     Node
	stamp uint64
}

// The slab sizes and the free lists Release returns slabs to. Slabs are
// appended, never reallocated, so node and history storage grows by a
// fixed step instead of being copied on doubling. Each cap covers the
// larger of two cells: the pinned pbpi cell (pbpi-hyb at quick size:
// 6,625 tasks, one node each, so 26 node slabs) and the largest
// paper-size Section V cell (matmul-hyb at full size: 768 objects, so 3
// history slabs, and 4,096 tasks whose A and B tiles are each read by 16
// of them: 4 entry slabs).
const (
	nodeChunk  = 256
	histChunk  = 256
	entryChunk = 4096
)

var (
	nodeSlabs  = slab.New[nodeSlot](nodeChunk, 26)
	histSlabs  = slab.New[objHist](histChunk, 3)
	entrySlabs = slab.New[entry](entryChunk, 4)
)

// minWindow is the capacity of an object's first reader or writer window.
const minWindow = 4

// Tracker incrementally builds the task dependence graph.
type Tracker struct {
	// hist holds each object's history by value, indexed by the dense
	// mem.ObjectID and grown on demand; nhist objects have one.
	hist  slab.Arena[objHist]
	nhist int
	// entries holds the histories' reader and writer windows.
	entries slab.Arena[entry]

	// nodes holds every registered node's slot, indexed by nodeID.
	nodes slab.Arena[nodeSlot]
	count int // registered nodes
	// epoch numbers Add calls; a slot stamped with the current epoch is
	// already in preds (or is the node being added).
	epoch uint64

	// preds is the reusable result buffer Add returns slices of.
	preds []Node

	// Edges counts the total number of dependence edges produced, for
	// diagnostics.
	Edges int64
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		hist:    slab.NewArena(histSlabs),
		entries: slab.NewArena(entrySlabs),
		nodes:   slab.NewArena(nodeSlabs),
	}
}

func (t *Tracker) histFor(obj *mem.Object) *objHist {
	id := int(obj.ID)
	for id >= t.nhist {
		t.hist.New()
		t.nhist++
	}
	return t.hist.At(id)
}

// push appends e to s. A full s first moves into a window of twice its
// capacity carved from the entry slabs (or, past a slab's size, from the
// heap); the old window is not reused before Release.
func (t *Tracker) push(s []entry, e entry) []entry {
	if len(s) == cap(s) {
		s = t.widen(s)
	}
	return append(s, e)
}

// widen stays out of line so push inlines into Add.
//
//go:noinline
func (t *Tracker) widen(s []entry) []entry {
	w := t.entries.Alloc(max(2*cap(s), minWindow))
	return w[:copy(w, s)]
}

// slot returns the record of node id.
func (t *Tracker) slot(id nodeID) *nodeSlot { return t.nodes.At(int(id)) }

// register gives n the next dense index and stamps it with the current
// epoch, so the node never collects itself.
func (t *Tracker) register(n Node) nodeID {
	*t.nodes.New() = nodeSlot{n: n, stamp: t.epoch}
	t.count++
	return nodeID(t.count - 1)
}

// Release returns the tracker's slabs, zeroed, to the free lists the
// next tracker in the process draws from. The tracker is empty and
// reusable afterwards; call it only once nothing needs the dependence
// graph.
func (t *Tracker) Release() {
	t.hist.Release()
	t.entries.Release()
	t.nodes.Release()
	*t = Tracker{hist: t.hist, entries: t.entries, nodes: t.nodes}
}

// collect appends node p to the pending preds unless this Add already
// did (or p is the node being added). The epoch stamp makes the dedup
// O(1) per history entry, however long the access list.
func (t *Tracker) collect(p nodeID) {
	s := t.slot(p)
	if s.stamp == t.epoch {
		return
	}
	s.stamp = t.epoch
	t.preds = append(t.preds, s.n)
}

// Add registers a task and its accesses, returning the distinct earlier
// tasks it depends on (never including itself), in first-encountered
// order (deterministic given deterministic submission order). The
// returned slice is reused by the next Add call; callers must consume it
// before registering another task.
func (t *Tracker) Add(n Node, accs []Access) []Node {
	t.preds = t.preds[:0]
	t.epoch++
	self := t.register(n)

	for _, a := range accs {
		h := t.histFor(a.Obj)
		lo, hi := a.Normalize()
		iv := interval{lo, hi}

		if a.Mode == mem.Commutative {
			if a.Off != 0 || a.Len != 0 {
				panic(fmt.Sprintf("deps: commutative access must cover the whole object, got %v", a))
			}
			// Depend on the pre-group history only — group members are
			// not in writers/readers while the group is open, so no
			// intra-group edges arise.
			for _, w := range h.writers {
				if w.iv.overlaps(iv) {
					t.collect(w.n)
				}
			}
			for _, r := range h.readers {
				if r.iv.overlaps(iv) {
					t.collect(r.n)
				}
			}
			h.comm = append(h.comm, self)
			continue
		}
		if len(h.comm) > 0 {
			// A non-commutative access closes the group: every member
			// becomes a co-last-writer of the whole object. Overlapping
			// writer entries are deliberate — subsequent accesses must
			// depend on all of them.
			whole := interval{0, maxInt64(a.Obj.Size, 1)}
			h.writers = t.subtract(h.writers, whole)
			h.readers = t.subtract(h.readers, whole)
			for _, m := range h.comm {
				h.writers = t.push(h.writers, entry{whole, m})
			}
			h.comm = nil
		}

		if a.Mode.Reads() && !a.Mode.Writes() {
			// RAW: depend on overlapping writers.
			for _, w := range h.writers {
				if w.iv.overlaps(iv) {
					t.collect(w.n)
				}
			}
			h.readers = t.push(h.readers, entry{iv, self})
			continue
		}

		// Write or ReadWrite: RAW/WAW on writers, WAR on readers.
		for _, w := range h.writers {
			if w.iv.overlaps(iv) {
				t.collect(w.n)
			}
		}
		for _, r := range h.readers {
			if r.iv.overlaps(iv) {
				t.collect(r.n)
			}
		}
		// Register as the new last writer of iv: carve iv out of existing
		// writer and reader entries, then append.
		h.writers = t.subtract(h.writers, iv)
		h.readers = t.subtract(h.readers, iv)
		h.writers = t.push(h.writers, entry{iv, self})
	}
	t.Edges += int64(len(t.preds))
	return t.preds
}

// subtract carves cut out of every entry in place. An entry split in two
// keeps its first piece in place; the second pieces follow at the end.
func (t *Tracker) subtract(entries []entry, cut interval) []entry {
	out := entries[:0]
	var extra []entry
	for _, e := range entries {
		pieces, np := e.iv.subtract(cut)
		if np == 0 {
			continue
		}
		e.iv = pieces[0]
		out = append(out, e)
		if np > 1 {
			extra = append(extra, entry{pieces[1], e.n})
		}
	}
	for _, e := range extra {
		out = t.push(out, e)
	}
	return out
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// LastWriter returns the task that last wrote the byte at off in the
// object, or nil. Used by locality-aware schedulers to find the producer
// of a task's inputs.
func (t *Tracker) LastWriter(obj *mem.Object, off int64) Node {
	if int(obj.ID) >= t.nhist {
		return nil
	}
	h := t.hist.At(int(obj.ID))
	for _, w := range h.writers {
		if w.iv.lo <= off && off < w.iv.hi {
			return t.slot(w.n).n
		}
	}
	return nil
}
