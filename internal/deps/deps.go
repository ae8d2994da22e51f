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

type wEntry struct {
	iv interval
	n  nodeID
}

type rEntry struct {
	iv interval
	n  nodeID
}

// objHist is the access history of one object.
type objHist struct {
	writers []wEntry // non-overlapping: each byte has at most one last writer
	readers []rEntry // readers since the last write of each byte
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

// nodeChunk is how many nodeSlots each slab holds. Slabs are appended,
// never reallocated, so the storage grows by a fixed step per
// nodeChunk registered nodes instead of being copied on doubling.
const nodeChunk = 256

// nodeSlabs is the free list Release returns node slabs to and register
// draws from before it allocates. The task runtime registers one node
// per task, so the cap matches its task-slab cap: one pinned pbpi cell
// (pbpi-hyb at quick size, 6,625 tasks) fills 26 slabs.
var nodeSlabs = slab.New[nodeSlot](nodeChunk, 26)

// Tracker incrementally builds the task dependence graph.
type Tracker struct {
	// hist is indexed by the dense mem.ObjectID and grown on demand.
	hist []*objHist

	// nodes holds every registered node's slot, indexed by nodeID in
	// nodeChunk-sized slabs.
	nodes [][]nodeSlot
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
	return &Tracker{}
}

func (t *Tracker) histFor(obj *mem.Object) *objHist {
	id := int(obj.ID)
	for id >= len(t.hist) {
		t.hist = append(t.hist, nil)
	}
	if t.hist[id] == nil {
		t.hist[id] = &objHist{}
	}
	return t.hist[id]
}

// slot returns the record of node id.
func (t *Tracker) slot(id nodeID) *nodeSlot {
	return &t.nodes[id/nodeChunk][id%nodeChunk]
}

// register gives n the next dense index and stamps it with the current
// epoch, so the node never collects itself.
func (t *Tracker) register(n Node) nodeID {
	if t.count%nodeChunk == 0 {
		t.nodes = append(t.nodes, nodeSlabs.Get())
	}
	id := nodeID(t.count)
	t.count++
	*t.slot(id) = nodeSlot{n: n, stamp: t.epoch}
	return id
}

// Release returns the tracker's node slabs, zeroed, to the free list the
// next tracker in the process draws from. The tracker is empty
// afterwards; call it only once nothing needs the dependence graph.
func (t *Tracker) Release() {
	for _, s := range t.nodes {
		nodeSlabs.Put(s)
	}
	*t = Tracker{}
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
			h.writers = subtractFromWriters(h.writers, whole)
			h.readers = subtractFromReaders(h.readers, whole)
			for _, m := range h.comm {
				h.writers = append(h.writers, wEntry{whole, m})
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
			h.readers = append(h.readers, rEntry{iv, self})
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
		h.writers = subtractFromWriters(h.writers, iv)
		h.readers = subtractFromReaders(h.readers, iv)
		h.writers = append(h.writers, wEntry{iv, self})
	}
	t.Edges += int64(len(t.preds))
	return t.preds
}

func subtractFromWriters(entries []wEntry, cut interval) []wEntry {
	out := entries[:0]
	var extra []wEntry
	for _, e := range entries {
		pieces, np := e.iv.subtract(cut)
		if np == 0 {
			continue
		}
		e.iv = pieces[0]
		out = append(out, e)
		if np > 1 {
			extra = append(extra, wEntry{pieces[1], e.n})
		}
	}
	return append(out, extra...)
}

func subtractFromReaders(entries []rEntry, cut interval) []rEntry {
	out := entries[:0]
	var extra []rEntry
	for _, e := range entries {
		pieces, np := e.iv.subtract(cut)
		if np == 0 {
			continue
		}
		e.iv = pieces[0]
		out = append(out, e)
		if np > 1 {
			extra = append(extra, rEntry{pieces[1], e.n})
		}
	}
	return append(out, extra...)
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
	if int(obj.ID) >= len(t.hist) || t.hist[obj.ID] == nil {
		return nil
	}
	h := t.hist[obj.ID]
	for _, w := range h.writers {
		if w.iv.lo <= off && off < w.iv.hi {
			return t.slot(w.n).n
		}
	}
	return nil
}
