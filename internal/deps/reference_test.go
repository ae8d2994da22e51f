package deps

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/slab"
)

// refTracker is the straightforward dependence tracker the epoch-stamped
// one must agree with: Node-keyed history entries and a quadratic
// linear-scan dedup over the preds found so far.
type refTracker struct {
	hist map[mem.ObjectID]*refHist
}

type refEntry struct {
	iv interval
	n  Node
}

type refHist struct {
	writers, readers []refEntry
	comm             []Node
}

func newRefTracker() *refTracker { return &refTracker{hist: make(map[mem.ObjectID]*refHist)} }

func (t *refTracker) add(n Node, accs []Access) []Node {
	var preds []Node
	collect := func(p Node) {
		if p == n {
			return
		}
		for _, q := range preds {
			if q == p {
				return
			}
		}
		preds = append(preds, p)
	}
	scan := func(entries []refEntry, iv interval) {
		for _, e := range entries {
			if e.iv.overlaps(iv) {
				collect(e.n)
			}
		}
	}
	for _, a := range accs {
		h := t.hist[a.Obj.ID]
		if h == nil {
			h = &refHist{}
			t.hist[a.Obj.ID] = h
		}
		lo, hi := a.Normalize()
		iv := interval{lo, hi}
		if a.Mode == mem.Commutative {
			scan(h.writers, iv)
			scan(h.readers, iv)
			h.comm = append(h.comm, n)
			continue
		}
		if len(h.comm) > 0 {
			whole := interval{0, maxInt64(a.Obj.Size, 1)}
			h.writers = refCarve(h.writers, whole)
			h.readers = refCarve(h.readers, whole)
			for _, m := range h.comm {
				h.writers = append(h.writers, refEntry{whole, m})
			}
			h.comm = nil
		}
		scan(h.writers, iv)
		if a.Mode.Reads() && !a.Mode.Writes() {
			h.readers = append(h.readers, refEntry{iv, n})
			continue
		}
		scan(h.readers, iv)
		h.writers = append(refCarve(h.writers, iv), refEntry{iv, n})
		h.readers = refCarve(h.readers, iv)
	}
	return preds
}

// refCarve removes cut from every entry, keeping the pieces in the same
// order subtractFromWriters does: first pieces in place, split-off
// second pieces at the end.
func refCarve(entries []refEntry, cut interval) []refEntry {
	var out, extra []refEntry
	for _, e := range entries {
		pieces, np := e.iv.subtract(cut)
		if np > 0 {
			out = append(out, refEntry{pieces[0], e.n})
		}
		if np > 1 {
			extra = append(extra, refEntry{pieces[1], e.n})
		}
	}
	return append(out, extra...)
}

func (t *refTracker) lastWriter(obj *mem.Object, off int64) Node {
	h := t.hist[obj.ID]
	if h == nil {
		return nil
	}
	for _, w := range h.writers {
		if w.iv.lo <= off && off < w.iv.hi {
			return w.n
		}
	}
	return nil
}

// randomAccesses draws one task's access list: whole-object, byte-range
// and commutative accesses over a small object pool (so objects repeat
// within and across tasks), occasionally a long list of 200+ accesses
// like pbpi's reduction task.
func randomAccesses(rng *rand.Rand, objs []*mem.Object) []Access {
	n := 1 + rng.Intn(4)
	if rng.Intn(10) == 0 {
		n = 200 + rng.Intn(100)
	}
	accs := make([]Access, n)
	for i := range accs {
		o := objs[rng.Intn(len(objs))]
		switch k := rng.Intn(10); {
		case k == 0:
			accs[i] = Commutative(o)
		case k < 5:
			mode := []mem.AccessMode{mem.Read, mem.Write, mem.ReadWrite}[rng.Intn(3)]
			accs[i] = Access{Obj: o, Mode: mode}
		default:
			lo := rng.Int63n(o.Size)
			length := 1 + rng.Int63n(o.Size-lo)
			mode := []mem.AccessMode{mem.Read, mem.Write, mem.ReadWrite}[rng.Intn(3)]
			accs[i] = Access{Obj: o, Off: lo, Len: length, Mode: mode}
		}
	}
	return accs
}

// TestAddMatchesReference drives the tracker and the quadratic reference
// with the same seeded submit streams and requires the same preds in the
// same order after every Add, and the same LastWriter answers.
func TestAddMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		matchReference(t, NewTracker(), seed)
	}
}

// TestRecycledTrackerMatchesReference reuses trackers after Release, so
// each stream runs on history, entry and node slabs an earlier stream
// (over another number of objects) filled and returned. It must agree
// with the reference exactly as a fresh tracker does.
func TestRecycledTrackerMatchesReference(t *testing.T) {
	slab.Drain()
	trs := []*Tracker{NewTracker(), NewTracker()}
	for seed := int64(1); seed <= 40; seed++ {
		tr := trs[seed%2]
		matchReference(t, tr, seed)
		tr.Release()
	}
}

// matchReference runs seed's submit stream through tr and the reference.
func matchReference(t *testing.T, tr *Tracker, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := make([]*mem.Object, 2+rng.Intn(12))
	for i := range objs {
		objs[i] = obj(i, 16+rng.Int63n(48))
	}
	ref := newRefTracker()
	for i := 0; i < 150; i++ {
		n := &task{i}
		accs := randomAccesses(rng, objs)
		got := tr.Add(n, accs)
		want := ref.add(n, accs)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d task %d (%d accesses): preds %v, reference %v", seed, i, len(accs), got, want)
		}
		o := objs[rng.Intn(len(objs))]
		off := rng.Int63n(o.Size)
		if g, w := tr.LastWriter(o, off), ref.lastWriter(o, off); g != w {
			t.Fatalf("seed %d task %d: LastWriter(%d, %d) = %v, reference %v", seed, i, o.ID, off, g, w)
		}
	}
}

// TestLongAddSteadyStateZeroAlloc pins the O(n) dedup on a
// reduction-shaped task like pbpi's loop3: 256 inputs with 256 distinct
// last writers plus one inout, so every Add collects 257 preds. Once the
// preds buffer, the history and the current node slab have room, such
// an Add must not allocate. The reader lists grow by one entry per Add,
// so the measured run count is capped by the room left in them and in
// the node slab.
func TestLongAddSteadyStateZeroAlloc(t *testing.T) {
	tr := NewTracker()
	const width = 256
	accs := make([]Access, width+1)
	for i := 0; i < width; i++ {
		accs[i] = In(obj(i, 64))
		v := i
		tr.Add(&v, []Access{Out(accs[i].Obj)})
	}
	accs[width] = InOut(obj(width, 64))
	// Pre-boxed nodes: boxing inside the measured loop would allocate.
	nodes := make([]Node, nodeChunk)
	for i := range nodes {
		v := i
		nodes[i] = &v
	}
	next := 0
	add := func() {
		if preds := tr.Add(nodes[next], accs); next > 0 && len(preds) != width+1 {
			t.Fatalf("long Add produced %d preds, want %d", len(preds), width+1)
		}
		next++
	}
	for next < 150 {
		add()
	}
	room := nodeChunk - tr.count%nodeChunk
	for i := 0; i < width; i++ {
		h := tr.hist.At(i)
		room = min(room, cap(h.readers)-len(h.readers))
	}
	runs := room - 1 // AllocsPerRun makes one extra warm-up call
	if runs < 50 {
		t.Fatalf("only %d Adds of room left after warm-up; the test setup is off", runs)
	}
	if allocs := testing.AllocsPerRun(runs, add); allocs != 0 {
		t.Errorf("steady-state long Add allocates %v times per task, want 0", allocs)
	}
}
