package mem

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/xfer"
)

// harness bundles a directory over a 2-GPU MinoTauro machine.
type harness struct {
	eng *sim.Engine
	m   *machine.Machine
	fab *xfer.Fabric
	dir *Directory
}

func newHarness() *harness {
	e := sim.NewEngine()
	m := machine.MinoTauro(4, 2)
	f := xfer.NewFabric(e, m, nil)
	return &harness{eng: e, m: m, fab: f, dir: NewDirectory(e, m, f)}
}

func TestAccessModeHelpers(t *testing.T) {
	if !Read.Reads() || Read.Writes() {
		t.Error("Read semantics wrong")
	}
	if Write.Reads() || !Write.Writes() {
		t.Error("Write semantics wrong")
	}
	if !ReadWrite.Reads() || !ReadWrite.Writes() {
		t.Error("ReadWrite semantics wrong")
	}
	if Read.String() != "input" || Write.String() != "output" || ReadWrite.String() != "inout" {
		t.Error("mode strings wrong")
	}
}

func TestRegisterStartsValidAtHost(t *testing.T) {
	h := newHarness()
	obj := h.dir.Register("tile", 1<<20)
	if !h.dir.ValidAt(obj, machine.HostSpace) {
		t.Error("new object not valid at host")
	}
	if h.dir.Dirty(obj) {
		t.Error("new object should be clean")
	}
	if h.dir.NumObjects() != 1 || h.dir.Object(obj.ID) != obj {
		t.Error("object lookup broken")
	}
	if h.dir.UsedBytes(machine.HostSpace) != 1<<20 {
		t.Errorf("host used = %d", h.dir.UsedBytes(machine.HostSpace))
	}
}

func TestAcquireReadCopiesIn(t *testing.T) {
	h := newHarness()
	gpu := h.m.GPUSpaces()[0]
	obj := h.dir.Register("tile", 6_000_000)

	ready := false
	h.dir.Acquire(obj, gpu, Read, func() { ready = true })
	end := h.eng.Run()

	if !ready {
		t.Fatal("acquire never became ready")
	}
	if !h.dir.ValidAt(obj, gpu) {
		t.Error("copy not valid at GPU after acquire")
	}
	if !h.dir.ValidAt(obj, machine.HostSpace) {
		t.Error("host copy should remain valid after a read replica")
	}
	if end <= 0 {
		t.Error("copy-in should take time")
	}
	if h.fab.TotalBytes[xfer.CatInput] != 6_000_000 {
		t.Errorf("Input Tx = %d", h.fab.TotalBytes[xfer.CatInput])
	}
}

func TestAcquireReadAlreadyValidIsFree(t *testing.T) {
	h := newHarness()
	obj := h.dir.Register("tile", 1<<20)
	ready := false
	h.dir.Acquire(obj, machine.HostSpace, Read, func() { ready = true })
	end := h.eng.Run()
	if !ready || end != 0 {
		t.Errorf("host read: ready=%v end=%v", ready, end)
	}
	if h.fab.TotalBytes[xfer.CatInput] != 0 {
		t.Error("no transfer expected")
	}
}

func TestAcquireWriteNeedsNoCopy(t *testing.T) {
	h := newHarness()
	gpu := h.m.GPUSpaces()[0]
	obj := h.dir.Register("tile", 1<<20)
	ready := false
	h.dir.Acquire(obj, gpu, Write, func() { ready = true })
	end := h.eng.Run()
	if !ready || end != 0 {
		t.Errorf("write acquire: ready=%v end=%v", ready, end)
	}
	if h.fab.TotalBytes[xfer.CatInput] != 0 {
		t.Error("output-only dep must not copy in")
	}
}

func TestConcurrentAcquiresCoalesce(t *testing.T) {
	h := newHarness()
	gpu := h.m.GPUSpaces()[0]
	obj := h.dir.Register("tile", 6_000_000)

	count := 0
	h.dir.Acquire(obj, gpu, Read, func() { count++ })
	h.dir.Acquire(obj, gpu, Read, func() { count++ })
	h.eng.Run()

	if count != 2 {
		t.Errorf("both waiters should fire, got %d", count)
	}
	if h.fab.Count[xfer.CatInput] != 1 {
		t.Errorf("transfers = %d, want 1 (coalesced)", h.fab.Count[xfer.CatInput])
	}
}

func TestCommitWriteInvalidatesOthers(t *testing.T) {
	h := newHarness()
	gpus := h.m.GPUSpaces()
	obj := h.dir.Register("tile", 1000)

	h.dir.Acquire(obj, gpus[0], ReadWrite, nil2)
	h.eng.Run()
	h.dir.CommitWrite(obj, gpus[0])
	h.dir.Release(obj, gpus[0])

	if !h.dir.ValidAt(obj, gpus[0]) {
		t.Error("writer space should be valid")
	}
	if h.dir.ValidAt(obj, machine.HostSpace) {
		t.Error("host copy should be invalidated by device write")
	}
	if !h.dir.Dirty(obj) {
		t.Error("object should be dirty after device write")
	}
	if h.dir.DirtyBytes() != 1000 {
		t.Errorf("DirtyBytes = %d", h.dir.DirtyBytes())
	}
}

func nil2() {}

func TestReadFromDirtyDeviceGoesDeviceToDevice(t *testing.T) {
	h := newHarness()
	gpus := h.m.GPUSpaces()
	obj := h.dir.Register("tile", 1000)

	// Write on GPU0.
	h.dir.Acquire(obj, gpus[0], ReadWrite, nil2)
	h.eng.Run()
	h.dir.CommitWrite(obj, gpus[0])
	h.dir.Release(obj, gpus[0])

	// Read on GPU1: must come from GPU0 (Device Tx).
	h.dir.Acquire(obj, gpus[1], Read, nil2)
	h.eng.Run()

	if h.fab.TotalBytes[xfer.CatDevice] != 1000 {
		t.Errorf("Device Tx = %d, want 1000", h.fab.TotalBytes[xfer.CatDevice])
	}
	if !h.dir.ValidAt(obj, gpus[1]) {
		t.Error("GPU1 should now hold a valid copy")
	}
}

func TestReadDirtyAtHostTriggersOutputTx(t *testing.T) {
	h := newHarness()
	gpu := h.m.GPUSpaces()[0]
	obj := h.dir.Register("tile", 1000)

	h.dir.Acquire(obj, gpu, Write, nil2)
	h.eng.Run()
	h.dir.CommitWrite(obj, gpu)
	h.dir.Release(obj, gpu)

	h.dir.Acquire(obj, machine.HostSpace, Read, nil2)
	h.eng.Run()

	if h.fab.TotalBytes[xfer.CatOutput] != 1000 {
		t.Errorf("Output Tx = %d, want 1000", h.fab.TotalBytes[xfer.CatOutput])
	}
}

func TestFlushAllWritesBackDirty(t *testing.T) {
	h := newHarness()
	gpu := h.m.GPUSpaces()[0]
	a := h.dir.Register("a", 100)
	b := h.dir.Register("b", 200)
	c := h.dir.Register("c", 400) // stays clean

	for _, obj := range []*Object{a, b} {
		h.dir.Acquire(obj, gpu, Write, nil2)
	}
	h.eng.Run()
	h.dir.CommitWrite(a, gpu)
	h.dir.CommitWrite(b, gpu)
	h.dir.Release(a, gpu)
	h.dir.Release(b, gpu)

	flushed := false
	h.dir.FlushAll(func() { flushed = true })
	h.eng.Run()

	if !flushed {
		t.Fatal("flush never completed")
	}
	if h.fab.TotalBytes[xfer.CatOutput] != 300 {
		t.Errorf("Output Tx = %d, want 300", h.fab.TotalBytes[xfer.CatOutput])
	}
	for _, obj := range []*Object{a, b, c} {
		if !h.dir.ValidAt(obj, machine.HostSpace) {
			t.Errorf("%v not valid at host after flush", obj)
		}
		if h.dir.Dirty(obj) {
			t.Errorf("%v still dirty after flush", obj)
		}
	}
	// Device copies stay valid (clean) after writeback.
	if !h.dir.ValidAt(a, gpu) {
		t.Error("device copy should stay valid after flush")
	}
}

func TestFlushAllNoDirtyFiresImmediately(t *testing.T) {
	h := newHarness()
	h.dir.Register("a", 100)
	flushed := false
	h.dir.FlushAll(func() { flushed = true })
	h.eng.Run()
	if !flushed {
		t.Error("empty flush should still fire callback")
	}
}

func TestFlushObject(t *testing.T) {
	h := newHarness()
	gpu := h.m.GPUSpaces()[0]
	a := h.dir.Register("a", 100)
	b := h.dir.Register("b", 200)
	for _, obj := range []*Object{a, b} {
		h.dir.Acquire(obj, gpu, Write, nil2)
	}
	h.eng.Run()
	h.dir.CommitWrite(a, gpu)
	h.dir.CommitWrite(b, gpu)
	h.dir.Release(a, gpu)
	h.dir.Release(b, gpu)

	h.dir.FlushObject(a, nil2)
	h.eng.Run()
	if h.dir.Dirty(a) {
		t.Error("a should be clean")
	}
	if !h.dir.Dirty(b) {
		t.Error("b should remain dirty")
	}
	if h.fab.TotalBytes[xfer.CatOutput] != 100 {
		t.Errorf("Output Tx = %d, want 100", h.fab.TotalBytes[xfer.CatOutput])
	}
}

func TestBytesNeeded(t *testing.T) {
	h := newHarness()
	gpu := h.m.GPUSpaces()[0]
	obj := h.dir.Register("tile", 5000)

	if n := h.dir.BytesNeeded(obj, gpu, Read); n != 5000 {
		t.Errorf("missing copy BytesNeeded = %d", n)
	}
	if n := h.dir.BytesNeeded(obj, gpu, Write); n != 0 {
		t.Errorf("write BytesNeeded = %d", n)
	}
	if n := h.dir.BytesNeeded(obj, machine.HostSpace, ReadWrite); n != 0 {
		t.Errorf("valid-at-host BytesNeeded = %d", n)
	}
	h.dir.Acquire(obj, gpu, Read, nil2)
	// In-flight counts as zero (transfer already underway).
	if n := h.dir.BytesNeeded(obj, gpu, Read); n != 0 {
		t.Errorf("in-flight BytesNeeded = %d", n)
	}
	h.eng.Run()
	if n := h.dir.BytesNeeded(obj, gpu, Read); n != 0 {
		t.Errorf("valid BytesNeeded = %d", n)
	}
}

func TestReleaseUnpinnedPanics(t *testing.T) {
	h := newHarness()
	obj := h.dir.Register("tile", 10)
	defer func() {
		if recover() == nil {
			t.Error("Release of unpinned object did not panic")
		}
	}()
	h.dir.Release(obj, machine.HostSpace)
}

func TestEvictionLRUMakesRoom(t *testing.T) {
	e := sim.NewEngine()
	m := machine.New("tiny", 0)
	spGPU := m.AddSpace("gpu-mem", 1000) // tiny capacity
	m.AddDevice("gpu", machine.KindCUDA, spGPU, 1)
	m.AddLink(machine.HostSpace, spGPU, 1e9, 0)
	m.AddLink(spGPU, machine.HostSpace, 1e9, 0)
	f := xfer.NewFabric(e, m, nil)
	d := NewDirectory(e, m, f)

	a := d.Register("a", 600)
	b := d.Register("b", 600)

	// Bring a in, release it, then bring b in: a must be evicted.
	h1 := false
	d.Acquire(a, spGPU, Read, func() { h1 = true })
	e.Run()
	if !h1 {
		t.Fatal("a never arrived")
	}
	d.Release(a, spGPU)

	h2 := false
	d.Acquire(b, spGPU, Read, func() { h2 = true })
	e.Run()
	if !h2 {
		t.Fatal("b never arrived (eviction failed?)")
	}
	if d.ValidAt(a, spGPU) {
		t.Error("a should have been evicted")
	}
	if d.Evictions[spGPU] != 1 {
		t.Errorf("evictions = %d, want 1", d.Evictions[spGPU])
	}
	if d.UsedBytes(spGPU) != 600 {
		t.Errorf("used = %d, want 600", d.UsedBytes(spGPU))
	}
}

func TestEvictionWritesBackDirtyVictim(t *testing.T) {
	e := sim.NewEngine()
	m := machine.New("tiny", 0)
	spGPU := m.AddSpace("gpu-mem", 1000)
	m.AddDevice("gpu", machine.KindCUDA, spGPU, 1)
	m.AddLink(machine.HostSpace, spGPU, 1e9, 0)
	m.AddLink(spGPU, machine.HostSpace, 1e9, 0)
	f := xfer.NewFabric(e, m, nil)
	d := NewDirectory(e, m, f)

	a := d.Register("a", 600)
	b := d.Register("b", 600)

	d.Acquire(a, spGPU, ReadWrite, nil2)
	e.Run()
	d.CommitWrite(a, spGPU)
	d.Release(a, spGPU)

	d.Acquire(b, spGPU, Read, nil2)
	e.Run()

	if d.Dirty(a) {
		t.Error("evicted dirty victim should have been written back")
	}
	if !d.ValidAt(a, machine.HostSpace) {
		t.Error("host should hold a after writeback eviction")
	}
	if f.TotalBytes[xfer.CatOutput] != 600 {
		t.Errorf("Output Tx = %d, want 600 (writeback)", f.TotalBytes[xfer.CatOutput])
	}
}

func TestAllocationParksWhenFullOfPinnedData(t *testing.T) {
	e := sim.NewEngine()
	m := machine.New("tiny", 0)
	spGPU := m.AddSpace("gpu-mem", 1000)
	m.AddDevice("gpu", machine.KindCUDA, spGPU, 1)
	m.AddLink(machine.HostSpace, spGPU, 1e9, 0)
	m.AddLink(spGPU, machine.HostSpace, 1e9, 0)
	f := xfer.NewFabric(e, m, nil)
	d := NewDirectory(e, m, f)

	a := d.Register("a", 600)
	b := d.Register("b", 600)

	gotA, gotB := false, false
	d.Acquire(a, spGPU, Read, func() { gotA = true })
	e.Run()
	if !gotA {
		t.Fatal("a never arrived")
	}
	// a is still pinned: b cannot fit and must park.
	d.Acquire(b, spGPU, Read, func() { gotB = true })
	e.Run()
	if gotB {
		t.Fatal("b should be parked while a is pinned")
	}
	if d.PendingAllocs() != 1 {
		t.Errorf("PendingAllocs = %d, want 1", d.PendingAllocs())
	}
	// Releasing a frees memory; the parked acquire proceeds.
	d.Release(a, spGPU)
	e.Run()
	if !gotB {
		t.Error("b should arrive after a was released")
	}
}

func TestCommitWriteOnPinnedReplicaPanics(t *testing.T) {
	h := newHarness()
	gpus := h.m.GPUSpaces()
	obj := h.dir.Register("tile", 10)

	h.dir.Acquire(obj, gpus[0], Read, nil2)
	h.eng.Run()
	// GPU0 copy still pinned; committing a write from GPU1 must panic.
	defer func() {
		if recover() == nil {
			t.Error("invalidating pinned copy did not panic")
		}
	}()
	h.dir.CommitWrite(obj, gpus[1])
}

func TestNegativeSizePanics(t *testing.T) {
	h := newHarness()
	defer func() {
		if recover() == nil {
			t.Error("negative size did not panic")
		}
	}()
	h.dir.Register("bad", -1)
}

// TestCopyInCycleAllocatesNothing pins the staging hot path: once the
// directory's pool holds a copy-in record, its continuations are bound
// and its waiter list sized, so invalidating the copy and copying it in
// again allocates nothing.
func TestCopyInCycleAllocatesNothing(t *testing.T) {
	h := newHarness()
	gpu := h.m.GPUSpaces()[0]
	obj := h.dir.Register("tile", 1<<20)
	ready := 0
	onReady := func() { ready++ }
	cycle := func() {
		h.dir.Acquire(obj, gpu, Read, onReady)
		h.dir.Acquire(obj, gpu, Read, onReady) // joins the copy in flight
		h.eng.Run()
		h.dir.Release(obj, gpu)
		h.dir.Release(obj, gpu)
		h.dir.CommitWrite(obj, machine.HostSpace) // invalidates the GPU copy
	}
	cycle() // fills the copy-in pool
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("invalidate/copy-in cycle allocates %.1f times, want 0", allocs)
	}
	if want := 2 * 102; ready != want {
		t.Errorf("onReady fired %d times, want %d", ready, want)
	}
	if h.dir.ValidAt(obj, gpu) {
		t.Error("GPU copy still valid after the host write")
	}
}

// TestParkedRetryAllocatesNothing pins the parked-allocation path: a
// request parked on a full GPU space re-parks on every Release that
// frees too little, and that retry must allocate nothing.
func TestParkedRetryAllocatesNothing(t *testing.T) {
	e := sim.NewEngine()
	m := machine.New("tiny", 0)
	spGPU := m.AddSpace("gpu-mem", 1000)
	m.AddDevice("gpu", machine.KindCUDA, spGPU, 1)
	m.AddLink(machine.HostSpace, spGPU, 1e9, 0)
	m.AddLink(spGPU, machine.HostSpace, 1e9, 0)
	d := NewDirectory(e, m, xfer.NewFabric(e, m, nil))
	a := d.Register("a", 600)
	b := d.Register("b", 600)

	// Pin a once per Release to come: one warm-up, the measured ones
	// (AllocsPerRun calls once more than it measures) and the last.
	const runs = 100
	for i := 0; i < runs+3; i++ {
		d.Acquire(a, spGPU, Read, nil)
	}
	e.Run()
	gotB := false
	d.Acquire(b, spGPU, Read, func() { gotB = true })
	if d.PendingAllocs() != 1 {
		t.Fatalf("PendingAllocs = %d, want 1", d.PendingAllocs())
	}
	d.Release(a, spGPU) // first retry sizes the retry buffer
	if allocs := testing.AllocsPerRun(runs, func() { d.Release(a, spGPU) }); allocs != 0 {
		t.Errorf("retrying a parked allocation allocates %.1f times, want 0", allocs)
	}
	if d.PendingAllocs() != 1 || gotB {
		t.Fatalf("b left the queue while a is still pinned (pending %d)", d.PendingAllocs())
	}
	d.Release(a, spGPU)
	e.Run()
	if !gotB {
		t.Error("b never arrived after a's last pin was released")
	}
}
