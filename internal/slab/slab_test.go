package slab

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestFreeListRecyclesZeroedSlabsUpToCap: Put keeps at most max slabs
// of exactly the list's size, zeroed, and Get hands them back before it
// allocates.
func TestFreeListRecyclesZeroedSlabsUpToCap(t *testing.T) {
	f := New[*int](4, 2)
	defer f.drain()
	x := 7
	a, b, c := f.Get(), f.Get(), f.Get()
	for _, s := range [][]*int{a, b, c} {
		s[0] = &x
		f.Put(s)
	}
	f.Put(make([]*int, 5)) // wrong size: dropped
	if n := f.drain(); n != 2 {
		t.Fatalf("list kept %d slabs, want its cap 2", n)
	}

	f.Put(a)
	got := f.Get()
	if &got[0] != &a[0] {
		t.Error("Get allocated while a slab was free")
	}
	if got[0] != nil {
		t.Error("recycled slab still holds a pointer from its last run")
	}
	if fresh := f.Get(); len(fresh) != 4 {
		t.Errorf("fresh slab has %d elements, want 4", len(fresh))
	}
}

// TestDrainEmptiesEveryList counts the slabs of every registered list.
func TestDrainEmptiesEveryList(t *testing.T) {
	Drain()
	ints, strs := New[int](2, 8), New[string](2, 8)
	ints.Put(ints.Get())
	s1, s2 := strs.Get(), strs.Get()
	strs.Put(s1)
	strs.Put(s2)
	if n := Drain(); n != 3 {
		t.Errorf("Drain = %d, want 3", n)
	}
	if n := Drain(); n != 0 {
		t.Errorf("second Drain = %d, want 0", n)
	}
}

// TestFreeListConcurrent exercises Get and Put from parallel runs, as a
// campaign with -parallel does (run with -race).
func TestFreeListConcurrent(t *testing.T) {
	f := New[int64](16, 4)
	defer f.drain()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := f.Get()
				for j := range s {
					if s[j] != 0 {
						t.Errorf("Get returned a dirty slab")
						return
					}
					s[j] = int64(g)
				}
				f.Put(s)
			}
		}(g)
	}
	wg.Wait()
}

// TestIdleListDropsItsSlabs: a list untouched for idleCycles GC cycles
// drops its slabs, while one used between cycles keeps them.
func TestIdleListDropsItsSlabs(t *testing.T) {
	idle, busy := New[*int](4, 2), New[*int](4, 2)
	defer idle.drain()
	defer busy.drain()
	idle.Put(idle.Get())
	busy.Put(busy.Get())
	held := func(f *FreeList[*int]) int {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.free)
	}
	// Finalizers run asynchronously, so allow generous extra cycles.
	for i := 0; i < 50*idleCycles && held(idle) > 0; i++ {
		busy.Put(busy.Get())
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if held(idle) != 0 {
		t.Error("idle list kept its slab through repeated GC cycles")
	}
	if held(busy) != 1 {
		t.Errorf("busy list holds %d slabs, want 1", held(busy))
	}
}

// TestArenaHandsOutAndReturnsSlabs: New fills slabs in order (so At
// finds each element), Alloc caps its windows and starts a new slab for
// one that does not fit, an oversized window bypasses the list, and
// Release returns exactly the slabs drawn and leaves the arena reusable.
func TestArenaHandsOutAndReturnsSlabs(t *testing.T) {
	f := New[int](4, 8)
	defer f.drain()
	a := NewArena(f)
	for i := 0; i < 6; i++ {
		*a.New() = i
	}
	for i := 0; i < 6; i++ {
		if got := *a.At(i); got != i {
			t.Fatalf("At(%d) = %d, want %d", i, got, i)
		}
	}
	w := a.Alloc(3) // 2 left in the second slab: starts a third
	if len(w) != 3 || cap(w) != 3 {
		t.Errorf("Alloc(3) has len %d cap %d, want 3 and 3", len(w), cap(w))
	}
	w[0] = 7
	if big := a.Alloc(5); len(big) != 5 {
		t.Errorf("oversized Alloc has len %d, want 5", len(big))
	}
	a.Release()
	if *a.New() != 0 { // the third slab, last returned
		t.Error("released arena handed out a dirty element")
	}
	a.Release()
	if n := f.drain(); n != 3 {
		t.Errorf("the list holds %d slabs, want the 3 drawn", n)
	}
}

// TestNewRejectsNonPowerOfTwoSizes: At indexes by shift and mask.
func TestNewRejectsNonPowerOfTwoSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted slab size 3")
		}
	}()
	New[int](3, 1)
}
