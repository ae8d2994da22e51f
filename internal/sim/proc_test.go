package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestProcRunsAtTimeZero(t *testing.T) {
	e := NewEngine()
	var ranAt Time = -1
	e.Spawn("main", func(p *Proc) { ranAt = p.Now() })
	e.Run()
	if ranAt != 0 {
		t.Fatalf("coroutine ran at %v, want 0", ranAt)
	}
}

func TestProcSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Spawn("main", func(p *Proc) {
		times = append(times, p.Now())
		p.Sleep(10 * time.Millisecond)
		times = append(times, p.Now())
		p.Sleep(5 * time.Millisecond)
		times = append(times, p.Now())
	})
	e.Run()
	want := []Time{0, Time(10 * time.Millisecond), Time(15 * time.Millisecond)}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestProcParkUnpark(t *testing.T) {
	e := NewEngine()
	var order []string
	p := e.Spawn("main", func(p *Proc) {
		order = append(order, "before")
		p.Park()
		order = append(order, "after")
	})
	e.At(100, func() {
		order = append(order, "event")
		p.Unpark()
		order = append(order, "post-unpark")
	})
	e.Run()
	want := []string{"before", "event", "after", "post-unpark"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if !p.Finished() {
		t.Error("proc not finished")
	}
}

func TestProcDeadlockPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) { p.Park() })
	defer func() {
		if recover() == nil {
			t.Error("deadlocked run did not panic")
		}
	}()
	e.Run()
}

// TestOnDeadlockExplains: a non-nil error from the OnDeadlock hook is
// the deadlock's panic value; a nil one keeps the generic diagnostic.
func TestOnDeadlockExplains(t *testing.T) {
	why := errors.New("stranded")
	for _, explain := range []error{why, nil} {
		e := NewEngine()
		e.Spawn("stuck", func(p *Proc) { p.Park() })
		e.OnDeadlock = func() error { return explain }
		func() {
			defer func() {
				p := recover()
				if explain != nil && p != explain {
					t.Errorf("panic value %v, want the hook's error", p)
				}
				if s, ok := p.(string); explain == nil && (!ok || !strings.Contains(s, "[stuck]")) {
					t.Errorf("panic value %v, want the parked-coroutine diagnostic", p)
				}
			}()
			e.Run()
		}()
	}
}

func TestUnparkNotParkedPanics(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("main", func(p *Proc) {}) // finishes immediately
	e.At(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("Unpark of finished proc did not panic")
			}
		}()
		p.Unpark()
	})
	e.Run()
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var order []string
		e.Spawn("a", func(p *Proc) {
			order = append(order, "a0")
			p.Sleep(10)
			order = append(order, "a1")
			p.Sleep(20)
			order = append(order, "a2")
		})
		e.Spawn("b", func(p *Proc) {
			order = append(order, "b0")
			p.Sleep(15)
			order = append(order, "b1")
			p.Sleep(20)
			order = append(order, "b2")
		})
		e.Run()
		return order
	}
	first := run()
	want := []string{"a0", "b0", "a1", "b1", "a2", "b2"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 20; trial++ {
		again := run()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("non-deterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestProcName(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("master", func(p *Proc) {})
	if p.Name() != "master" {
		t.Errorf("Name() = %q", p.Name())
	}
	if p.Engine() != e {
		t.Error("Engine() mismatch")
	}
	e.Run()
}

// TestProcPanicReachesRunCaller checks that a panic in a coroutine body,
// first run or after a park, surfaces unchanged from Engine.Run on the
// caller's goroutine, where a deferred recover can catch it.
func TestProcPanicReachesRunCaller(t *testing.T) {
	boom := errors.New("boom")
	for _, afterPark := range []bool{false, true} {
		e := NewEngine()
		e.Spawn("main", func(p *Proc) {
			if afterPark {
				p.Sleep(time.Millisecond)
			}
			panic(boom)
		})
		got := func() (v any) {
			defer func() { v = recover() }()
			e.Run()
			return nil
		}()
		if got != boom {
			t.Errorf("afterPark=%v: Run recovered %v, want the body's panic value", afterPark, got)
		}
	}
}
