package xfer

import (
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/sim"
)

func testMachine() *machine.Machine {
	return machine.MinoTauro(4, 2)
}

func TestClassify(t *testing.T) {
	gpu1 := machine.SpaceID(1)
	gpu2 := machine.SpaceID(2)
	cases := []struct {
		from, to machine.SpaceID
		want     Category
	}{
		{machine.HostSpace, machine.HostSpace, CatNone},
		{machine.HostSpace, gpu1, CatInput},
		{gpu1, machine.HostSpace, CatOutput},
		{gpu1, gpu2, CatDevice},
	}
	for _, c := range cases {
		if got := Classify(c.from, c.to); got != c.want {
			t.Errorf("Classify(%d,%d) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestCategoryStrings(t *testing.T) {
	if CatInput.String() != "Input Tx" || CatOutput.String() != "Output Tx" ||
		CatDevice.String() != "Device Tx" || CatNone.String() != "none" {
		t.Error("category string mismatch")
	}
	if Category(42).String() == "" {
		t.Error("unknown category should stringify")
	}
}

func TestTransferTiming(t *testing.T) {
	e := sim.NewEngine()
	m := testMachine()
	f := NewFabric(e, m, nil)
	gpu := m.GPUSpaces()[0]

	var doneAt sim.Time = -1
	f.Transfer(machine.HostSpace, gpu, 6_000_000, "obj", func() { doneAt = e.Now() })
	e.Run()

	// 6 MB at 6 GB/s = 1 ms, plus 15 us latency.
	want := sim.Time(time.Millisecond + 15*time.Microsecond)
	if doneAt != want {
		t.Errorf("transfer completed at %v, want %v", doneAt, want)
	}
}

func TestSameLinkSerializes(t *testing.T) {
	e := sim.NewEngine()
	m := testMachine()
	f := NewFabric(e, m, nil)
	gpu := m.GPUSpaces()[0]

	var first, second sim.Time
	f.Transfer(machine.HostSpace, gpu, 6_000_000, "a", func() { first = e.Now() })
	f.Transfer(machine.HostSpace, gpu, 6_000_000, "b", func() { second = e.Now() })
	e.Run()

	per := time.Millisecond + 15*time.Microsecond
	if first != sim.Time(per) {
		t.Errorf("first done at %v, want %v", first, per)
	}
	if second != sim.Time(2*per) {
		t.Errorf("second done at %v, want %v (serialized)", second, 2*per)
	}
}

func TestOppositeDirectionsOverlap(t *testing.T) {
	e := sim.NewEngine()
	m := testMachine()
	f := NewFabric(e, m, nil)
	gpu := m.GPUSpaces()[0]

	var in, out sim.Time
	f.Transfer(machine.HostSpace, gpu, 6_000_000, "in", func() { in = e.Now() })
	f.Transfer(gpu, machine.HostSpace, 6_000_000, "out", func() { out = e.Now() })
	e.Run()

	per := sim.Time(time.Millisecond + 15*time.Microsecond)
	if in != per || out != per {
		t.Errorf("duplex transfers: in=%v out=%v, want both %v", in, out, per)
	}
}

func TestDifferentGPULinksOverlap(t *testing.T) {
	e := sim.NewEngine()
	m := testMachine()
	f := NewFabric(e, m, nil)
	g := m.GPUSpaces()

	var a, b sim.Time
	f.Transfer(machine.HostSpace, g[0], 6_000_000, "a", func() { a = e.Now() })
	f.Transfer(machine.HostSpace, g[1], 6_000_000, "b", func() { b = e.Now() })
	e.Run()
	if a != b {
		t.Errorf("independent links should overlap: %v vs %v", a, b)
	}
}

func TestSameSpaceTransferIsImmediate(t *testing.T) {
	e := sim.NewEngine()
	f := NewFabric(e, testMachine(), nil)
	done := false
	f.Transfer(machine.HostSpace, machine.HostSpace, 1<<20, "x", func() { done = true })
	end := e.Run()
	if !done || end != 0 {
		t.Errorf("same-space transfer: done=%v end=%v", done, end)
	}
}

func TestDeviceToDeviceUsesPeerLink(t *testing.T) {
	e := sim.NewEngine()
	m := testMachine()
	f := NewFabric(e, m, nil)
	g := m.GPUSpaces()

	var doneAt sim.Time
	f.Transfer(g[0], g[1], 5_000_000, "d2d", func() { doneAt = e.Now() })
	e.Run()
	want := sim.Time(time.Millisecond + 25*time.Microsecond) // 5MB at 5GB/s + 25us
	if doneAt != want {
		t.Errorf("peer transfer done at %v, want %v", doneAt, want)
	}
	if f.TotalBytes[CatDevice] != 5_000_000 {
		t.Errorf("Device Tx bytes = %d", f.TotalBytes[CatDevice])
	}
}

func TestAccounting(t *testing.T) {
	e := sim.NewEngine()
	m := testMachine()
	f := NewFabric(e, m, nil)
	g := m.GPUSpaces()

	f.Transfer(machine.HostSpace, g[0], 100, "", nil)
	f.Transfer(machine.HostSpace, g[1], 200, "", nil)
	f.Transfer(g[0], machine.HostSpace, 300, "", nil)
	f.Transfer(g[0], g[1], 400, "", nil)
	e.Run()

	if f.TotalBytes[CatInput] != 300 {
		t.Errorf("Input Tx = %d, want 300", f.TotalBytes[CatInput])
	}
	if f.TotalBytes[CatOutput] != 300 {
		t.Errorf("Output Tx = %d, want 300", f.TotalBytes[CatOutput])
	}
	if f.TotalBytes[CatDevice] != 400 {
		t.Errorf("Device Tx = %d, want 400", f.TotalBytes[CatDevice])
	}
	if f.Count[CatInput] != 2 {
		t.Errorf("Input count = %d, want 2", f.Count[CatInput])
	}
}

type recordSink struct{ recs []Record }

func (r *recordSink) RecordTransfer(rec Record) { r.recs = append(r.recs, rec) }

func TestRecorderReceivesRecords(t *testing.T) {
	e := sim.NewEngine()
	m := testMachine()
	sink := &recordSink{}
	f := NewFabric(e, m, sink)
	gpu := m.GPUSpaces()[0]

	f.Transfer(machine.HostSpace, gpu, 1000, "tile-3", nil)
	e.Run()
	if len(sink.recs) != 1 {
		t.Fatalf("records = %d, want 1", len(sink.recs))
	}
	r := sink.recs[0]
	if r.Tag != "tile-3" || r.Category != CatInput || r.Bytes != 1000 || r.End <= r.Start {
		t.Errorf("record = %+v", r)
	}
}

func TestNegativeBytesPanics(t *testing.T) {
	e := sim.NewEngine()
	f := NewFabric(e, testMachine(), nil)
	defer func() {
		if recover() == nil {
			t.Error("negative bytes did not panic")
		}
	}()
	f.Transfer(machine.HostSpace, machine.SpaceID(1), -1, "", nil)
}
