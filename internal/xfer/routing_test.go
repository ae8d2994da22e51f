package xfer

import (
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/sim"
)

// chainMachine is host -> mid -> far with 1 GB/s links and zero latency,
// the minimal multi-hop topology (a remote node with one accelerator).
func chainMachine() *machine.Machine {
	m := machine.New("chain", 0)
	mid := m.AddSpace("mid", 0)
	far := m.AddSpace("far", 0)
	m.AddDevice("c0", machine.KindSMP, machine.HostSpace, 1)
	m.AddLink(machine.HostSpace, mid, 1e9, 0)
	m.AddLink(mid, machine.HostSpace, 1e9, 0)
	m.AddLink(mid, far, 1e9, 0)
	m.AddLink(far, mid, 1e9, 0)
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

func TestMultiHopTransferChainsLegs(t *testing.T) {
	e := sim.NewEngine()
	f := NewFabric(e, chainMachine(), nil)
	var done sim.Time
	f.Transfer(machine.HostSpace, machine.SpaceID(2), 1e9, "obj", func() { done = e.Now() })
	e.Run()
	// Two store-and-forward legs of 1 s each.
	if got := done.Duration(); got != 2*time.Second {
		t.Errorf("multi-hop completion at %v, want 2s", got)
	}
	// Both legs accounted: host->mid is Input, mid->far is Device.
	if f.TotalBytes[CatInput] != 1e9 || f.TotalBytes[CatDevice] != 1e9 {
		t.Errorf("accounting = %v", f.TotalBytes)
	}
}

func TestMultiHopReverseIsOutputPlusDevice(t *testing.T) {
	e := sim.NewEngine()
	f := NewFabric(e, chainMachine(), nil)
	f.Transfer(machine.SpaceID(2), machine.HostSpace, 5e8, "obj", nil)
	e.Run()
	if f.TotalBytes[CatDevice] != 5e8 || f.TotalBytes[CatOutput] != 5e8 {
		t.Errorf("accounting = %v", f.TotalBytes)
	}
	if f.Count[CatDevice] != 1 || f.Count[CatOutput] != 1 {
		t.Errorf("counts = %v", f.Count)
	}
}

func TestMultiHopSecondLegQueuesBehindTraffic(t *testing.T) {
	e := sim.NewEngine()
	f := NewFabric(e, chainMachine(), nil)
	// Saturate mid->far first; the routed transfer's second leg must wait.
	f.Transfer(machine.SpaceID(1), machine.SpaceID(2), 3e9, "busy", nil) // 3s on mid->far
	var done sim.Time
	f.Transfer(machine.HostSpace, machine.SpaceID(2), 1e9, "obj", func() { done = e.Now() })
	e.Run()
	// Leg 1 (host->mid) runs 0..1s; mid->far is busy until 3s; leg 2 runs
	// 3..4s.
	if got := done.Duration(); got != 4*time.Second {
		t.Errorf("queued multi-hop completion at %v, want 4s", got)
	}
}

func TestClusterGPURouteEndToEnd(t *testing.T) {
	// On a real cluster preset: host -> node mem (IB) -> remote GPU (PCIe).
	m := machine.ClusterGPU(1, 0, 1, 1, 1)
	e := sim.NewEngine()
	f := NewFabric(e, m, nil)
	gpuSpace := m.GPUSpaces()[0]
	var done sim.Time
	f.Transfer(machine.HostSpace, gpuSpace, 32_000_000, "tile", func() { done = e.Now() })
	e.Run()
	ib := 32e6/machine.InfiniBandBandwidthBps + float64(machine.InfiniBandLatencyNs)/1e9
	pcie := 32e6/machine.PCIeBandwidthBps + float64(machine.PCIeLatencyNs)/1e9
	want := time.Duration((ib + pcie) * 1e9)
	if diff := done.Duration() - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("remote GPU staging took %v, want ~%v", done.Duration(), want)
	}
}
