// Package xfer models the node interconnect: every machine link owns one
// DMA engine that serializes the transfers submitted to it (FIFO,
// non-preemptive), so concurrent copies on the same direction of the same
// PCIe link queue up while copies on different links overlap freely —
// which is exactly what lets the runtime overlap transfers with
// computation, as the paper's evaluation enables for all schedulers.
//
// The fabric also classifies every transfer into the paper's three
// accounting categories (Section V-A): Input Tx (host to device), Output
// Tx (device to host) and Device Tx (device to device).
package xfer

import (
	"fmt"
	"time"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Category classifies a transfer for the evaluation's accounting.
type Category int

const (
	// CatNone is an intra-host copy (not counted by the paper).
	CatNone Category = iota
	// CatInput counts host-to-device bytes ("Input Tx").
	CatInput
	// CatOutput counts device-to-host bytes ("Output Tx").
	CatOutput
	// CatDevice counts device-to-device bytes ("Device Tx").
	CatDevice
)

// String returns the paper's name for the category.
func (c Category) String() string {
	switch c {
	case CatNone:
		return "none"
	case CatInput:
		return "Input Tx"
	case CatOutput:
		return "Output Tx"
	case CatDevice:
		return "Device Tx"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Classify determines the accounting category of a transfer between two
// memory spaces (host is space 0; every other space is device memory).
func Classify(from, to machine.SpaceID) Category {
	switch {
	case from == machine.HostSpace && to == machine.HostSpace:
		return CatNone
	case from == machine.HostSpace:
		return CatInput
	case to == machine.HostSpace:
		return CatOutput
	default:
		return CatDevice
	}
}

// Record describes one completed (or scheduled) transfer, for tracing.
type Record struct {
	From, To machine.SpaceID
	Bytes    int64
	Category Category
	Start    sim.Time
	End      sim.Time
	Tag      string // diagnostic: object name
}

// Recorder receives a Record for every transfer the fabric performs.
type Recorder interface {
	RecordTransfer(Record)
}

// numCategories sizes the per-category accounting arrays.
const numCategories = int(CatDevice) + 1

// Fabric routes and times transfers across all machine links.
type Fabric struct {
	eng  *sim.Engine
	mach *machine.Machine
	// busyUntil is when each link's DMA engine frees up, indexed by the
	// dense machine.LinkID.
	busyUntil []sim.Time
	// routes caches the link path of every (from, to) pair met so far,
	// indexed by from*len(mach.Spaces)+to; nil marks a pair not yet
	// routed (distinct spaces always route over at least one link).
	routes [][]machine.Link
	rec    Recorder

	// TotalBytes accumulates transferred bytes per category (indexed by
	// Category, which is dense).
	TotalBytes [numCategories]int64
	// Count accumulates the number of transfers per category.
	Count [numCategories]int64
}

// NewFabric builds the fabric for a machine. rec may be nil.
func NewFabric(e *sim.Engine, m *machine.Machine, rec Recorder) *Fabric {
	return &Fabric{
		eng:       e,
		mach:      m,
		busyUntil: make([]sim.Time, len(m.Links)),
		routes:    make([][]machine.Link, len(m.Spaces)*len(m.Spaces)),
		rec:       rec,
	}
}

// transferDuration is the pure wire time of a transfer on a link.
func transferDuration(l machine.Link, bytes int64) time.Duration {
	sec := float64(bytes) / l.BandwidthBps
	return time.Duration(l.LatencyNs) + time.Duration(sec*1e9)
}

// Transfer schedules a copy of bytes from one space to another and calls
// onDone (if non-nil) at the virtual time the copy completes. Copies
// within the same space complete immediately (still via an event, so the
// caller can rely on asynchronous completion ordering). If the two spaces
// have no direct link the copy is routed over the shortest link path
// (machine.Path) as chained transfers, and every leg is accounted — on a
// single node that is the classic GPU -> host -> GPU bounce; on a cluster
// machine routes may run host -> node memory -> node GPU and deeper.
func (f *Fabric) Transfer(from, to machine.SpaceID, bytes int64, tag string, onDone func()) {
	if bytes < 0 {
		panic("xfer: negative transfer size")
	}
	if from == to {
		if onDone != nil {
			f.eng.Immediately(onDone)
		}
		return
	}
	path := f.route(from, to)
	f.transferPath(path, bytes, tag, onDone)
}

// route returns the (cached) link path between two distinct spaces.
func (f *Fabric) route(from, to machine.SpaceID) []machine.Link {
	n := machine.SpaceID(len(f.mach.Spaces))
	if from < n && to < n {
		if p := f.routes[from*n+to]; p != nil {
			return p
		}
	}
	p, ok := f.mach.Path(from, to)
	if !ok {
		panic(fmt.Sprintf("xfer: no route between space %d and space %d", from, to))
	}
	f.routes[from*n+to] = p
	return p
}

// transferPath chains the legs of a multi-hop route: each leg starts when
// the previous one completes (store-and-forward; the intermediate space
// holds the full copy in a bounce buffer, as Nanos++ does for GPU->GPU
// copies on machines without peer-to-peer DMA).
func (f *Fabric) transferPath(path []machine.Link, bytes int64, tag string, onDone func()) {
	if len(path) == 0 {
		if onDone != nil {
			f.eng.Immediately(onDone)
		}
		return
	}
	if len(path) == 1 {
		// Single-leg fast path: the overwhelmingly common case (host<->GPU
		// over PCIe) needs no continuation closure.
		f.transferDirect(path[0], bytes, tag, onDone)
		return
	}
	rest := path[1:]
	f.transferDirect(path[0], bytes, tag, func() {
		f.transferPath(rest, bytes, tag, onDone)
	})
}

// transferDirect schedules a copy over one link of a route.
func (f *Fabric) transferDirect(link machine.Link, bytes int64, tag string, onDone func()) {
	from, to := link.From, link.To
	start := max(f.eng.Now(), f.busyUntil[link.ID])
	end := start.Add(transferDuration(link, bytes))
	f.busyUntil[link.ID] = end

	cat := Classify(from, to)
	f.TotalBytes[cat] += bytes
	f.Count[cat]++
	if f.rec != nil {
		f.rec.RecordTransfer(Record{From: from, To: to, Bytes: bytes, Category: cat, Start: start, End: end, Tag: tag})
	}
	if onDone != nil {
		f.eng.At(end, onDone)
	}
}
