package journal

import (
	"math"
	"testing"
)

// rec builds a minimal current-version record for replay tests.
func rec(typ, owner string, idx int, hash string, at float64) Record {
	return Record{V: Version, T: at, Type: typ, Owner: owner, Index: idx, Hash: hash}
}

// TestReplayTimeline replays a two-claimant campaign: one warm cell
// observed cached by both claimants, two cells simulated (one each),
// one cell budget-skipped by both.
func TestReplayTimeline(t *testing.T) {
	done1 := rec(TypeDone, "a", 1, "h1", 12)
	done1.WallSec = 2
	done2 := rec(TypeDone, "b", 2, "h2", 14)
	done2.WallSec = 6
	recs := []Record{
		{V: Version, T: 10, Type: TypeOpen, Owner: "a", Host: "ha", PID: 1},
		{V: Version, T: 10.5, Type: TypeOpen, Owner: "b", Host: "hb", PID: 2},
		rec(TypeCached, "a", 0, "h0", 10.6),
		rec(TypeCached, "b", 0, "h0", 10.7),
		rec(TypeClaimed, "a", 1, "h1", 11),
		rec(TypeStarted, "a", 1, "h1", 11.1),
		done1,
		rec(TypeClaimed, "b", 2, "h2", 11),
		rec(TypeStarted, "b", 2, "h2", 11.2),
		done2,
		{V: Version, T: 10.8, Type: TypeSkipped, Owner: "a", Index: 3, Hash: "h3", EstSec: 9},
		{V: Version, T: 10.9, Type: TypeSkipped, Owner: "b", Index: 3, Hash: "h3", EstSec: 9},
	}
	tl := Replay(recs)

	if tl.Done != 2 || tl.CachedOnly != 1 || tl.SkippedOnly != 1 || tl.DoubleDone != 0 {
		t.Errorf("timeline: done=%d cachedOnly=%d skippedOnly=%d double=%d",
			tl.Done, tl.CachedOnly, tl.SkippedOnly, tl.DoubleDone)
	}
	if tl.First != 10 || tl.Last != 14 || tl.Span() != 4 {
		t.Errorf("span: first=%g last=%g", tl.First, tl.Last)
	}
	if tl.CostSec != 8 {
		t.Errorf("cost = %g, want 8", tl.CostSec)
	}

	h0 := tl.Cells["h0"]
	if h0.Cached != 2 || h0.Done != 0 {
		t.Errorf("h0 = %+v", h0)
	}
	h1 := tl.Cells["h1"]
	if h1.Done != 1 || h1.DoneOwner != "a" || h1.WallSec != 2 || h1.Started != 11.1 || h1.Completed != 12 {
		t.Errorf("h1 = %+v", h1)
	}
	h3 := tl.Cells["h3"]
	if h3.Skipped != 2 || h3.Done != 0 || h3.Cached != 0 {
		t.Errorf("h3 = %+v", h3)
	}

	a := tl.Owners["a"]
	if a.Opens != 1 || a.Done != 1 || a.Cached != 1 || a.Claimed != 1 || a.Skipped != 1 ||
		a.Host != "ha" || a.PID != 1 || a.CostSec != 2 {
		t.Errorf("owner a = %+v", a)
	}
	if names := tl.OwnerNames(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("owner names = %v", names)
	}

	cells, cost := tl.rates()
	if want := 3.0 / 4; math.Abs(cells-want) > 1e-12 {
		t.Errorf("cellsPerSec = %g, want %g", cells, want)
	}
	if want := 8.0 / 4; math.Abs(cost-want) > 1e-12 {
		t.Errorf("costPerSec = %g, want %g", cost, want)
	}
}

// TestRatesWindow: windowed rates see only recent completions — a
// resumed campaign's idle gap does not dilute the live rate, and a
// dead fleet's rate decays as now moves past its last record.
func TestRatesWindow(t *testing.T) {
	mk := func(hash string, at, wall float64) Record {
		r := rec(TypeDone, "o", 0, hash, at)
		r.WallSec = wall
		return r
	}
	// Session 1 at t=0..60 (4 cells), then a ~2-day gap, then session 2
	// at t=172800..172810 (2 cells, 2 cost-seconds each).
	tl := Replay([]Record{
		mk("a", 0, 1), mk("b", 20, 1), mk("c", 40, 1), mk("d", 60, 1),
		mk("e", 172800, 2), mk("f", 172810, 2),
	})

	// All-time rates are diluted by the gap...
	cells, _ := tl.rates()
	if cells > 0.001 {
		t.Errorf("all-time rate = %g cells/sec, expected gap dilution", cells)
	}
	// ...the 600s window anchored at the live end is not: 2 cells and
	// 4 cost-seconds over 600s.
	cells, cost := tl.RatesWindow(172810, 600)
	if want := 2.0 / 600; math.Abs(cells-want) > 1e-12 {
		t.Errorf("windowed rate = %g, want %g", cells, want)
	}
	if want := 4.0 / 600; math.Abs(cost-want) > 1e-12 {
		t.Errorf("windowed cost rate = %g, want %g", cost, want)
	}
	// A stale now (clock skew) clamps to the newest record, never
	// negative spans.
	if c1, _ := tl.RatesWindow(0, 600); c1 != cells {
		t.Errorf("skewed-now rate = %g, want clamped %g", c1, cells)
	}
	// Once now moves a full window past the last record, the rate has
	// decayed to zero: a dead fleet projects nothing.
	if c, k := tl.RatesWindow(172810+601, 600); c != 0 || k != 0 {
		t.Errorf("post-mortem rates = %g, %g, want 0", c, k)
	}
	// Window <= 0 falls back to all-time.
	allCells, _ := tl.rates()
	if c, _ := tl.RatesWindow(172810, 0); c != allCells {
		t.Errorf("zero window = %g, want all-time %g", c, allCells)
	}
}

// TestReplayDoubleDone: two done records for one hash is the
// exactly-once violation the counter exists for — and the first
// simulation keeps the attribution: the later record must not re-blame
// the cell's owner or replace its wall cost (it used to overwrite
// both, so the cell blamed the wrong claimant and the histogram
// bucketed the wrong cost).
func TestReplayDoubleDone(t *testing.T) {
	first := rec(TypeDone, "a", 0, "h", 1)
	first.WallSec = 2
	second := rec(TypeDone, "b", 0, "h", 2)
	second.WallSec = 60
	tl := Replay([]Record{first, second})
	if tl.Done != 1 || tl.DoubleDone != 1 {
		t.Errorf("done=%d double=%d, want 1/1", tl.Done, tl.DoubleDone)
	}
	c := tl.Cells["h"]
	if c.Done != 2 {
		t.Errorf("cell done = %d, want 2", c.Done)
	}
	if c.DoneOwner != "a" || c.WallSec != 2 || c.DoneT != 1 {
		t.Errorf("attribution = %q/%g at t=%g, want first-done a/2 at t=1", c.DoneOwner, c.WallSec, c.DoneT)
	}
	if c.Completed != 1 {
		t.Errorf("completed = %g, want earliest done time 1", c.Completed)
	}
	// The histogram must price the cell by its first simulation: one
	// cell in the <10s bucket, none in overflow.
	got := tl.CostHistogram()
	if got[4] != 1 || got[5] != 0 {
		t.Errorf("histogram = %v, want the 2s first-done cost bucketed, not the 60s rerun", got)
	}
	// Both done records still count as owner activity and fleet cost.
	if tl.CostSec != 62 || tl.Owners["b"].Done != 1 {
		t.Errorf("fleet cost = %g (owners b done = %d), want 62/1", tl.CostSec, tl.Owners["b"].Done)
	}
}

func TestReplayEmpty(t *testing.T) {
	tl := Replay(nil)
	if tl.Span() != 0 || tl.Done != 0 || len(tl.Cells) != 0 {
		t.Errorf("empty timeline = %+v", tl)
	}
	if c, cost := tl.rates(); c != 0 || cost != 0 {
		t.Errorf("empty rates = %g, %g", c, cost)
	}
}

func TestCostHistogram(t *testing.T) {
	mk := func(hash string, wall float64) Record {
		r := rec(TypeDone, "o", 0, hash, 1)
		r.WallSec = wall
		return r
	}
	tl := Replay([]Record{
		mk("a", 0.0005), // <1ms
		mk("b", 0.05),   // <100ms
		mk("c", 0.5),    // <1s
		mk("d", 100),    // overflow
		mk("e", 0.001),  // exactly 1ms -> second bucket
	})
	got := tl.CostHistogram()
	want := []int{1, 1, 1, 1, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("histogram len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}
}
