package exp

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
)

// forensicsRecords is a small contended two-claimant campaign: alpha
// simulates cells 0 and 1, beta steals cell 2 off alpha's stale lease
// and simulates it, both double-claim cell 1, cell 3 is observed
// cached, cell 4 is budget-skipped, and cell 1 is done twice (the
// exactly-once violation the report must surface).
func forensicsRecords() []journal.Record {
	rec := func(t float64, typ, owner string, idx int, hash string, wall float64) journal.Record {
		return journal.Record{V: journal.Version, T: t, Type: typ, Owner: owner, Index: idx, Hash: hash, WallSec: wall}
	}
	return []journal.Record{
		{V: journal.Version, T: 100, Type: journal.TypeOpen, Owner: "alpha", Host: "h1", PID: 11},
		{V: journal.Version, T: 101, Type: journal.TypeOpen, Owner: "beta", Host: "h2", PID: 22},
		rec(102, journal.TypeClaimed, "alpha", 0, "cell-a", 0),
		rec(103, journal.TypeStarted, "alpha", 0, "cell-a", 0),
		rec(110, journal.TypeDone, "alpha", 0, "cell-a", 8),
		rec(111, journal.TypeClaimed, "alpha", 1, "cell-b", 0),
		rec(112, journal.TypeClaimed, "beta", 1, "cell-b", 0), // contended
		rec(113, journal.TypeStarted, "alpha", 1, "cell-b", 0),
		rec(120, journal.TypeDone, "alpha", 1, "cell-b", 6),
		rec(125, journal.TypeDone, "beta", 1, "cell-b", 60), // double-done; must not steal attribution
		rec(114, journal.TypeClaimed, "alpha", 2, "cell-c", 0),
		{V: journal.Version, T: 130, Type: journal.TypeReclaimed, Owner: "beta", Hash: "cell-c", By: "beta"},
		rec(131, journal.TypeStarted, "beta", 2, "cell-c", 0),
		rec(140, journal.TypeDone, "beta", 2, "cell-c", 4),
		rec(141, journal.TypeCached, "beta", 3, "cell-d", 0),
		rec(142, journal.TypeSkipped, "beta", 4, "cell-e", 0),
	}
}

func buildForensicsReport() *ReplayReport {
	recs := forensicsRecords()
	stats := journal.ReadStats{Files: 2, Records: len(recs)}
	return NewReplayReport("dir:///campaign", recs, stats)
}

func TestReplayReportSections(t *testing.T) {
	r := buildForensicsReport()
	tl := r.Timeline
	if tl.Done != 3 || tl.CachedOnly != 1 || tl.SkippedOnly != 1 || tl.DoubleDone != 1 {
		t.Fatalf("timeline totals: done=%d cached=%d skipped=%d double=%d",
			tl.Done, tl.CachedOnly, tl.SkippedOnly, tl.DoubleDone)
	}

	// Both multi-lease cells are listed, in index order, with their
	// event windows and every owner whose lease event named them.
	if len(r.Contended) != 2 {
		t.Fatalf("Contended = %+v, want 2 cells", r.Contended)
	}
	b := r.Contended[0]
	if b.Hash != "cell-b" || b.Claims != 2 || b.Reclaims != 0 ||
		strings.Join(b.Owners, ",") != "alpha,beta" || b.FirstT != 111 || b.LastT != 112 {
		t.Errorf("cell-b contention = %+v", b)
	}
	c := r.Contended[1]
	if c.Hash != "cell-c" || c.Claims != 1 || c.Reclaims != 1 || c.FirstT != 114 || c.LastT != 130 {
		t.Errorf("cell-c contention = %+v", c)
	}

	if len(r.Reclaims) != 1 || r.Reclaims[0] != (ReclaimEvent{T: 130, By: "beta", Hash: "cell-c"}) {
		t.Errorf("Reclaims = %+v", r.Reclaims)
	}

	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cells: 3 done, 1 cached-only, 1 skipped-only, 1 double-done",
		"timeline: 2 claimants",
		"contention: 2 cells",
		"reclaims: 1 total",
		"double-done: 1 cells simulated more than once",
		"attributed=alpha", // first done keeps the blame
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}
}

// TestReplayReportDeterministic renders every format twice from
// independently built reports and demands identical bytes — the
// property the CI forensics gate byte-compares across processes.
func TestReplayReportDeterministic(t *testing.T) {
	render := func() (string, string, string) {
		r := buildForensicsReport()
		wi, err := ComputeWhatIf(r.Timeline, WhatIfOptions{Plan: "cost", Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		r.WhatIf = wi
		var text, csv, js bytes.Buffer
		if err := r.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return text.String(), csv.String(), js.String()
	}
	t1, c1, j1 := render()
	t2, c2, j2 := render()
	if t1 != t2 {
		t.Error("text report not deterministic")
	}
	if c1 != c2 {
		t.Error("CSV report not deterministic")
	}
	if j1 != j2 {
		t.Error("JSON report not deterministic")
	}
	if !strings.Contains(c1, "1,cell-b,double-done,2,0,0,2,0,alpha,") {
		t.Errorf("CSV missing the double-done row with first-done attribution:\n%s", c1)
	}
}

// TestReplayReportCompactionInvariant: a journal whose writers rotate
// (and so compact) must replay to the same cell table (the CSV) as its
// unrotated twin, even though the raw contention windows are folded
// away.
func TestReplayReportCompactionInvariant(t *testing.T) {
	render := func(rotateBytes int64) (string, string) {
		dir := t.TempDir()
		byOwner := make(map[string]*journal.Writer)
		for _, rec := range forensicsRecords() {
			w := byOwner[rec.Owner]
			if w == nil {
				var err error
				w, err = journal.OpenRotating(dir, rec.Owner, rotateBytes)
				if err != nil {
					t.Fatal(err)
				}
				byOwner[rec.Owner] = w
				defer w.Close()
			}
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		recs, stats, err := journal.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := NewReplayReport("x", recs, stats).WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return csv.String(), dir
	}
	// A tiny threshold so the history spans several segments.
	rotated, dir := render(200)
	flat, _ := render(0)
	if cks, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.jsonl")); len(cks) == 0 {
		t.Fatal("the rotating writers left no checkpoint: nothing was compacted")
	}
	if rotated != flat {
		t.Errorf("per-cell CSV differs between compacted and unrotated journals:\ncompacted:\n%s\nunrotated:\n%s", rotated, flat)
	}
}

func TestComputeWhatIf(t *testing.T) {
	r := buildForensicsReport()
	tl := r.Timeline
	// Recorded: alpha did 8+6=14s, beta did 4s -> modeled makespan 14.
	wi, err := ComputeWhatIf(tl, WhatIfOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if wi.Plan != "order" || wi.Workers != 2 || wi.Cells != 3 {
		t.Fatalf("defaults: %+v", wi)
	}
	if wi.RecordedMakespanSec != 14 {
		t.Errorf("recorded modeled makespan = %v, want 14", wi.RecordedMakespanSec)
	}
	// Order plan, 2 workers, greedy: 8->w0, 6->w1, 4->w1 = loads 8,10.
	if wi.ProjectedMakespanSec != 10 || wi.DeltaSec != -4 {
		t.Errorf("order/2: projected=%v delta=%v, want 10/-4", wi.ProjectedMakespanSec, wi.DeltaSec)
	}

	// Cost plan on one worker: everything serializes, makespan = 18.
	wi, err = ComputeWhatIf(tl, WhatIfOptions{Plan: "cost", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if wi.ProjectedMakespanSec != 18 || wi.DeltaSec != 4 {
		t.Errorf("cost/1: projected=%v delta=%v, want 18/4", wi.ProjectedMakespanSec, wi.DeltaSec)
	}

	// Budget 15s admits 8 and 6 (cost order), then the 4s cell
	// overflows (14+4 > 15) and admission hard-stops.
	wi, err = ComputeWhatIf(tl, WhatIfOptions{Workers: 1, Budget: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if wi.Plan != "cost" {
		t.Errorf("budget did not imply the cost plan: %q", wi.Plan)
	}
	if wi.Admitted != 2 || wi.Skipped != 1 || wi.SkippedCostSec != 4 {
		t.Errorf("budget admission: %+v", wi)
	}
	if wi.ProjectedMakespanSec != 14 {
		t.Errorf("budgeted projected makespan = %v, want 14", wi.ProjectedMakespanSec)
	}

	// The live CLI's rule: an explicit non-cost plan under a budget is
	// an error, not silently overridden.
	if _, err := ComputeWhatIf(tl, WhatIfOptions{Plan: "order", Budget: time.Second}); err == nil {
		t.Error("budget with plan=order did not error")
	}
	if _, err := ComputeWhatIf(tl, WhatIfOptions{Plan: "banana"}); err == nil {
		t.Error("unknown plan did not error")
	}
}
