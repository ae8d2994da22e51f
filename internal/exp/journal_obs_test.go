package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
)

// TestJournalRecorderRoundTrip: one cached campaign's event stream
// lands in the journal and replays to the same accounting the engine
// reported.
func TestJournalRecorderRoundTrip(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Warm half the grid so the journal carries cached observations too.
	if _, err := runCampaign(smallGrid(1), cache, 1, fakeRun); err != nil {
		t.Fatal(err)
	}
	rec := NewJournalRecorder(cache, "round-trip")
	camp := Campaign{Grid: smallGrid(1, 2), Store: cache, Parallel: 2, Observer: rec, run: fakeRun}
	_, stats, err := camp.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("recorder error: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(journal.FilePath(cache.JournalDir(), "round-trip")); err != nil {
		t.Errorf("recorder wrote no journal file of its own: %v", err)
	}

	recs, rstats, err := journal.ReadDir(cache.JournalDir())
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Skipped() != 0 {
		t.Errorf("read stats: %v", rstats)
	}
	tl := journal.Replay(recs)
	if tl.Done != stats.Simulated {
		t.Errorf("replay done=%d, engine reported simulated=%d", tl.Done, stats.Simulated)
	}
	// Warm pre-scan hits are deliberately not journaled (the cell files
	// already prove them, and warm re-renders must not regrow the
	// journal), so the cached side of the history stays empty here.
	if tl.CachedOnly != 0 {
		t.Errorf("replay cachedOnly=%d, want 0 (warm hits are not journaled)", tl.CachedOnly)
	}
	o := tl.Owners["round-trip"]
	if o == nil || o.Opens != 1 || o.Done != stats.Simulated || o.Cached != 0 {
		t.Errorf("owner activity = %+v, stats %v", o, stats)
	}
	for _, c := range tl.Cells {
		if c.Hash == "" || len(c.Hash) != 64 {
			t.Errorf("cell journaled without a spec hash: %+v", c)
		}
	}
}

// TestThreeClaimantJournalReplay is the exactly-once acceptance
// criterion in-process: three concurrent claimants of one cold cache,
// each journaling, and the merged replay reconstructs exactly-once
// per-cell completion — distinct simulated cells equal the grid size,
// the per-claimant counts sum to it, and no cell was simulated twice.
func TestThreeClaimantJournalReplay(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	grid := smallGrid(1, 2) // 8 runs
	const claimants = 3
	var wg sync.WaitGroup
	for i := 0; i < claimants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			owner := fmt.Sprintf("claimant-%d", i)
			rec := NewJournalRecorder(cache, owner)
			defer rec.Close()
			camp := Campaign{
				Grid: grid, Store: cache, Parallel: 2, Observer: rec,
				Claim: &ClaimOptions{Owner: owner, TTL: time.Second},
				run: func(s RunSpec) (RunResult, error) {
					time.Sleep(time.Millisecond) // let the claimants interleave
					return fakeRun(s)
				},
			}
			if _, _, err := camp.Execute(); err != nil {
				t.Errorf("claimant %d: %v", i, err)
			}
			if err := rec.Err(); err != nil {
				t.Errorf("claimant %d journal: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	recs, stats, err := journal.ReadDir(cache.JournalDir())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Files != claimants || stats.Skipped() != 0 {
		t.Errorf("read stats: %v, want %d clean files", stats, claimants)
	}
	tl := journal.Replay(recs)
	total := grid.NumRuns()
	if tl.Done != total {
		t.Errorf("replayed %d simulated cells, want the whole %d-run grid", tl.Done, total)
	}
	if tl.DoubleDone != 0 {
		t.Errorf("%d cells simulated more than once", tl.DoubleDone)
	}
	sum := 0
	for _, name := range tl.OwnerNames() {
		sum += tl.Owners[name].Done
	}
	if sum != total {
		t.Errorf("per-claimant done counts sum to %d, want %d", sum, total)
	}
	for hash, c := range tl.Cells {
		if c.Done > 1 {
			t.Errorf("cell %.12s simulated %d times", hash, c.Done)
		}
		if c.Done == 1 && c.Started == 0 {
			t.Errorf("cell %.12s done without a start", hash)
		}
	}
}

// TestCampaignChromeSink: the Chrome trace sink shares TraceDirSink's
// contract — one artifact per simulated run, none for cached hits —
// and MultiSink drives both exports from one campaign.
func TestCampaignChromeSink(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	chromeDir := t.TempDir()
	prvDir := t.TempDir()
	chrome, err := NewChromeTraceSink(chromeDir)
	if err != nil {
		t.Fatal(err)
	}
	paraver, err := NewTraceDirSink(prvDir)
	if err != nil {
		t.Fatal(err)
	}
	// Fewer than two sinks need no fan-out: none is no sink at all, and
	// one is that sink itself.
	if s := MultiSink(); s != nil {
		t.Errorf("MultiSink() = %T, want nil", s)
	}
	if s := MultiSink(nil, chrome, nil); s != ArtifactSink(chrome) {
		t.Errorf("MultiSink(nil, chrome, nil) = %T, want the chrome sink itself", s)
	}
	camp := Campaign{
		Grid:      smallGrid(1), // 4 runs
		Store:     cache,
		Parallel:  2,
		Sink:      MultiSink(paraver, nil, chrome),
		runTraced: fakeTracedRun,
	}
	if _, stats, err := camp.Execute(); err != nil {
		t.Fatal(err)
	} else if stats.Simulated != 4 {
		t.Fatalf("stats: %v", stats)
	}
	traces, _ := filepath.Glob(filepath.Join(chromeDir, "*.trace.json"))
	prv, _ := filepath.Glob(filepath.Join(prvDir, "*.prv"))
	if len(traces) != 4 || len(prv) != 4 {
		t.Fatalf("artifacts: %d chrome, %d paraver, want 4+4", len(traces), len(prv))
	}
	// Every artifact is a well-formed Chrome trace-event array with the
	// synthetic task in it.
	for _, p := range traces {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(data, &events); err != nil {
			t.Fatalf("%s is not a JSON event array: %v", p, err)
		}
		if len(events) != 1 || events[0]["ph"] != "X" {
			t.Errorf("%s events = %+v", filepath.Base(p), events)
		}
	}

	// Warm re-run: cached hits emit nothing.
	chromeDir2 := t.TempDir()
	chrome2, err := NewChromeTraceSink(chromeDir2)
	if err != nil {
		t.Fatal(err)
	}
	camp2 := Campaign{Grid: smallGrid(1), Store: cache, Parallel: 2, Sink: chrome2, runTraced: fakeTracedRun}
	if _, stats, err := camp2.Execute(); err != nil {
		t.Fatal(err)
	} else if stats.Simulated != 0 {
		t.Fatalf("warm stats: %v", stats)
	}
	if got, _ := filepath.Glob(filepath.Join(chromeDir2, "*")); len(got) != 0 {
		t.Errorf("warm campaign wrote %d chrome artifacts, want none: %v", len(got), got)
	}
}

// TestWatcherJournalStatus: rates come from the journaled history, the
// ETA from the cost model over the still-uncached cells divided by the
// observed retirement speed.
func TestWatcherJournalStatus(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := smallGrid(1, 2) // 8 runs
	specs := g.Runs()
	// Cache the first 4 runs with a 2s recorded cost each: the cost
	// model then estimates every remaining cell at 2s (coarse key).
	for _, s := range specs[:4] {
		rr, err := fakeRun(s)
		if err != nil {
			t.Fatal(err)
		}
		rr.Wall = 2 * time.Second
		if err := cache.StoreCell(rr); err != nil {
			t.Fatal(err)
		}
	}
	// Journal history: one claimant simulated those 4 cells over a 10s
	// span, retiring 8 cost-seconds — speed 0.8x.
	w, err := journal.OpenRotating(cache.JournalDir(), "historian", 0)
	if err != nil {
		t.Fatal(err)
	}
	base := float64(time.Now().Unix())
	for i, s := range specs[:4] {
		s.fillDefaults()
		if err := w.Append(journal.Record{
			Type: journal.TypeDone, Index: i, Hash: s.Hash(),
			WallSec: 2, T: base + float64(i)*10.0/3,
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	watcher, err := NewWatcher(cache, g)
	if err != nil {
		t.Fatal(err)
	}
	js, err := watcher.JournalStatus()
	if err != nil {
		t.Fatal(err)
	}
	if js == nil {
		t.Fatal("JournalStatus = nil with a journal present")
	}
	if js.Claimants != 1 || len(js.Owners) != 1 || js.Owners[0].Done != 4 {
		t.Errorf("claimants: %+v", js.Owners)
	}
	if js.Remaining != 4 || js.EstKnown != 4 || js.RemainingEstSec != 8 {
		t.Errorf("remaining = %d (known %d, est %gs), want 4/4/8s",
			js.Remaining, js.EstKnown, js.RemainingEstSec)
	}
	// 4 cells in 10s = 24/min; 8 cost-seconds in 10s = 0.8x; ETA =
	// 8s remaining / 0.8 = 10s.
	if js.CellsPerMin < 23.9 || js.CellsPerMin > 24.1 {
		t.Errorf("rate = %g cells/min, want ~24", js.CellsPerMin)
	}
	if !js.OK || js.ETA.Round(time.Second) != 10*time.Second {
		t.Errorf("ETA = (%v, %t), want ~10s", js.ETA, js.OK)
	}
	line := js.String()
	if !strings.Contains(line, "rate=") || !strings.Contains(line, "eta=") {
		t.Errorf("status line %q misses rate/eta", line)
	}

	// A journal-less cache watches as before, with no journal status.
	bare, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bw, err := NewWatcher(bare, g)
	if err != nil {
		t.Fatal(err)
	}
	if js, err := bw.JournalStatus(); err != nil || js != nil {
		t.Errorf("bare cache journal status = (%v, %v), want (nil, nil)", js, err)
	}
}

// TestLeaseStatusStaleFlag: lease lines carry the claimant process and
// flag heartbeats past 3/4 of the TTL.
func TestLeaseStatusStaleFlag(t *testing.T) {
	fresh := LeaseStatus{Owner: "w1", Host: "nodeA", PID: 7, Age: time.Second}
	stale := LeaseStatus{Owner: "w2", Host: "nodeB", PID: 9, Age: 25 * time.Second}
	ttl := 30 * time.Second
	if got := fresh.describe(ttl); got != "w1[nodeA:7] age=1s" {
		t.Errorf("fresh lease = %q", got)
	}
	if got := stale.describe(ttl); got != "w2[nodeB:9] age=25s stale?" {
		t.Errorf("stale lease = %q", got)
	}
	// Unknown TTL: no stale verdict. Unreadable body: owner only.
	if got := stale.describe(0); strings.Contains(got, "stale?") {
		t.Errorf("stale flagged without a TTL: %q", got)
	}
	unread := LeaseStatus{Owner: "?", Host: "?", Age: time.Second}
	if got := unread.describe(ttl); got != "? age=1s" {
		t.Errorf("unreadable lease = %q", got)
	}
	// Default host:pid owners are not repeated.
	dflt := LeaseStatus{Owner: "nodeC:12", Host: "nodeC", PID: 12, Age: time.Second}
	if got := dflt.describe(ttl); got != "nodeC:12 age=1s" {
		t.Errorf("default-owner lease = %q", got)
	}
}
