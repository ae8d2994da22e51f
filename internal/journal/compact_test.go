package journal

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// listJournal returns the .jsonl file names in dir, sorted.
func listJournal(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) {
			names = append(names, e.Name())
		}
	}
	return names
}

// nonOpen filters out open records, whose timestamps are stamped at
// Open time and so differ between two equivalent journal directories.
func nonOpen(recs []Record) []Record {
	var out []Record
	for _, r := range recs {
		if r.Type != TypeOpen {
			out = append(out, r)
		}
	}
	return out
}

// TestWriterRotationEquivalence: a rotating writer spills into closed
// segments that every reader merges back into exactly the timeline an
// unrotated writer would have produced — same records, same
// equal-timestamp tie-break order — while each file stays under the
// threshold. A held compaction lock keeps the raw segments on disk.
func TestWriterRotationEquivalence(t *testing.T) {
	rotated, plain := t.TempDir(), t.TempDir()
	holdCompactLock(t, rotated)
	const threshold = 256
	wr, err := OpenRotating(rotated, "alpha", threshold)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := OpenRotating(plain, "alpha", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		// Pairs share a timestamp so the merge exercises the tie-break
		// across segment boundaries.
		r := Record{Type: TypeDone, Index: i, Hash: "h", T: float64(100 + i/2), WallSec: 0.5}
		if err := wr.Append(r); err != nil {
			t.Fatal(err)
		}
		if err := wp.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	wr.Close()
	wp.Close()

	names := listJournal(t, rotated)
	if len(names) < 3 {
		t.Fatalf("expected several segment files, got %v", names)
	}
	for _, name := range names {
		fi, err := os.Stat(filepath.Join(rotated, name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > threshold {
			t.Errorf("%s is %d bytes, over the %d-byte rotation threshold", name, fi.Size(), threshold)
		}
	}

	got, gotStats, err := ReadDir(rotated)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := ReadDir(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nonOpen(got), nonOpen(want)) {
		t.Errorf("rotated merge diverges from unrotated:\n got %+v\nwant %+v", nonOpen(got), nonOpen(want))
	}
	if gotStats.Records != wantStats.Records || gotStats.Skipped() != wantStats.Skipped() {
		t.Errorf("rotated stats %+v vs unrotated %+v", gotStats, wantStats)
	}
}

// TestWriterRotationResumesSequence: a restarted claimant must continue
// the segment sequence, never rename over a predecessor's segment
// still on disk (a held compaction lock keeps them there).
func TestWriterRotationResumesSequence(t *testing.T) {
	dir := t.TempDir()
	holdCompactLock(t, dir)
	for session := 0; session < 2; session++ {
		w, err := OpenRotating(dir, "alpha", 128)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := w.Append(Record{Type: TypeDone, Index: i, Hash: "h", T: float64(10 + i)}); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
	}
	recs, _, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var done, opens int
	for _, r := range recs {
		switch r.Type {
		case TypeDone:
			done++
		case TypeOpen:
			opens++
		}
	}
	if done != 20 || opens != 2 {
		t.Errorf("done=%d opens=%d, want 20/2 — a segment was overwritten", done, opens)
	}
}

// TestWriterResumesSequencePastCheckpoint: the compaction every
// rotation runs deletes an owner's segments but their names live on in
// the checkpoint's Folds list. A restarted writer must resume its
// segment sequence past those folded names — a fresh segment reusing
// one would be silently dropped by every reader as already compacted.
func TestWriterResumesSequencePastCheckpoint(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenRotating(dir, "alpha", 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(Record{Type: TypeDone, Index: i, Hash: "h", T: float64(10 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, cks := countSegments(t, dir); segs != 0 || cks != 1 {
		t.Fatalf("first session left %d segments and %d checkpoints, want every segment folded", segs, cks)
	}
	w2, err := OpenRotating(dir, "alpha", 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		if err := w2.Append(Record{Type: TypeDone, Index: i, Hash: "h", T: float64(10 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	tl := Replay(recs)
	c := tl.Cells["h"]
	if c == nil || c.Done != 20 {
		t.Fatalf("cell done=%v, want 20 — the restarted writer's segments collided with folded names", c)
	}
	if o := tl.Owners["alpha"]; o == nil || o.Opens != 2 {
		t.Errorf("owner after restart: %+v, want opens=2", o)
	}
}

// TestTailerAcrossRotation: a tailer polling while the writer rotates
// stays equivalent to ReadDir at every step, both while rotation folds
// each segment into a checkpoint and while a held compaction lock lets
// the segments pile up.
func TestTailerAcrossRotation(t *testing.T) {
	for _, locked := range []bool{false, true} {
		dir := t.TempDir()
		if locked {
			holdCompactLock(t, dir)
		}
		w, err := OpenRotating(dir, "alpha", 200)
		if err != nil {
			t.Fatal(err)
		}
		tl := NewTailer(dir)
		for i := 0; i < 30; i++ {
			if err := w.Append(Record{Type: TypeDone, Index: i, Hash: "h", T: float64(100 + i)}); err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := tl.Poll()
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats, err := ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("locked=%v, after %d appends: poll diverges from ReadDir\n got %+v\nwant %+v", locked, i+1, got, want)
			}
			if gotStats != wantStats {
				t.Fatalf("locked=%v, after %d appends: poll stats %+v, ReadDir %+v", locked, i+1, gotStats, wantStats)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs, cks := countSegments(t, dir)
		if locked && (segs == 0 || cks != 0) || !locked && (segs != 0 || cks != 1) {
			t.Fatalf("locked=%v: %d segments and %d checkpoints left", locked, segs, cks)
		}
	}
}

// timelineEqual compares the replayed state two timelines agree on
// (everything except the unexported completions order and the
// Compacted counter).
func timelineEqual(t *testing.T, got, want *Timeline, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Errorf("%s: cells diverge\n got %+v\nwant %+v", label, got.Cells, want.Cells)
	}
	if !reflect.DeepEqual(got.Owners, want.Owners) {
		t.Errorf("%s: owners diverge\n got %+v\nwant %+v", label, got.Owners, want.Owners)
	}
	if got.First != want.First || got.Last != want.Last {
		t.Errorf("%s: span [%g,%g], want [%g,%g]", label, got.First, got.Last, want.First, want.Last)
	}
	if got.Done != want.Done || got.CachedOnly != want.CachedOnly ||
		got.SkippedOnly != want.SkippedOnly || got.DoubleDone != want.DoubleDone ||
		got.CostSec != want.CostSec {
		t.Errorf("%s: totals done=%d cachedOnly=%d skippedOnly=%d double=%d cost=%g, want %d/%d/%d/%d/%g",
			label, got.Done, got.CachedOnly, got.SkippedOnly, got.DoubleDone, got.CostSec,
			want.Done, want.CachedOnly, want.SkippedOnly, want.DoubleDone, want.CostSec)
	}
	if !reflect.DeepEqual(got.CostHistogram(), want.CostHistogram()) {
		t.Errorf("%s: histogram %v, want %v", label, got.CostHistogram(), want.CostHistogram())
	}
	for _, window := range []float64{0, 5, 50} {
		gc, gcost := got.RatesWindow(want.Last, window)
		wc, wcost := want.RatesWindow(want.Last, window)
		if gc != wc || gcost != wcost {
			t.Errorf("%s: rates(window=%g) = %g/%g, want %g/%g", label, window, gc, gcost, wc, wcost)
		}
	}
}

// buildRotatedCampaign journals a small two-claimant campaign with tiny
// rotation thresholds: claims, dones (one double-done), cached views, a
// budget skip, and a malformed line in a closed segment. It holds the
// compaction lock throughout, so the segments are left for the test's
// own Compact calls.
func buildRotatedCampaign(t *testing.T, dir string) {
	t.Helper()
	defer holdCompactLock(t, dir)()
	wa, err := OpenRotating(dir, "alpha", 180)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := OpenRotating(dir, "beta", 180)
	if err != nil {
		t.Fatal(err)
	}
	at := func(w *Writer, r Record) {
		t.Helper()
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		h := string(rune('a'+i)) + "-hash"
		at(wa, Record{Type: TypeClaimed, Index: i, Hash: h, T: float64(100 + 10*i)})
		at(wa, Record{Type: TypeStarted, Index: i, Hash: h, T: float64(101 + 10*i)})
		at(wa, Record{Type: TypeDone, Index: i, Hash: h, T: float64(105 + 10*i), WallSec: float64(i) + 0.5})
		at(wb, Record{Type: TypeCached, Index: i, Hash: h, T: float64(106 + 10*i)})
	}
	// One exactly-once violation with distinct costs, one stale-lease
	// break, one budget skip, one warm cell.
	at(wb, Record{Type: TypeDone, Index: 2, Hash: "c-hash", T: 300, WallSec: 40})
	at(wb, Record{Type: TypeReclaimed, Hash: "a-hash", By: "beta", T: 301})
	at(wa, Record{Type: TypeSkipped, Index: 20, Hash: "skip-hash", EstSec: 9, T: 302})
	at(wb, Record{Type: TypeCached, Index: 21, Hash: "warm-hash", T: 303})
	wa.Close()
	wb.Close()

	// A malformed interior line inside a closed segment: compaction
	// must carry the skip count forward.
	var seg string
	for _, name := range listJournal(t, dir) {
		if _, _, ok := splitSegmentName(name); ok {
			seg = name
			break
		}
	}
	if seg == "" {
		t.Fatal("campaign too small to rotate: no closed segment found")
	}
	appendRaw(t, dir, seg, []byte("torn garbage from a past crash\n"))
}

// TestCompactPreservesReplay: compaction must be invisible to Replay —
// same cells, owners, attribution, totals, histogram and windowed
// rates — while strictly shrinking the directory, including across a
// second round of appends and a re-compaction.
func TestCompactPreservesReplay(t *testing.T) {
	dir := t.TempDir()
	buildRotatedCampaign(t, dir)

	before, beforeStats, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := Replay(before)

	stats, err := Compact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpoint == "" || stats.Segments == 0 {
		t.Fatalf("compaction did nothing: %+v (files %v)", stats, listJournal(t, dir))
	}
	after, afterStats, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	timelineEqual(t, Replay(after), want, "after compaction")
	if got := Replay(after); got.Compacted == 0 {
		t.Errorf("compacted record count not surfaced: %+v", got)
	}
	if afterStats.Malformed+afterStats.TruncatedTails != beforeStats.Malformed+beforeStats.TruncatedTails {
		t.Errorf("skip accounting lost in compaction: before %+v, after %+v", beforeStats, afterStats)
	}
	for _, name := range listJournal(t, dir) {
		if _, _, ok := splitSegmentName(name); ok {
			t.Errorf("segment %s survived compaction", name)
		}
	}

	// An immediate second pass has nothing to fold.
	stats2, err := Compact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Checkpoint != "" || stats2.Segments != 0 || stats2.Checkpoints != 0 {
		t.Errorf("second pass should be a no-op, did %+v", stats2)
	}

	// More history, another compaction: the new checkpoint folds the
	// old one and replay still matches the full pre-compaction state.
	w, err := OpenRotating(dir, "alpha", 180)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := w.Append(Record{Type: TypeDone, Index: 30 + i, Hash: "late-" + string(rune('a'+i)), T: float64(400 + i), WallSec: 1.5}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	wantFull := Replay(mustReadDir(t, dir))
	if _, err := Compact(dir); err != nil {
		t.Fatal(err)
	}
	timelineEqual(t, Replay(mustReadDir(t, dir)), wantFull, "after re-compaction")

	ckCount := 0
	for _, name := range listJournal(t, dir) {
		if _, ok := checkpointSeq(name); ok {
			ckCount++
		}
	}
	if ckCount != 1 {
		t.Errorf("want exactly one live checkpoint after re-compaction, files: %v", listJournal(t, dir))
	}
}

func mustReadDir(t *testing.T, dir string) []Record {
	t.Helper()
	recs, _, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestCompactCrashLeftovers: a compactor killed after installing the
// checkpoint but before deleting the folded files leaves both on disk.
// Readers must not double-count, the tailer must converge, and the
// next pass garbage-collects.
func TestCompactCrashLeftovers(t *testing.T) {
	clean, crashed := t.TempDir(), t.TempDir()
	buildRotatedCampaign(t, clean)
	// Freeze the pre-compaction state as the crashed twin.
	for _, name := range listJournal(t, clean) {
		data, err := os.ReadFile(filepath.Join(clean, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := Compact(clean)
	if err != nil {
		t.Fatal(err)
	}
	// The crashed twin gets the checkpoint but keeps the dead files.
	data, err := os.ReadFile(filepath.Join(clean, stats.Checkpoint))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crashed, stats.Checkpoint), data, 0o644); err != nil {
		t.Fatal(err)
	}

	wantRecs, wantStats, err := ReadDir(clean)
	if err != nil {
		t.Fatal(err)
	}
	gotRecs, gotStats, err := ReadDir(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nonOpen(gotRecs), nonOpen(wantRecs)) {
		t.Errorf("crashed-compaction dir double-counts: %d records vs %d", len(gotRecs), len(wantRecs))
	}
	if gotStats != wantStats {
		t.Errorf("crashed-compaction stats %+v, want %+v", gotStats, wantStats)
	}
	timelineEqual(t, Replay(gotRecs), Replay(wantRecs), "crashed compaction")

	tl := NewTailer(crashed)
	polled, polledStats, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(polled, gotRecs) || polledStats != gotStats {
		t.Errorf("tailer over crashed dir diverges from ReadDir: %+v vs %+v", polledStats, gotStats)
	}

	// The next pass is pure garbage collection.
	gc, err := Compact(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if gc.Checkpoint != "" || gc.Segments == 0 {
		t.Errorf("gc pass = %+v, want deletions and no new checkpoint", gc)
	}
	if !reflect.DeepEqual(listJournal(t, crashed), listJournal(t, clean)) {
		t.Errorf("after gc: %v, want %v", listJournal(t, crashed), listJournal(t, clean))
	}
}

// TestCompactKeepsTornTailHidden: a closed segment that ends in a
// complete record without its newline holds a torn tail, which no
// reader takes as a record. Compaction folds it into Malformed, so the
// Tailer's records, Replay's Done count and the skip total are the
// same before and after the pass.
func TestCompactKeepsTornTailHidden(t *testing.T) {
	dir := t.TempDir()
	appendRaw(t, dir, "alpha.000001.jsonl", []byte(
		`{"v":1,"t":1,"type":"done","owner":"alpha","index":0,"hash":"h0"}`+"\n"+
			`{"v":1,"t":2,"type":"done","owner":"alpha","index":1,"hash":"h1"}`+"\n"+
			`{"v":1,"t":3,"type":"done","owner":"alpha","index":2,"hash":"h2"}`))
	appendRaw(t, dir, "alpha.jsonl", []byte(`{"v":1,"t":4,"type":"open","owner":"alpha"}`+"\n"))

	poll := func(label string) ([]Record, ReadStats) {
		t.Helper()
		recs, stats, err := NewTailer(dir).Poll()
		if err != nil {
			t.Fatal(err)
		}
		dirRecs, dirStats, err := ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(recs, dirRecs) || stats != dirStats {
			t.Errorf("%s: Tailer (%+v) and ReadDir (%+v) disagree", label, stats, dirStats)
		}
		return recs, stats
	}
	before, beforeStats := poll("before compaction")
	if done := Replay(before).Done; done != 2 {
		t.Fatalf("before compaction: Done = %d, want 2 (the torn record is hidden)", done)
	}
	if _, err := Compact(dir); err != nil {
		t.Fatal(err)
	}
	if files := listJournal(t, dir); len(files) != 2 || !strings.HasPrefix(files[1], checkpointPrefix) {
		t.Fatalf("compaction left %v, want the active file and one checkpoint", files)
	}
	after, afterStats := poll("after compaction")
	if got, want := Replay(after).Done, Replay(before).Done; got != want {
		t.Errorf("Done = %d after compaction, want %d", got, want)
	}
	// The checkpoint record stands for the raw records it folded.
	if got, want := len(after)-1+Replay(after).Compacted, len(before); got != want {
		t.Errorf("%d raw records after compaction, want %d", got, want)
	}
	if got, want := afterStats.Malformed+afterStats.TruncatedTails, beforeStats.Malformed+beforeStats.TruncatedTails; got != want || got != 1 {
		t.Errorf("skips after compaction = %d, before = %d, want 1 both times", got, want)
	}
}

// TestOwnerNamespaceCollisions: owners whose sanitized stem would
// collide with segment or checkpoint file names are refused.
func TestOwnerNamespaceCollisions(t *testing.T) {
	dir := t.TempDir()
	for _, owner := range []string{"alpha.000001", "checkpoint-000007"} {
		if _, err := OpenRotating(dir, owner, 0); err == nil {
			t.Errorf("owner %q accepted, want namespace-collision error", owner)
		}
	}
	if _, err := OpenRotating(dir, "checkpointish", 0); err != nil {
		t.Errorf("owner %q refused: %v", "checkpointish", err)
	}
}
