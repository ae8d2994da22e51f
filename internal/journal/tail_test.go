package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// appendRaw appends raw bytes to a journal file, bypassing the Writer —
// tests use it to forge malformed lines, version skew and torn tails.
func appendRaw(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTailerMatchesReadDir: over a directory of journal files —
// multiple claimants, malformed interior lines, version skew, and
// unterminated final lines, parseable or not — a Tailer poll returns
// exactly what a full ReadDir does: only the newline proves a line, so
// neither reader takes an unterminated line as a record.
func TestTailerMatchesReadDir(t *testing.T) {
	dir := t.TempDir()
	for _, owner := range []string{"beta", "alpha"} {
		w, err := OpenRotating(dir, owner, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := w.Append(Record{Type: TypeDone, Index: i, Hash: "h", T: float64(10 + i)}); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
	}
	appendRaw(t, dir, "alpha.jsonl", []byte("not json at all\n"))
	appendRaw(t, dir, "beta.jsonl", []byte(`{"v":999,"t":11,"type":"done","owner":"beta"}`+"\n"))
	appendRaw(t, dir, "alpha.jsonl", []byte(`{"v":1,"t":12,"type":"done","owner":"alpha","index":9,"hash":"h"}`))
	appendRaw(t, dir, "beta.jsonl", []byte(`{"v":1,"t":13,"ty`))

	want, wantStats, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.TruncatedTails != 2 {
		t.Errorf("ReadDir stats = %+v, want both unterminated lines counted as truncated tails", wantStats)
	}
	for _, r := range want {
		if r.Index == 9 {
			t.Errorf("ReadDir returned the unterminated line as a record: %+v", r)
		}
	}
	tl := NewTailer(dir)
	got, gotStats, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Poll records diverge from ReadDir:\n got %+v\nwant %+v", got, want)
	}
	if gotStats != wantStats {
		t.Errorf("Poll stats = %+v, ReadDir stats = %+v", gotStats, wantStats)
	}
	if tl.LastPollBytes() == 0 {
		t.Error("first poll read zero bytes from a populated journal")
	}
}

// TestTailerSecondPollReadsZeroBytes: the satellite contract — a poll
// over an unchanged directory reads zero journal bytes, and a poll after
// one append reads only that append.
func TestTailerSecondPollReadsZeroBytes(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenRotating(dir, "claimant", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := w.Append(Record{Type: TypeDone, Index: i, Hash: "h", T: float64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}

	tl := NewTailer(dir)
	first, _, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 51 { // open record + 50 done records
		t.Fatalf("first poll = %d records, want 51", len(first))
	}

	second, stats, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if tl.LastPollBytes() != 0 {
		t.Errorf("poll over unchanged directory read %d bytes, want 0", tl.LastPollBytes())
	}
	if len(second) != 51 || stats.Records != 51 {
		t.Errorf("unchanged poll = %d records (stats %d), want 51", len(second), stats.Records)
	}

	// One more record: the next poll reads just that line, not the file.
	if err := w.Append(Record{Type: TypeDone, Index: 50, Hash: "h", T: 99}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	full, err := os.Stat(FilePath(dir, "claimant"))
	if err != nil {
		t.Fatal(err)
	}
	third, _, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(third) != 52 {
		t.Errorf("poll after append = %d records, want 52", len(third))
	}
	if n := tl.LastPollBytes(); n == 0 || n >= full.Size() {
		t.Errorf("poll after one append read %d of %d bytes, want one line's worth", n, full.Size())
	}
}

// TestTailerHoldsTornTail: an unterminated final line — even one that
// already parses — is never consumed until its newline lands; the offset
// holds and the completed line is picked up by a later poll.
func TestTailerHoldsTornTail(t *testing.T) {
	dir := t.TempDir()
	line := `{"v":1,"t":5,"type":"done","owner":"o","index":0}`
	appendRaw(t, dir, "o.jsonl", []byte(line[:20])) // torn mid-record

	tl := NewTailer(dir)
	recs, stats, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || stats.TruncatedTails != 1 {
		t.Fatalf("torn tail: %d records, stats %+v, want 0 records and 1 truncated tail", len(recs), stats)
	}

	// Unchanged torn file: still zero bytes read, tail still reported.
	if _, stats, err = tl.Poll(); err != nil {
		t.Fatal(err)
	}
	if tl.LastPollBytes() != 0 || stats.TruncatedTails != 1 {
		t.Errorf("unchanged torn file: read %d bytes, stats %+v", tl.LastPollBytes(), stats)
	}

	// The writer finishes the line: the record appears, the tail clears.
	appendRaw(t, dir, "o.jsonl", []byte(line[20:]+"\n"))
	recs, stats, err = tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].T != 5 || stats.TruncatedTails != 0 {
		t.Errorf("completed tail: %d records, stats %+v, want the one record and no truncated tail", len(recs), stats)
	}
}

// TestTailerTruncateToEmpty: a journal file replaced with an empty one
// must drop out of the merged timeline on the next poll. The shrink
// path used to reset the tail state to size 0 and then hit the
// "unchanged size" fast path without reporting a change, so Poll kept
// serving the vanished records forever.
func TestTailerTruncateToEmpty(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenRotating(dir, "alpha", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Type: TypeDone, Hash: "h", T: 10}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	tl := NewTailer(dir)
	recs, _, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 { // open + done
		t.Fatalf("first poll: %d records, want 2", len(recs))
	}

	if err := os.Truncate(filepath.Join(dir, "alpha.jsonl"), 0); err != nil {
		t.Fatal(err)
	}
	recs, stats, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("after truncate-to-empty: still serving %d stale records: %+v", len(recs), recs)
	}
	want, wantStats, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 0 || stats != wantStats {
		t.Errorf("ReadDir equivalence broken: poll stats %+v, ReadDir %+v (%d records)", stats, wantStats, len(want))
	}
}

// TestTailerVanishedFileDropsRecords: a deleted journal file must take
// its records with it even when the deletion lands between the
// directory listing and the per-file stat.
func TestTailerVanishedFileDropsRecords(t *testing.T) {
	dir := t.TempDir()
	for _, owner := range []string{"alpha", "beta"} {
		w, err := OpenRotating(dir, owner, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(Record{Type: TypeDone, Hash: "h-" + owner, T: 10}); err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	tl := NewTailer(dir)
	if _, _, err := tl.Poll(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "beta.jsonl")); err != nil {
		t.Fatal(err)
	}
	recs, stats, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("poll after vanish = %+v, want ReadDir's %+v", recs, want)
	}
	if stats != wantStats {
		t.Errorf("stats after vanish = %+v, want ReadDir's %+v", stats, wantStats)
	}
}

// TestTailerSkipStatsRewoundOnReplace: skip counts (malformed, version
// skew) consumed from a file must be rewound when the file is replaced
// or vanishes. They used to accumulate on the Tailer itself, so a
// replaced file's skips were double-counted against ReadDir forever.
func TestTailerSkipStatsRewoundOnReplace(t *testing.T) {
	dir := t.TempDir()
	appendRaw(t, dir, "alpha.jsonl", []byte("garbage line\n"+`{"v":999,"t":1,"type":"done","owner":"alpha"}`+"\n"))
	appendRaw(t, dir, "beta.jsonl", []byte(`{"v":1,"t":2,"type":"done","owner":"beta","index":0}`+"\n"))

	tl := NewTailer(dir)
	_, stats, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Malformed != 1 || stats.VersionSkew != 1 {
		t.Fatalf("first poll stats = %+v, want malformed=1 version_skew=1", stats)
	}

	// Replace alpha's journal with a clean, shorter file: its old skips
	// no longer exist on disk.
	if err := os.WriteFile(filepath.Join(dir, "alpha.jsonl"), []byte(`{"v":1,"t":3,"type":"done","owner":"alpha","index":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, stats, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats != wantStats {
		t.Errorf("stats after replace = %+v, want ReadDir's %+v", stats, wantStats)
	}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("records after replace = %+v, want ReadDir's %+v", recs, want)
	}

	// Vanishing the file must rewind the remaining skips too.
	if err := os.Remove(filepath.Join(dir, "alpha.jsonl")); err != nil {
		t.Fatal(err)
	}
	_, stats, err = tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	_, wantStats, err = ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats != wantStats {
		t.Errorf("stats after vanish = %+v, want ReadDir's %+v", stats, wantStats)
	}
}

// TestTailerSeesSameSizeReplacement: a rotation renames the active
// file aside as a segment and starts a new one under its name. When the
// new file has exactly the old one's size, only the new segment tells
// the two apart; the poll must match ReadDir and move Rev, and an idle
// poll must not.
func TestTailerSeesSameSizeReplacement(t *testing.T) {
	dir := t.TempDir()
	line := func(i int) []byte {
		return fmt.Appendf(nil, `{"v":%d,"t":%d,"type":"done","owner":"w","index":%d}`+"\n", Version, i+1, i)
	}
	appendRaw(t, dir, "w.jsonl", line(0))
	tl := NewTailer(dir)
	if _, _, err := tl.Poll(); err != nil {
		t.Fatal(err)
	}
	rev := tl.Rev()
	if err := os.Rename(filepath.Join(dir, "w.jsonl"), filepath.Join(dir, "w.000001.jsonl")); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, dir, "w.jsonl", line(1))
	want, wantStats, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || gotStats != wantStats {
		t.Fatalf("poll after same-size replacement = %+v %+v, want ReadDir's %+v %+v", got, gotStats, want, wantStats)
	}
	if tl.Rev() == rev {
		t.Error("Rev did not move when the timeline changed")
	}
	rev = tl.Rev()
	if _, _, err := tl.Poll(); err != nil {
		t.Fatal(err)
	}
	if tl.Rev() != rev {
		t.Error("Rev moved on an idle poll")
	}
}

// TestTailerRereadsActiveFileAfterFold: a rotation renames the active
// file aside, starts a new one, and folds the segment into a checkpoint
// that deletes it, freeing its inode for a later active file. The new
// active file can then match the old one in name, size and identity;
// the checkpoint's fold of the owner's segment is what tells the tailer
// to re-read it. Simulated here by rewriting the file in place.
func TestTailerRereadsActiveFileAfterFold(t *testing.T) {
	dir := t.TempDir()
	line := func(i int) []byte {
		return fmt.Appendf(nil, `{"v":%d,"t":%d,"type":"done","owner":"w","index":%d}`+"\n", Version, i+1, i)
	}
	appendRaw(t, dir, "w.jsonl", line(0))
	tl := NewTailer(dir)
	if _, _, err := tl.Poll(); err != nil {
		t.Fatal(err)
	}
	ck := fmt.Appendf(nil, `{"v":%d,"t":1,"type":"checkpoint","owner":"w","checkpoint":{"folds":["w.000001.jsonl"],"records":1}}`+"\n", Version)
	appendRaw(t, dir, "checkpoint-000001.jsonl", ck)
	if err := os.WriteFile(filepath.Join(dir, "w.jsonl"), line(1), 0o644); err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || gotStats != wantStats {
		t.Errorf("poll after fold = %+v %+v, want ReadDir's %+v %+v", got, gotStats, want, wantStats)
	}
}

// TestLineTail: a LineTail returns only newline-terminated bytes, holds
// a torn tail until its newline lands, reads zero bytes while the size
// is unchanged, and resets when the file shrinks or vanishes.
func TestLineTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lines.jsonl")
	var lt LineTail
	read := func(step, want string, wantN int64, wantReset, wantTorn bool) {
		t.Helper()
		lines, n, reset, err := lt.Read(path)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got := string(bytes.Join(lines, []byte("|"))); got != want || n != wantN || reset != wantReset || lt.torn != wantTorn {
			t.Errorf("%s: Read = (%q, n=%d, reset=%t), torn=%t; want (%q, n=%d, reset=%t), torn=%t",
				step, got, n, reset, lt.torn, want, wantN, wantReset, wantTorn)
		}
	}
	read("missing file", "", 0, false, false)
	appendRaw(t, dir, "lines.jsonl", []byte("a\nb"))
	read("torn tail", "a", 3, false, true)
	read("unchanged size", "", 0, false, true)
	appendRaw(t, dir, "lines.jsonl", []byte("c\n"))
	appendRaw(t, dir, "lines.jsonl", []byte("d\n"))
	read("tail completed", "bc|d", 5, false, false)
	read("idle", "", 0, false, false)
	if err := os.WriteFile(path, []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	read("shrink", "x", 2, true, false)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	read("vanish", "", 0, true, false)
	read("still gone", "", 0, false, false)
	appendRaw(t, dir, "lines.jsonl", []byte("y"))
	read("torn new file", "", 1, false, true)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	read("torn tail vanished", "", 0, true, false)
}
