package journal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustOpen(t *testing.T, dir, owner string) *Writer {
	t.Helper()
	w, err := OpenRotating(dir, owner, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func mustAppend(t *testing.T, w *Writer, r Record) {
	t.Helper()
	if err := w.Append(r); err != nil {
		t.Fatal(err)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, "host:42")
	mustAppend(t, w, Record{Type: TypeClaimed, Index: 3, Hash: "abc"})
	mustAppend(t, w, Record{Type: TypeStarted, Index: 3, Hash: "abc"})
	mustAppend(t, w, Record{Type: TypeDone, Index: 3, Hash: "abc", WallSec: 0.25})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := FilePath(dir, "host:42")
	if got, want := filepath.Base(path), "host-42.jsonl"; got != want {
		t.Errorf("journal file = %s, want %s (sanitized owner)", got, want)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("writer did not create its journal file: %v", err)
	}

	recs, stats, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Files != 1 || stats.Skipped() != 0 {
		t.Errorf("stats = %v", stats)
	}
	// open + the three appends, in order.
	types := make([]string, len(recs))
	for i, r := range recs {
		types[i] = r.Type
		if r.V != Version {
			t.Errorf("record %d version = %d", i, r.V)
		}
		if r.Owner != "host:42" {
			t.Errorf("record %d owner = %q", i, r.Owner)
		}
		if r.T == 0 {
			t.Errorf("record %d has no timestamp", i)
		}
	}
	want := []string{TypeOpen, TypeClaimed, TypeStarted, TypeDone}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Errorf("types = %v, want %v", types, want)
	}
	if recs[3].WallSec != 0.25 {
		t.Errorf("done wall = %g", recs[3].WallSec)
	}
}

func TestReadDirMissingIsEmpty(t *testing.T) {
	recs, stats, err := ReadDir(filepath.Join(t.TempDir(), "no-such-dir"))
	if err != nil || len(recs) != 0 || stats.Files != 0 {
		t.Errorf("missing dir: recs=%v stats=%v err=%v", recs, stats, err)
	}
}

// TestTruncatedTailSkippedAndCounted: a torn final line — what a
// SIGKILLed writer leaves mid-append — is skipped with a counted
// warning and every earlier record survives.
func TestTruncatedTailSkippedAndCounted(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, "victim")
	mustAppend(t, w, Record{Type: TypeClaimed, Index: 0, Hash: "h0"})
	mustAppend(t, w, Record{Type: TypeStarted, Index: 0, Hash: "h0"})
	w.Close()

	// Tear the tail: append a prefix of a record with no newline.
	f, err := os.OpenFile(FilePath(dir, "victim"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"t":17345`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, stats, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TruncatedTails != 1 || stats.Malformed != 0 {
		t.Errorf("stats = %v, want exactly one truncated tail", stats)
	}
	if len(recs) != 3 { // open + 2 appends
		t.Errorf("surviving records = %d, want 3", len(recs))
	}
}

// TestReopenRepairsTornTail: a restarted claimant reopening its journal
// must terminate the torn line first, so its new records are readable
// and the old ones untouched.
func TestReopenRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, "phoenix")
	mustAppend(t, w, Record{Type: TypeDone, Index: 1, Hash: "h1", WallSec: 1})
	w.Close()
	f, err := os.OpenFile(FilePath(dir, "phoenix"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"type":"done","i`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2 := mustOpen(t, dir, "phoenix") // restart, same owner, same file
	mustAppend(t, w2, Record{Type: TypeDone, Index: 2, Hash: "h2", WallSec: 2})
	w2.Close()

	recs, stats, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The torn line is now interior (newline-terminated by the reopen),
	// so it counts as malformed, and nothing else is lost.
	if stats.Malformed != 1 || stats.TruncatedTails != 0 {
		t.Errorf("stats = %v, want one malformed interior line", stats)
	}
	var opens, dones int
	for _, r := range recs {
		switch r.Type {
		case TypeOpen:
			opens++
		case TypeDone:
			dones++
		}
	}
	if opens != 2 || dones != 2 {
		t.Errorf("opens=%d dones=%d, want 2/2 (both sessions fully readable)", opens, dones)
	}
}

func TestVersionSkewSkippedAndCounted(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, "o")
	mustAppend(t, w, Record{Type: TypeDone, Index: 0, Hash: "h"})
	w.Close()
	f, _ := os.OpenFile(FilePath(dir, "o"), os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"v":99,"t":1,"type":"done","owner":"o","index":1,"hash":"x"}` + "\n")
	f.Close()

	recs, stats, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.VersionSkew != 1 {
		t.Errorf("stats = %v, want one version-skew skip", stats)
	}
	for _, r := range recs {
		if r.Hash == "x" {
			t.Error("version-skewed record leaked into the result")
		}
	}
}

func TestReadDirMergesFilesByTime(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, "a")
	b := mustOpen(t, dir, "b")
	mustAppend(t, a, Record{Type: TypeDone, Index: 0, Hash: "h0", T: 10})
	mustAppend(t, b, Record{Type: TypeDone, Index: 1, Hash: "h1", T: 5})
	mustAppend(t, a, Record{Type: TypeDone, Index: 2, Hash: "h2", T: 20})
	a.Close()
	b.Close()

	recs, _, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, r := range recs {
		if r.Type == TypeDone {
			order = append(order, r.Hash)
		}
	}
	if strings.Join(order, ",") != "h1,h0,h2" {
		t.Errorf("merged time order = %v", order)
	}
}

func TestOpenRejectsEmptyOwner(t *testing.T) {
	if _, err := OpenRotating(t.TempDir(), "", 0); err == nil {
		t.Error("OpenRotating with empty owner did not error")
	}
}
