//go:build unix

package exp

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/safefile"
)

// TestJournalCrashSafety is the journal's SIGKILL battery, the
// crash-side acceptance criterion:
//
//  1. A worker subprocess journaling a claim campaign is SIGKILLed
//     mid-cell; its journal (with the torn tail such a kill can leave
//     mid-append) replays cleanly — the torn line is skipped with a
//     counted warning, every complete record survives.
//  2. A restarted claimant under the same owner reopens that journal
//     without corrupting the dead session's records, finishes the grid,
//     and the merged replay reconstructs exactly-once per-cell
//     completion: simulated counts sum to the grid size, no cell done
//     twice, both sessions visible.
func TestJournalCrashSafety(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and waits out lease TTLs")
	}
	dir := t.TempDir()
	const owner = "crash-journal-worker"
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(), journalWorkerEnv+"="+dir, journalOwnerEnv+"="+owner)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	defer cmd.Wait()

	// Kill once the worker demonstrably holds a lease AND its journal
	// holds a complete claim record (the recorder opens the file lazily
	// on the first claim record, a moment after the lease file appears,
	// and writes its open record first) — it is then inside a 5s cell
	// with open/claimed records on disk.
	deadline := time.Now().Add(10 * time.Second)
	for {
		leases, _ := globLeases(dir)
		if len(leases) > 0 && claimJournaled(filepath.Join(dir, JournalDirName), owner) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never acquired a lease with a journaled claim")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	cmd.Wait()

	cache, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(cache.JournalDir(), safefile.Name(owner)+".jsonl")
	if _, err := os.Stat(jpath); err != nil {
		t.Fatalf("dead worker left no journal: %v", err)
	}
	// A SIGKILL can land mid-append, leaving a torn final line. The kill
	// above raced real appends, so force the torn state deterministically:
	// append a record prefix with no trailing newline.
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"t":17345,"type":"sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// (1) Replay of the dead worker's journal: torn tail skipped with a
	// counted warning, complete records intact.
	recs, stats, err := journal.ReadDir(cache.JournalDir())
	if err != nil {
		t.Fatal(err)
	}
	if stats.TruncatedTails != 1 {
		t.Errorf("read stats %v, want exactly one truncated tail", stats)
	}
	dead := journal.Replay(recs)
	o := dead.Owners[owner]
	if o == nil || o.Opens != 1 || o.Claimed == 0 {
		t.Fatalf("dead session replay: %+v (records: %d)", o, len(recs))
	}
	if dead.Done != 0 {
		t.Errorf("dead worker journaled %d completions before its first 5s cell could finish", dead.Done)
	}

	// (2) Restart under the same owner: the reopen must terminate the
	// torn line, append a second open record, and complete the grid.
	rec := NewJournalRecorder(cache, owner)
	defer rec.Close()
	camp := Campaign{
		Grid:     crashGrid(),
		Store:    cache,
		Parallel: 2,
		Observer: rec,
		Claim: &ClaimOptions{
			Owner: owner,
			TTL:   400 * time.Millisecond,
		},
		run: fakeRun,
	}
	_, cstats, err := camp.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("restarted recorder error: %v", err)
	}
	total := crashGrid().NumRuns()
	if cstats.Simulated != total {
		t.Errorf("survivor stats %v, want simulated=%d", cstats, total)
	}

	recs, stats, err = journal.ReadDir(cache.JournalDir())
	if err != nil {
		t.Fatal(err)
	}
	// The torn line is now interior (newline-terminated by the reopen):
	// still exactly one skipped line, reclassified, nothing else lost.
	if stats.TruncatedTails != 0 || stats.Malformed != 1 {
		t.Errorf("post-restart read stats %v, want the torn line as one malformed interior line", stats)
	}
	tl := journal.Replay(recs)
	o = tl.Owners[owner]
	if o == nil || o.Opens != 2 {
		t.Fatalf("owner after restart: %+v, want both sessions (opens=2)", o)
	}
	if o.Reclaimed == 0 {
		t.Error("restart journaled no stale-lease reclaim of its dead predecessor")
	}
	if tl.Done != total || tl.DoubleDone != 0 {
		t.Errorf("replay done=%d double=%d, want exactly-once over the %d-run grid",
			tl.Done, tl.DoubleDone, total)
	}
	sum := 0
	for _, name := range tl.OwnerNames() {
		sum += tl.Owners[name].Done
	}
	if sum != total {
		t.Errorf("per-owner done counts sum to %d, want %d", sum, total)
	}
}

// TestJournalRotationCrashSafety is the rotation arm of the SIGKILL
// battery: a worker journaling with a tiny rotation threshold is
// killed while it demonstrably holds leases and has already rotated —
// and so compacted — its journal, so the kill can land mid-append,
// mid-rotation or mid-compaction. The crash-left directory must replay
// cleanly, finish compacting into a checkpoint without losing
// anything, and a restarted claimant under the same owner (same
// threshold) must finish the grid with exactly-once completion visible
// through both ReadDir and a Tailer over the checkpoint + any fresh
// segments + active files.
func TestJournalRotationCrashSafety(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and waits out lease TTLs")
	}
	dir := t.TempDir()
	const owner = "crash-rotating-worker"
	const rotateBytes = 220 // a couple of records per segment
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(),
		journalWorkerEnv+"="+dir,
		journalOwnerEnv+"="+owner,
		journalRotateEnv+"="+strconv.Itoa(rotateBytes))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	defer cmd.Wait()

	// Kill once the worker holds a lease, has rotated at least once (a
	// segment or the checkpoint its rotation folded it into exists) AND
	// a claim record is complete on disk: the journal is then
	// mid-history across several files, with the active file hot. (The
	// lease file and the first rotation both precede the claim record's
	// append, so the first two alone can catch the worker before any
	// claim is journaled.)
	jdir := filepath.Join(dir, JournalDirName)
	stem := safefile.Name(owner)
	glob := func(pattern string) []string {
		matches, _ := filepath.Glob(filepath.Join(jdir, pattern))
		return matches
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		leases, _ := globLeases(dir)
		rotated := len(glob(stem+".0*.jsonl")) > 0 || len(glob("checkpoint-*.jsonl")) > 0
		if len(leases) > 0 && rotated && claimJournaled(jdir, owner) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never rotated while holding a lease (files: %v)", glob("*"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	cmd.Wait()
	// A kill mid-compaction leaves the worker's lock behind, which only
	// its ten-minute staleness breaks; age it past that instead of
	// waiting.
	lock := filepath.Join(jdir, ".compact.lock")
	if _, err := os.Stat(lock); err == nil {
		old := time.Now().Add(-time.Hour)
		if err := os.Chtimes(lock, old, old); err != nil {
			t.Fatal(err)
		}
	}

	// The crash-left directory replays cleanly: whatever the kill tore
	// is skipped and counted, every closed segment's records survive,
	// and no completion was invented.
	recs, _, err := journal.ReadDir(jdir)
	if err != nil {
		t.Fatal(err)
	}
	dead := journal.Replay(recs)
	o := dead.Owners[owner]
	if o == nil || o.Opens != 1 || o.Claimed == 0 {
		t.Fatalf("dead session replay: %+v (records: %d)", o, len(recs))
	}
	if dead.Done != 0 {
		t.Errorf("dead worker journaled %d completions before its first 5s cell could finish", dead.Done)
	}

	// Finishing the compaction the kill may have interrupted (active
	// file untouched) must preserve the replay exactly and leave every
	// rotated segment folded into a checkpoint.
	if _, err := journal.Compact(jdir); err != nil {
		t.Fatal(err)
	}
	if segs, cks := glob(stem+".0*.jsonl"), glob("checkpoint-*.jsonl"); len(segs) != 0 || len(cks) != 1 {
		t.Fatalf("after compaction: segments %v, checkpoints %v, want none and one", segs, cks)
	}
	recs, _, err = journal.ReadDir(jdir)
	if err != nil {
		t.Fatal(err)
	}
	compacted := journal.Replay(recs)
	if co := compacted.Owners[owner]; co == nil || co.Opens != o.Opens || co.Claimed != o.Claimed {
		t.Fatalf("compaction changed the dead session: %+v vs %+v", co, o)
	}

	// Restart under the same owner and threshold: the writer must
	// resume its segment sequence past the checkpoint's folded names,
	// reclaim the dead leases, and finish the grid.
	cache, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache.SetJournalRotateBytes(rotateBytes)
	rec := NewJournalRecorder(cache, owner)
	defer rec.Close()
	camp := Campaign{
		Grid:     crashGrid(),
		Store:    cache,
		Parallel: 2,
		Observer: rec,
		Claim: &ClaimOptions{
			Owner: owner,
			TTL:   400 * time.Millisecond,
		},
		run: fakeRun,
	}
	_, camps, err := camp.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("restarted recorder error: %v", err)
	}
	total := crashGrid().NumRuns()
	if camps.Simulated != total {
		t.Errorf("survivor stats %v, want simulated=%d", camps, total)
	}

	// Rotation stayed in force across the restart: the active file and
	// any segment are bounded by the threshold plus at most one record.
	for _, seg := range glob(stem + "*.jsonl") {
		if fi, err := os.Stat(seg); err == nil && fi.Size() > 2*rotateBytes {
			t.Errorf("segment %s is %d bytes, threshold %d — rotation stopped bounding the journal",
				filepath.Base(seg), fi.Size(), rotateBytes)
		}
	}

	// Exactly-once through ReadDir: checkpoint + post-restart segments
	// + active file merge to one completion per cell, both sessions
	// visible.
	recs, stats, err := journal.ReadDir(jdir)
	if err != nil {
		t.Fatal(err)
	}
	tl := journal.Replay(recs)
	o = tl.Owners[owner]
	if o == nil || o.Opens != 2 {
		t.Fatalf("owner after restart: %+v, want both sessions (opens=2)", o)
	}
	if tl.Done != total || tl.DoubleDone != 0 {
		t.Errorf("replay done=%d double=%d, want exactly-once over the %d-run grid",
			tl.Done, tl.DoubleDone, total)
	}

	// And through a Tailer, the -watch path: a fresh tailer over the
	// compacted-plus-live directory merges to the same history.
	tail := journal.NewTailer(jdir)
	trecs, tstats, err := tail.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(trecs) != len(recs) || tstats.Records != stats.Records || tstats.Skipped() != stats.Skipped() {
		t.Errorf("tailer merge: %d records %v, want %d records %v (ReadDir)",
			len(trecs), tstats, len(recs), stats)
	}
	if ttl := journal.Replay(trecs); ttl.Done != total || ttl.DoubleDone != 0 {
		t.Errorf("tailer replay done=%d double=%d, want exactly-once", ttl.Done, ttl.DoubleDone)
	}
}

// claimJournaled reports whether owner's journal in jdir already holds a
// complete claim record. It reads a live journal, so a torn tail or a
// file rotated away mid-read just means "not yet".
func claimJournaled(jdir, owner string) bool {
	recs, _, err := journal.ReadDir(jdir)
	if err != nil {
		return false
	}
	o := journal.Replay(recs).Owners[owner]
	return o != nil && o.Claimed > 0
}
