package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// holdCompactLock plants a fresh compaction lock in dir, as a live
// compactor in another process would hold it, and returns its release.
// While it is held every pass stands down, so rotation spills closed
// segments that stay on disk.
func holdCompactLock(t *testing.T, dir string) (release func()) {
	t.Helper()
	lock := filepath.Join(dir, compactLockName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(lock, []byte("other-host:1234\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.Remove(lock); err != nil {
			t.Fatal(err)
		}
	}
}

// rotateHeavy appends n records through a writer with a tiny rotation
// threshold, so every few appends rotate a segment aside.
func rotateHeavy(t *testing.T, dir string, n int) {
	t.Helper()
	w, err := OpenRotating(dir, "writer", 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := Record{
			Type: TypeDone, Index: i,
			Hash:    fmt.Sprintf("cell-%04d", i),
			T:       1000 + float64(i),
			WallSec: 0.5,
		}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// countSegments counts the closed segments and checkpoints in dir.
func countSegments(t *testing.T, dir string) (segs, cks int) {
	t.Helper()
	for _, name := range listJournal(t, dir) {
		if _, _, ok := splitSegmentName(name); ok {
			segs++
		}
		if _, ok := checkpointSeq(name); ok {
			cks++
		}
	}
	return segs, cks
}

// TestCompactExclusive: every compaction pass takes the directory's
// lock. While another compactor holds it, neither the passes rotation
// triggers nor a direct Compact delete or write anything; a lock past
// its staleness TTL is a crashed holder's remains and is broken.
func TestCompactExclusive(t *testing.T) {
	dir := t.TempDir()
	holdCompactLock(t, dir) // the stale-lock break below removes it
	rotateHeavy(t, dir, 30)
	segs, cks := countSegments(t, dir)
	if segs < 2 || cks != 0 {
		t.Fatalf("under a held lock rotation left %d segments and %d checkpoints, want several and none", segs, cks)
	}
	want := Replay(mustReadDir(t, dir))

	stats, err := Compact(dir)
	if err != nil {
		t.Fatalf("Compact under a live lock: %v", err)
	}
	if stats != (CompactStats{}) {
		t.Fatalf("pass ran despite a live lock (stats %+v)", stats)
	}
	if s, c := countSegments(t, dir); s != segs || c != 0 {
		t.Fatalf("stood-down pass changed the directory: %d segments and %d checkpoints, had %d and 0", s, c, segs)
	}

	// Backdating the lock past the TTL turns it into a crashed holder's
	// remains: the next pass breaks it and compacts.
	lock := filepath.Join(dir, compactLockName)
	stale := time.Now().Add(-compactLockTTL - time.Minute)
	if err := os.Chtimes(lock, stale, stale); err != nil {
		t.Fatal(err)
	}
	stats, err = Compact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpoint == "" || stats.Segments != segs {
		t.Fatalf("pass folded %d of %d segments (stats %+v)", stats.Segments, segs, stats)
	}
	if s, _ := countSegments(t, dir); s != 0 {
		t.Fatalf("%d segments survived compaction", s)
	}
	if _, err := os.Stat(lock); !os.IsNotExist(err) {
		t.Fatalf("lock not released after the pass (stat err %v)", err)
	}
	timelineEqual(t, Replay(mustReadDir(t, dir)), want, "after exclusive compaction")

	// With the lock free, rotation compacts on its own: more appends
	// leave one checkpoint and no segment behind.
	rotateHeavy(t, dir, 30)
	if s, c := countSegments(t, dir); s != 0 || c != 1 {
		t.Fatalf("unlocked rotation left %d segments and %d checkpoints, want 0 and 1", s, c)
	}
}

// TestCompactMissingDir: a directory that does not exist has nothing
// to fold, and Compact must not create it.
func TestCompactMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "absent")
	stats, err := Compact(dir)
	if err != nil || stats != (CompactStats{}) {
		t.Fatalf("Compact(missing) = %+v, %v; want zero stats, nil", stats, err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("Compact created the missing directory (stat err %v)", err)
	}
}

// TestFailedCompactionSurfacesAtClose: a pass that fails never fails
// the append whose rotation triggered it — the record is written
// either way — and the writer reports the failure once, at Close.
func TestFailedCompactionSurfacesAtClose(t *testing.T) {
	dir := t.TempDir()
	// An unreadable segment (a dangling link) fails every pass.
	if err := os.Symlink(filepath.Join(dir, "gone"), filepath.Join(dir, "zz.000001.jsonl")); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	w, err := OpenRotating(dir, "writer", 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(Record{Type: TypeDone, Index: i, Hash: "h", T: float64(1 + i)}); err != nil {
			t.Fatalf("append %d failed with its compaction pass: %v", i, err)
		}
	}
	err = w.Close()
	if err == nil || !strings.Contains(err.Error(), "journal auto-compaction failed") {
		t.Fatalf("Close = %v, want the failed compaction pass", err)
	}
	if segs, cks := countSegments(t, dir); segs < 2 || cks != 0 {
		t.Fatalf("failed passes left %d segments and %d checkpoints, want every segment kept", segs, cks)
	}
}

// TestConcurrentRotatingWriters: writers rotating at once in one
// directory race their compaction passes through the lock. Whatever
// interleaving wins, nothing is folded twice or lost: the directory
// replays like its unrotated twin.
func TestConcurrentRotatingWriters(t *testing.T) {
	rotated, flat := t.TempDir(), t.TempDir()
	const writers, records = 4, 40
	var wg sync.WaitGroup
	for _, dir := range []string{rotated, flat} {
		threshold := int64(0)
		if dir == rotated {
			threshold = 128
		}
		for i := 0; i < writers; i++ {
			w, err := OpenRotating(dir, fmt.Sprintf("w%d", i), threshold)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < records; j++ {
					rec := Record{Type: TypeDone, Index: j, Hash: fmt.Sprintf("cell-%d-%d", i, j),
						T: float64(1000 + records*i + j), WallSec: 0.25}
					if err := w.Append(rec); err != nil {
						t.Error(err)
						return
					}
				}
				if err := w.Close(); err != nil {
					t.Error(err)
				}
			}(i)
		}
	}
	wg.Wait()
	if _, cks := countSegments(t, rotated); cks != 1 {
		t.Fatalf("%d checkpoints after concurrent passes, want exactly one live", cks)
	}
	got, want := Replay(mustReadDir(t, rotated)), Replay(mustReadDir(t, flat))
	if got.Done != writers*records || got.Compacted == 0 {
		t.Fatalf("replay done=%d compacted=%d, want %d done through a checkpoint", got.Done, got.Compacted, writers*records)
	}
	if !reflect.DeepEqual(got.Cells, want.Cells) || got.CostSec != want.CostSec {
		t.Errorf("concurrently compacted journal replays differently from its unrotated twin")
	}
}
