package exp

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/journal"
)

// TestAutoCompactReaderInvariance drives one journal stream into two
// stores — one rotating at a tiny threshold, so its writers compact on
// every rotation, and an unrotated twin — and asserts the two
// contracts of self-compaction: it actually happens (checkpoints in
// place of segments), and every journal reader sees the same campaign
// through it (the byte-identity discipline extends to compaction:
// folding history must never rewrite it).
func TestAutoCompactReaderInvariance(t *testing.T) {
	control, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	auto, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	auto.SetJournalRotateBytes(192) // a couple of records per segment

	// Two claimants interleaving claim/done records with explicit
	// timestamps, so the two directories replay to identical cell and
	// owner state (only the writer-session open records carry real
	// clock readings, and those are excluded from the comparison).
	owners := []string{"w1", "w2"}
	for i := 0; i < 120; i++ {
		owner := owners[i%len(owners)]
		hash := fmt.Sprintf("%04x", i)
		for _, rec := range []journal.Record{
			{Type: journal.TypeClaimed, Index: i, Hash: hash, T: 1000 + float64(2*i)},
			{Type: journal.TypeDone, Index: i, Hash: hash, WallSec: 1.25, T: 1000 + float64(2*i+1)},
		} {
			for _, c := range []*DirStore{control, auto} {
				if err := c.AppendJournal(owner, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, c := range []*DirStore{control, auto} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Serial appends never contend for the compaction lock, so every
	// rotation folded its segment: the rotating store holds its two
	// active files and one checkpoint, exactly what the twin holds
	// less the checkpoint.
	files := func(c *DirStore) []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(c.JournalDir(), "*.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range names {
			names[i] = filepath.Base(n)
		}
		return names
	}
	if got := files(auto); len(got) != 3 || !strings.HasPrefix(got[0], "checkpoint-") ||
		got[1] != "w1.jsonl" || got[2] != "w2.jsonl" {
		t.Fatalf("rotating store holds %v, want one checkpoint and the two active files", got)
	}
	if got, want := files(control), []string{"w1.jsonl", "w2.jsonl"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unrotated store holds %v, want %v", got, want)
	}

	want := replayStore(t, control)
	got := replayStore(t, auto)
	if got.Compacted == 0 {
		t.Fatal("auto store replay folded no checkpoint: compaction left no trace")
	}
	if got.Done != want.Done || got.CachedOnly != want.CachedOnly ||
		got.DoubleDone != want.DoubleDone || got.CostSec != want.CostSec {
		t.Errorf("replay totals diverge: got done=%d cachedOnly=%d doubleDone=%d cost=%g, want done=%d cachedOnly=%d doubleDone=%d cost=%g",
			got.Done, got.CachedOnly, got.DoubleDone, got.CostSec,
			want.Done, want.CachedOnly, want.DoubleDone, want.CostSec)
	}
	if !reflect.DeepEqual(sortedCells(got), sortedCells(want)) {
		t.Errorf("per-cell replay state diverges between compacted and raw journals")
	}
	if g, w := got.OwnerNames(), want.OwnerNames(); !reflect.DeepEqual(g, w) {
		t.Errorf("owner sets diverge: got %v, want %v", g, w)
	}
	for _, name := range want.OwnerNames() {
		g, w := got.Owners[name], want.Owners[name]
		if g.Done != w.Done || g.Claimed != w.Claimed || g.CostSec != w.CostSec || g.Opens != w.Opens {
			t.Errorf("owner %s diverges: got done=%d claimed=%d cost=%g opens=%d, want done=%d claimed=%d cost=%g opens=%d",
				name, g.Done, g.Claimed, g.CostSec, g.Opens, w.Done, w.Claimed, w.CostSec, w.Opens)
		}
	}
}

func replayStore(t *testing.T, c *DirStore) *journal.Timeline {
	t.Helper()
	recs, stats, err := journal.ReadDir(c.JournalDir())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped() != 0 {
		t.Fatalf("reader skipped records: %v", stats)
	}
	return journal.Replay(recs)
}

func sortedCells(tl *journal.Timeline) []journal.Cell {
	cells := make([]journal.Cell, 0, len(tl.Cells))
	for _, c := range tl.Cells {
		cells = append(cells, *c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Hash < cells[j].Hash })
	return cells
}
