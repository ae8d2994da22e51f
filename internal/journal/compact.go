// Journal rotation spills an owner's history into closed segment files
// (see Writer); this file is the other half of the size bound: the
// compaction pass every rotation runs, which folds closed segments into
// a single checkpoint record so a long campaign's journal directory
// converges to one small file per live claimant plus one checkpoint.
//
// Naming conventions inside a journal directory:
//
//	<owner>.jsonl            active file, appended by one claimant
//	<owner>.NNNNNN.jsonl     closed segment, rotated aside by that claimant
//	checkpoint-NNNNNN.jsonl  one checkpoint record, written by a compactor
//
// Segment and checkpoint files keep the .jsonl suffix so readers merge
// them with no configuration; the six-digit sequence sorts segments
// before the active file ('0' < any letter), preserving the
// equal-timestamp tie-break order of the unrotated file.
//
// Crash safety is the superseded-set protocol: a checkpoint record
// lists, in Folds, every file it stands for; readers drop any file
// named in any present checkpoint's Folds. The compactor writes the
// checkpoint (temp file + rename) before deleting the folded files, so
// a compactor killed between the two leaves both the checkpoint and
// the dead files — readers ignore the dead files, and the next
// compaction pass deletes them. Passes exclude each other through a
// lock file (see autocompact.go); concurrent claimant appends and
// rotations are always safe.
package journal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/safefile"
)

// checkpointPrefix is the file-name prefix of checkpoint files.
const checkpointPrefix = "checkpoint-"

// Checkpoint is the compacted payload of a checkpoint record: the
// replayed state of every record in the files it folds, in exactly the
// shape Replay would have produced from them. Adding it was additive
// (schema version unchanged); a reader that predates checkpoints
// parses the record and drops the payload, losing only the compacted
// history's totals.
type Checkpoint struct {
	// Folds lists the journal file names (no directory) this
	// checkpoint supersedes. Readers ignore any file named in any
	// present checkpoint's Folds; the compactor deletes them after the
	// checkpoint is durably in place.
	Folds []string `json:"folds"`
	// Records is the cumulative count of raw records folded into this
	// checkpoint, including those inherited from prior checkpoints.
	Records int `json:"records"`
	// Malformed and VersionSkew carry the folded files' skip counts so
	// read accounting survives compaction (torn tails in closed
	// segments can never heal and fold into Malformed).
	Malformed   int `json:"malformed,omitempty"`
	VersionSkew int `json:"version_skew,omitempty"`
	// First and Last bound the folded records in time.
	First float64 `json:"first,omitempty"`
	Last  float64 `json:"last,omitempty"`
	// CostSec is the summed wall cost of the folded done records.
	CostSec float64 `json:"cost_s,omitempty"`
	// Cells, Owners and Completions are the folded replay state,
	// sorted (by hash, name, and time) for deterministic output.
	Cells       []Cell       `json:"cells,omitempty"`
	Owners      []Owner      `json:"owners,omitempty"`
	Completions []Completion `json:"completions,omitempty"`
}

// CompactStats reports what one Compact pass did. A pass that found
// nothing to fold, or another pass holding the lock, reports zeros.
type CompactStats struct {
	// Checkpoint is the checkpoint file name written ("" when the pass
	// only garbage-collected, or found nothing to do).
	Checkpoint string
	// Segments and Checkpoints count the folded files deleted.
	Segments    int
	Checkpoints int
	// Records is the cumulative raw-record count the new checkpoint
	// stands for (see Checkpoint.Records; 0 on a GC-only pass).
	Records int
	// BytesRemoved is the summed size of the deleted files.
	BytesRemoved int64
}

// splitSegmentName decomposes a closed-segment file name
// (<stem>.NNNNNN.jsonl) into its owner stem and sequence number.
func splitSegmentName(name string) (stem string, seq int, ok bool) {
	base, found := strings.CutSuffix(name, suffix)
	if !found || len(base) < 8 || base[len(base)-7] != '.' {
		return "", 0, false
	}
	digits := base[len(base)-6:]
	n := 0
	for _, d := range digits {
		if d < '0' || d > '9' {
			return "", 0, false
		}
		n = n*10 + int(d-'0')
	}
	return base[:len(base)-7], n, true
}

// checkpointSeq extracts the sequence number of a checkpoint file name
// (checkpoint-NNNNNN.jsonl).
func checkpointSeq(name string) (int, bool) {
	base, found := strings.CutSuffix(name, suffix)
	if !found {
		return 0, false
	}
	digits, found := strings.CutPrefix(base, checkpointPrefix)
	if !found || len(digits) != 6 {
		return 0, false
	}
	n := 0
	for _, d := range digits {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, true
}

// isCheckpoint and isFoldable classify journal file names: a
// checkpoint file, and a file a compaction pass folds (a closed segment
// or a checkpoint).
func isCheckpoint(name string) bool {
	_, ok := checkpointSeq(name)
	return ok
}

func isFoldable(name string) bool {
	_, _, ok := splitSegmentName(name)
	return ok || isCheckpoint(name)
}

// Compact folds every closed segment (and prior checkpoint) in a
// journal directory into a fresh checkpoint file, then deletes the
// folded files. Active per-owner files are never touched, so Compact
// is safe to run while claimants append and rotate. Every pass holds
// the directory's compaction lock (see acquireCompactLock); a pass
// that finds it held by another compactor, in this process or any
// other, does nothing. Replay over the directory is unchanged by
// compaction (same cells, owners, totals, windowed rates); only the
// raw claim/reclaim record detail inside the folded span is reduced to
// counters. The pass reads files as every reader does (see scanDir): a
// closed segment's unterminated final line is not a record before the
// pass, and it folds into Checkpoint.Malformed, so skip totals hold
// too. A missing directory, one with nothing to fold, or a lost lock
// race is a no-op with zero stats, not an error.
func Compact(dir string) (CompactStats, error) {
	lock := filepath.Join(dir, compactLockName)
	held, err := acquireCompactLock(lock)
	if errors.Is(err, fs.ErrNotExist) {
		return CompactStats{}, nil
	}
	if err != nil || !held {
		return CompactStats{}, err
	}
	defer os.Remove(lock)
	return compactLocked(dir)
}

// compactLocked is one Compact pass, run with the lock held.
func compactLocked(dir string) (CompactStats, error) {
	var stats CompactStats
	files, err := scanDir(dir, isFoldable)
	if err != nil {
		return stats, err
	}
	// Everything a present checkpoint folds is dead already, whether
	// or not a crashed predecessor got around to deleting it.
	superseded := make(map[string]bool)
	maxSeq := 0
	for _, f := range files {
		for _, name := range f.folds {
			superseded[name] = true
		}
		if seq, ok := checkpointSeq(f.name); ok {
			maxSeq = max(maxSeq, seq)
		}
	}

	// Fold the live inputs exactly as a reader would merge them:
	// sorted file-name order, then a stable time sort. A closed
	// segment's torn tail can never heal, so it folds into Malformed.
	var folds []dirFile
	var recs []Record
	var folded ReadStats
	liveSegs, liveCks := 0, 0
	for _, f := range files {
		if !isFoldable(f.name) {
			continue
		}
		folds = append(folds, f)
		if superseded[f.name] {
			continue
		}
		recs = append(recs, f.recs...)
		folded.Malformed += f.skips.Malformed + f.skips.TruncatedTails
		folded.VersionSkew += f.skips.VersionSkew
		// Raw records folded this pass: everything parsed minus the
		// prior checkpoints' own meta records (their payloads count
		// via tl.Compacted below).
		if isCheckpoint(f.name) {
			liveCks++
		} else {
			liveSegs++
			folded.Records += len(f.recs)
		}
	}

	remove := func(f dirFile) {
		if os.Remove(filepath.Join(dir, f.name)) == nil {
			stats.BytesRemoved += f.size
			if isCheckpoint(f.name) {
				stats.Checkpoints++
			} else {
				stats.Segments++
			}
		}
	}

	if liveSegs == 0 && liveCks <= 1 {
		// Nothing new to fold: at most garbage-collect what a crashed
		// predecessor left behind.
		for _, f := range folds {
			if superseded[f.name] {
				remove(f)
			}
		}
		return stats, nil
	}

	sort.SliceStable(recs, func(i, j int) bool { return recs[i].T < recs[j].T })
	tl := Replay(recs)

	ck := &Checkpoint{
		Records:     tl.Compacted + folded.Records,
		Malformed:   folded.Malformed,
		VersionSkew: folded.VersionSkew,
		First:       tl.First,
		Last:        tl.Last,
		CostSec:     tl.CostSec,
	}
	// The new checkpoint stands for every segment and checkpoint file
	// seen this pass, dead ones included — that keeps the superseded
	// set closed under crash-interrupted predecessors.
	for _, f := range folds {
		ck.Folds = append(ck.Folds, f.name)
	}
	for _, c := range tl.Cells {
		ck.Cells = append(ck.Cells, *c)
	}
	sort.Slice(ck.Cells, func(i, j int) bool { return ck.Cells[i].Hash < ck.Cells[j].Hash })
	for _, name := range tl.OwnerNames() {
		ck.Owners = append(ck.Owners, *tl.Owners[name])
	}
	ck.Completions = append(ck.Completions, tl.completions...)
	sort.SliceStable(ck.Completions, func(i, j int) bool {
		a, b := ck.Completions[i], ck.Completions[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Owner != b.Owner {
			return a.Owner < b.Owner
		}
		return a.Cost < b.Cost
	})

	name := fmt.Sprintf("%s%06d%s", checkpointPrefix, maxSeq+1, suffix)
	if err := writeCheckpointFile(dir, name, Record{
		V:          Version,
		T:          tl.Last,
		Type:       TypeCheckpoint,
		Owner:      "checkpoint",
		Checkpoint: ck,
	}); err != nil {
		return stats, err
	}
	stats.Checkpoint = name
	stats.Records = ck.Records

	for _, f := range folds {
		remove(f)
	}
	return stats, nil
}

// writeCheckpointFile durably writes one checkpoint record as a
// complete journal file (fsynced before the rename). Readers either
// see the whole checkpoint or none of it, never a torn one.
func writeCheckpointFile(dir, name string, rec Record) error {
	line, err := encodeLine(rec, rec.Owner)
	if err != nil {
		return err
	}
	err = safefile.Write(filepath.Join(dir, name), true, func(w io.Writer) error {
		_, err := w.Write(line)
		return err
	})
	if err != nil {
		return fmt.Errorf("journal: writing checkpoint: %w", err)
	}
	return nil
}
