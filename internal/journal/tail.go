package journal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// Tailer is the incremental counterpart of ReadDir for pollers: it
// follows each file with a LineTail and, on each Poll, reads only the
// bytes appended since the previous one. A watch loop over an hour-long
// campaign calls Poll every few seconds; with ReadDir each tick re-reads
// every claimant's full history, with a Tailer a tick on an unchanged
// directory stats the files and reads zero bytes.
//
// Poll returns the same merged timeline and stats ReadDir would (all
// records so far, sorted by time; ties keep per-file append order and
// sorted file-name order across files). An unterminated final line is
// never consumed (see LineTail); it is counted in
// ReadStats.TruncatedTails, as ReadDir counts it, and re-examined once
// the file grows.
//
// Rotation and compaction are transparent: rotated segments are just
// more .jsonl files, and files superseded by a checkpoint's Folds list
// (see Compact) are dropped from the merge — once superseded, always
// superseded, so a compactor deleting files mid-poll never makes the
// timeline go backwards.
//
// A Tailer is not safe for concurrent use.
type Tailer struct {
	dir   string
	files map[string]*tailFile

	// superseded accumulates every file name any consumed checkpoint
	// record folded. Membership is permanent: journal files never come
	// back from the dead.
	superseded map[string]bool
	// merged is the cached timeline, rebuilt only when a poll changed
	// some file's consumed state (new records or skips, a replaced or
	// vanished file, a newly superseded one).
	merged []Record
	// lastPollBytes is the number of journal-file bytes the most recent
	// Poll read.
	lastPollBytes int64
	// rev counts the Polls whose timeline or stats differed from the
	// previous Poll's; stats are the most recent Poll's.
	rev   int64
	stats ReadStats
}

// LineTail follows one append-only line file (a journal file, a
// campaign manifest): each Read returns only the newline-terminated
// bytes appended since the previous Read. Only the newline proves the
// writer finished a line, so an unterminated tail — an append in
// flight, or a torn crash remnant — is never returned, even if it would
// parse; the offset holds at its start and the line is re-examined once
// the file grows. A Read of an unchanged size reads zero bytes, even
// while a torn tail is held.
//
// A LineTail is not safe for concurrent use.
type LineTail struct {
	// offset is the byte position up to which the file has been
	// returned: always the start of a line.
	offset int64
	// size is the file size the last Read observed.
	size int64
	// torn records whether the unreturned [offset, size) region is a
	// non-blank unterminated tail.
	torn bool
}

// Read returns the complete lines the file at path grew by since the
// previous Read (without their newlines), and n, the number of bytes it
// read from the file. reset reports that bytes earlier Reads returned,
// or a torn tail one held, no longer exist: the file shrank below the
// offset (an append-only file shrinks only when replaced wholesale) or
// vanished. The caller drops whatever it derived from them; the tail
// has started over from byte zero, and lines holds the replacement's.
// A missing file reads as empty, not as an error.
func (lt *LineTail) Read(path string) (lines [][]byte, n int64, reset bool, err error) {
	// Stat the open file, not the name, so the size read below is this
	// file's even if it is renamed or deleted meanwhile.
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			reset = lt.offset > 0 || lt.torn
			*lt = LineTail{}
			return nil, 0, reset, nil
		}
		return nil, 0, false, fmt.Errorf("journal: tailing %s: %w", path, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, false, fmt.Errorf("journal: tailing %s: %w", path, err)
	}
	sz := fi.Size()
	if sz < lt.offset {
		*lt = LineTail{}
		reset = true
	}
	if sz == lt.size {
		return nil, 0, reset, nil // unchanged since the last Read: zero bytes to read
	}
	lt.size = sz
	if sz == lt.offset {
		lt.torn = false
		return nil, 0, reset, nil
	}
	buf := make([]byte, sz-lt.offset)
	if _, err := io.ReadFull(io.NewSectionReader(f, lt.offset, sz-lt.offset), buf); err != nil {
		return nil, 0, reset, fmt.Errorf("journal: tailing %s: %w", path, err)
	}
	lines, consumed, torn := splitLines(buf)
	lt.torn = torn
	lt.offset += int64(consumed)
	return lines, int64(len(buf)), reset, nil
}

// tailFile is the tail state of one journal file: its LineTail and
// what the consumed lines decoded to. Keeping the skips per file — not
// on the Tailer — lets a replaced or vanished file take its skips with
// it, preserving the ReadDir equivalence of the returned stats.
type tailFile struct {
	tail LineTail
	fileRecs
}

// drop forgets everything decoded from the file's consumed lines: the
// file was replaced wholesale (or vanished) and its old contents no
// longer exist on disk.
func (tf *tailFile) drop() {
	tf.recs = tf.recs[:0]
	tf.skips = ReadStats{}
	tf.folds = nil
}

// NewTailer returns a Tailer over a journal directory. The directory
// need not exist yet — like ReadDir, a missing directory is an empty
// journal, not an error.
func NewTailer(dir string) *Tailer {
	return &Tailer{dir: dir, files: make(map[string]*tailFile), superseded: make(map[string]bool)}
}

// LastPollBytes reports how many journal-file bytes the most recent
// Poll read: zero on a poll over an unchanged directory.
func (t *Tailer) LastPollBytes() int64 { return t.lastPollBytes }

// Rev numbers the view the most recent Poll returned: it moves whenever
// a Poll's records or stats differ from the previous Poll's, even when
// their counts do not (a rotation that folds a one-record segment swaps
// a record for a checkpoint), so a poller can serve "unchanged" by
// comparing revisions. It starts at zero, the revision of an empty
// journal.
func (t *Tailer) Rev() int64 { return t.rev }

// Poll reads whatever the journal files grew by since the previous Poll
// and returns the full merged timeline, equivalent to ReadDir over the
// same directory.
// The returned slice is reused by later Polls; callers must not retain
// it across calls.
func (t *Tailer) Poll() ([]Record, ReadStats, error) {
	t.lastPollBytes = 0
	names, err := listFiles(t.dir)
	if err != nil {
		return nil, ReadStats{}, err
	}

	// A segment name not seen before, listed or folded, means its
	// owner's active file was rotated since an earlier poll may have
	// read it. The file under that name now can match the old one in
	// size and even inode (a folded segment's inode is free for reuse),
	// so it is re-read from byte zero below.
	var rotated []string
	noteSegment := func(name string) {
		if stem, _, ok := splitSegmentName(name); ok && t.merged != nil && !slices.Contains(rotated, stem+suffix) {
			rotated = append(rotated, stem+suffix)
		}
	}
	dirty := false
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		seen[name] = true
		if t.superseded[name] {
			continue
		}
		tf := t.files[name]
		if tf == nil {
			tf = &tailFile{}
			t.files[name] = tf
			noteSegment(name)
		}
		changed, err := t.pollFile(name, tf)
		if err != nil {
			return nil, ReadStats{}, err
		}
		if changed {
			dirty = true
		}
	}
	// A vanished file takes its records (and skips) with it, as a
	// ReadDir of the directory now would.
	for name := range t.files {
		if !seen[name] {
			delete(t.files, name)
			dirty = true
		}
	}
	// Fold newly consumed checkpoint fold lists into the superseded
	// set, then drop superseded files we were still tailing — their
	// history now lives in the checkpoint. Collect before deleting so
	// a superseded checkpoint's own folds are not lost.
	for _, tf := range t.files {
		for _, name := range tf.folds {
			if !t.superseded[name] {
				t.superseded[name] = true
				noteSegment(name)
			}
		}
	}
	for _, name := range rotated {
		if tf := t.files[name]; tf != nil && tf.tail.size > 0 {
			tf.tail = LineTail{}
			tf.drop()
			if _, err := t.pollFile(name, tf); err != nil {
				return nil, ReadStats{}, err
			}
			dirty = true
		}
	}
	for name := range t.files {
		if t.superseded[name] {
			delete(t.files, name)
			dirty = true
		}
	}

	var stats ReadStats
	for name, tf := range t.files {
		if !seen[name] {
			continue
		}
		stats.Files++
		stats.TruncatedTails += tf.skips.TruncatedTails
		stats.Malformed += tf.skips.Malformed
		stats.VersionSkew += tf.skips.VersionSkew
		if tf.tail.torn {
			stats.TruncatedTails++
		}
	}

	if dirty || t.merged == nil {
		t.merged = t.merged[:0]
		for _, name := range names {
			if tf := t.files[name]; tf != nil {
				t.merged = append(t.merged, tf.recs...)
			}
		}
		sort.SliceStable(t.merged, func(i, j int) bool { return t.merged[i].T < t.merged[j].T })
	}
	stats.Records = len(t.merged)
	if dirty || stats != t.stats {
		t.rev++
	}
	t.stats = stats
	return t.merged, stats, nil
}

// pollFile advances one file's tail state, reporting whether its
// consumed state changed: new records or skip-counted lines, or a
// replaced/vanished file whose old contents were dropped.
func (t *Tailer) pollFile(name string, tf *tailFile) (bool, error) {
	lines, n, reset, err := tf.tail.Read(filepath.Join(t.dir, name))
	if err != nil {
		return false, err
	}
	t.lastPollBytes += n
	if reset {
		// Dropping the old records is itself a change, even if the
		// replacement is empty; serving records from a file that no
		// longer exists is exactly the stale-merge bug.
		tf.drop()
	}
	skips, recs := tf.skips, len(tf.recs)
	tf.decodeLines(lines)
	return reset || tf.skips != skips || len(tf.recs) != recs, nil
}
