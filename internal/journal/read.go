package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ReadStats accounts for what a read pass saw and what it had to skip.
// Skips are warnings, never errors: the journal's job is to survive
// SIGKILLed writers, and a reader that refused a torn file would lose
// exactly the history the journal exists to keep.
type ReadStats struct {
	// Files is the number of journal files read.
	Files int
	// Records is the number of well-formed records returned.
	Records int
	// TruncatedTails counts files whose final line has no trailing
	// newline — torn by a crashed writer, or an append in flight — and
	// was skipped.
	TruncatedTails int
	// Malformed counts unparsable interior lines — torn tails already
	// newline-terminated by a restarted writer land here too.
	Malformed int
	// VersionSkew counts records that parsed but carry a schema
	// version this reader does not speak.
	VersionSkew int
}

// Skipped is the total number of lines dropped for any reason.
func (s ReadStats) Skipped() int {
	return s.TruncatedTails + s.Malformed + s.VersionSkew
}

func (s ReadStats) String() string {
	return fmt.Sprintf("files=%d records=%d truncated=%d malformed=%d version_skew=%d",
		s.Files, s.Records, s.TruncatedTails, s.Malformed, s.VersionSkew)
}

// ReadDir reads and merges every journal file in dir, ordered by record
// time (ties keep file order, files sorted by name). A missing
// directory is an empty journal, not an error — campaigns that predate
// journaling stay watchable. Lines follow the Tailer's rules: only a
// newline proves a line, so a file's unterminated final line is never
// a record, parseable or not, and is counted in TruncatedTails. Other
// unreadable lines are skipped and counted (see ReadStats); only a
// directory or file I/O failure is an error.
//
// Files superseded by a checkpoint — named in the Folds list of any
// checkpoint record present (see Compact) — are excluded entirely:
// their history lives on in the checkpoint, and a compactor crash that
// left them behind must not double-count it. A checkpoint's folded
// Malformed/VersionSkew counts are added to the stats, so skip
// accounting survives compaction.
func ReadDir(dir string) ([]Record, ReadStats, error) {
	var stats ReadStats
	files, err := scanDir(dir, nil)
	if err != nil {
		return nil, stats, err
	}
	superseded := make(map[string]bool)
	for _, f := range files {
		for _, name := range f.folds {
			superseded[name] = true
		}
	}
	var recs []Record
	for _, f := range files {
		if superseded[f.name] {
			continue
		}
		stats.Files++
		stats.TruncatedTails += f.skips.TruncatedTails
		stats.Malformed += f.skips.Malformed
		stats.VersionSkew += f.skips.VersionSkew
		recs = append(recs, f.recs...)
	}
	// Stable: records with equal timestamps keep their per-file append
	// order (and cross-file, the sorted file-name order).
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].T < recs[j].T })
	stats.Records = len(recs)
	return recs, stats, nil
}

// listFiles returns the sorted journal file names in dir. A missing
// directory lists no files: an empty journal.
func listFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: reading directory: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), suffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// dirFile is one journal file as scanDir found it.
type dirFile struct {
	name string
	// size is the number of bytes read (0 for a file not read).
	size int64
	fileRecs
}

// scanDir lists dir's journal files and reads whole every one whose
// name read accepts (nil accepts all), decoding its lines by the
// Tailer's rules; an unterminated final line counts as a truncated
// tail. Every listed file is returned, in name order. A file that
// cannot be read is returned undecoded and the first such failure is
// the error, so a caller that can tolerate one still sees every name.
func scanDir(dir string, read func(name string) bool) ([]dirFile, error) {
	names, err := listFiles(dir)
	if err != nil {
		return nil, err
	}
	files := make([]dirFile, len(names))
	var firstErr error
	for i, name := range names {
		files[i].name = name
		if read != nil && !read(name) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("journal: reading %s: %w", name, err)
			}
			continue
		}
		lines, _, torn := splitLines(data)
		files[i].size = int64(len(data))
		files[i].decodeLines(lines)
		if torn {
			files[i].skips.TruncatedTails++
		}
	}
	return files, firstErr
}

// splitLines splits buf into its newline-terminated lines (without
// their newlines): n is the byte length they span, and torn reports a
// non-blank unterminated remainder after them. Only the newline proves
// a writer finished a line, so every reader takes lines from here.
func splitLines(buf []byte) (lines [][]byte, n int, torn bool) {
	n = bytes.LastIndexByte(buf, '\n') + 1
	torn = len(bytes.TrimSpace(buf[n:])) > 0
	if n > 0 {
		lines = bytes.Split(buf[:n-1], []byte("\n"))
	}
	return lines, n, torn
}

// fileRecs is what one journal file's lines decode to.
type fileRecs struct {
	// recs are the file's records, in append order.
	recs []Record
	// skips are the file's skip counts plus the skip counts its
	// checkpoint records folded.
	skips ReadStats
	// folds accumulates the fold lists of the file's checkpoint
	// records.
	folds []string
}

// decodeLines decodes lines onto the file's records, counting skips
// and collecting each checkpoint record's folds and folded skip counts.
func (f *fileRecs) decodeLines(lines [][]byte) {
	for _, line := range lines {
		r, ok := decodeLine(line, &f.skips)
		if !ok {
			continue
		}
		if r.Type == TypeCheckpoint && r.Checkpoint != nil {
			f.folds = append(f.folds, r.Checkpoint.Folds...)
			f.skips.Malformed += r.Checkpoint.Malformed
			f.skips.VersionSkew += r.Checkpoint.VersionSkew
		}
		f.recs = append(f.recs, r)
	}
}

// decodeLine applies the line rules every journal reader shares: ok is
// false for a blank line (skipped silently), for an unparsable or
// typeless one (counted Malformed) and for a record of another schema
// version (counted VersionSkew).
func decodeLine(line []byte, stats *ReadStats) (Record, bool) {
	if len(bytes.TrimSpace(line)) == 0 {
		return Record{}, false
	}
	var r Record
	if err := json.Unmarshal(line, &r); err != nil || r.Type == "" {
		stats.Malformed++
		return Record{}, false
	}
	if r.V != Version {
		stats.VersionSkew++
		return Record{}, false
	}
	return r, true
}
