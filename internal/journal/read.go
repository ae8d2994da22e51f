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
	// TruncatedTails counts files whose final line was torn by a
	// crashed writer (no trailing newline, unparsable) and skipped.
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
// journaling stay watchable. Unreadable lines are skipped and counted
// (see ReadStats); only a directory or file I/O failure is an error.
//
// Files superseded by a checkpoint — named in the Folds list of any
// checkpoint record present (see Compact) — are excluded entirely:
// their history lives on in the checkpoint, and a compactor crash that
// left them behind must not double-count it. A checkpoint's folded
// Malformed/VersionSkew counts are added to the stats, so skip
// accounting survives compaction.
func ReadDir(dir string) ([]Record, ReadStats, error) {
	var stats ReadStats
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, stats, nil
		}
		return nil, stats, fmt.Errorf("journal: reading directory: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), suffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	fileRecs := make(map[string][]Record, len(names))
	fileStats := make(map[string]ReadStats, len(names))
	superseded := make(map[string]bool)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, stats, fmt.Errorf("journal: reading %s: %w", name, err)
		}
		var fs ReadStats
		fileRecs[name] = parseLines(data, &fs)
		fileStats[name] = fs
		supersededBy(fileRecs[name], superseded)
	}
	var recs []Record
	for _, name := range names {
		if superseded[name] {
			continue
		}
		stats.Files++
		fs := fileStats[name]
		stats.TruncatedTails += fs.TruncatedTails
		stats.Malformed += fs.Malformed
		stats.VersionSkew += fs.VersionSkew
		for _, r := range fileRecs[name] {
			if r.Type == TypeCheckpoint && r.Checkpoint != nil {
				stats.Malformed += r.Checkpoint.Malformed
				stats.VersionSkew += r.Checkpoint.VersionSkew
			}
		}
		recs = append(recs, fileRecs[name]...)
	}
	// Stable: records with equal timestamps keep their per-file append
	// order (and cross-file, the sorted file-name order).
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].T < recs[j].T })
	stats.Records = len(recs)
	return recs, stats, nil
}

// parseLines decodes one file's lines, classifying every skip. The
// final line is special: if it fails to parse AND the file does not end
// in a newline, it is the torn tail of a crashed writer (counted as
// TruncatedTails); any other unparsable line is Malformed.
func parseLines(data []byte, stats *ReadStats) []Record {
	endsWithNewline := len(data) > 0 && data[len(data)-1] == '\n'
	lines := bytes.Split(data, []byte("\n"))
	// Split leaves a trailing empty element when data ends in '\n'.
	if endsWithNewline {
		lines = lines[:len(lines)-1]
	}
	var recs []Record
	for i, line := range lines {
		malformed := stats.Malformed
		r, ok := decodeLine(line, stats)
		if !ok {
			if stats.Malformed > malformed && i == len(lines)-1 && !endsWithNewline {
				stats.Malformed--
				stats.TruncatedTails++
			}
			continue
		}
		recs = append(recs, r)
	}
	return recs
}

// decodeLine applies the line rules every journal reader shares: ok is
// false for a blank line (skipped silently), for an unparsable or
// typeless one (counted Malformed) and for a record of another schema
// version (counted VersionSkew). Callers add their own torn-tail rule.
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
