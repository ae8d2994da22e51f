// Package journal is an append-only, per-claimant event history for
// experiment campaigns: each claimant process streams its campaign
// events as JSON lines to its own file in a shared journal directory,
// and a reader side merges every claimant's file back into one
// campaign timeline (see Replay).
//
// The design constraints come from the claim protocol the journal
// observes (internal/exp): claimants are independent processes — on one
// host or on several sharing a filesystem — that can be SIGKILLed at
// any instruction, restarted under the same owner tag, and must never
// coordinate through anything but the filesystem. Hence:
//
//   - One file per owner (<dir>/<owner>.jsonl): no cross-process write
//     interleaving, so a line's bytes always come from one writer.
//   - Every record is one JSON line appended with a single O_APPEND
//     write, so a crash can only ever tear the final line of a file,
//     never an interior one.
//   - The reader treats a torn tail as a counted warning, not an error:
//     a SIGKILLed claimant's journal stays fully readable up to its
//     last complete record.
//   - Reopening an existing journal (a restarted claimant) first
//     terminates any torn tail with a newline, so the first record of
//     the new session can never be glued onto the remnants of the old
//     one — prior records are immutable once written.
//   - Records carry a schema version; the reader skips (and counts)
//     records from other versions instead of misparsing them.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/safefile"
)

// Version is the journal record schema version, stamped into every
// record. Bump it when a field changes meaning or type; adding a new
// optional field is backward compatible and must not bump it (old
// readers ignore unknown keys, old records read as the zero value).
const Version = 1

// Record types. The set mirrors the campaign event stream
// (internal/exp event.go) plus "open", which marks a writer session
// starting (first open and every reopen by a restarted claimant).
const (
	TypeOpen      = "open"
	TypeStarted   = "started"
	TypeDone      = "done"
	TypeCached    = "cached"
	TypeClaimed   = "claimed"
	TypeReclaimed = "reclaimed"
	TypeSkipped   = "skipped"
	// TypeCheckpoint marks a compaction checkpoint: the folded summary
	// of journal files a compactor deleted (see Compact). It is an
	// additive record type under schema version 1 — readers that
	// predate it skip nothing (they parse the record, find no fields
	// they use, and merely lose the compacted history's totals), so no
	// version bump.
	TypeCheckpoint = "checkpoint"
	// TypeFault records that a simulated cell's chaos plan fired: the
	// fault-injection counters next to the cell's done record. Like
	// TypeCheckpoint it is additive under schema version 1 — older
	// readers parse it and use no field of it — so no version bump.
	TypeFault = "fault"
)

// Record is one journal line. Only V, T, Type and Owner are always
// present; the rest depend on Type:
//
//	open:      Host, PID
//	started:   Index, Hash
//	done:      Index, Hash, WallSec (wall-clock cost of the simulation)
//	cached:    Index, Hash
//	claimed:   Index, Hash
//	reclaimed: Hash, By (the owner tag that broke the stale lease)
//	skipped:   Index, Hash, EstSec (the budget's cost-model estimate)
//	fault:     Index, Hash, Chaos, Faults, Requeued (fault injection)
type Record struct {
	// V is the schema version (see Version). Append stamps it.
	V int `json:"v"`
	// T is the record time as Unix seconds (fractional). Append stamps
	// it when zero. Journals are execution history — timestamps here
	// never feed the deterministic campaign outputs.
	T float64 `json:"t"`
	// Type is one of the Type* constants.
	Type string `json:"type"`
	// Owner is the writing claimant's owner tag. Append fills it from
	// the writer when empty.
	Owner string `json:"owner"`
	// Index is the cell's position in the campaign's expansion order.
	// Meaningless (zero) for open and reclaimed records.
	Index int `json:"index"`
	// Hash is the cell's spec content hash.
	Hash string `json:"hash,omitempty"`
	// Host and PID identify the claimant process (open records).
	Host string `json:"host,omitempty"`
	PID  int    `json:"pid,omitempty"`
	// WallSec is the simulation's wall-clock cost in seconds (done).
	WallSec float64 `json:"wall_s,omitempty"`
	// EstSec is the cost-model estimate that priced the cell out of a
	// budgeted campaign, in seconds (skipped; 0 = no estimate).
	EstSec float64 `json:"est_s,omitempty"`
	// By is the owner tag that broke a stale lease (reclaimed).
	By string `json:"by,omitempty"`
	// Chaos is the cell's chaos spec, and Faults/Requeued count the
	// injected fault events and fault-forced task re-queues (fault
	// records).
	Chaos    string `json:"chaos,omitempty"`
	Faults   int64  `json:"faults,omitempty"`
	Requeued int64  `json:"requeued,omitempty"`
	// Checkpoint is the compacted payload of a checkpoint record (nil
	// on every other type).
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
}

// suffix is the journal file naming convention.
const suffix = ".jsonl"

// FilePath is the journal file an owner writes in dir — exported so
// callers can name the file (diagnostics, lazy writers) without
// creating it.
func FilePath(dir, owner string) string {
	return filepath.Join(dir, safefile.Name(owner)+suffix)
}

// Writer appends records to one owner's journal file. It is safe for
// concurrent use by one process; cross-process safety comes from the
// one-file-per-owner convention, not from locking.
//
// A writer opened with OpenRotating additionally bounds its active
// file: once an append would grow it past the threshold, the file is
// first renamed aside as a closed segment (<stem>.NNNNNN.jsonl), a
// fresh active file is started, and the writer folds the directory's
// closed segments into a checkpoint (see Compact). Segments and
// checkpoints keep the .jsonl suffix, so every reader (ReadDir, Tailer)
// merges them with zero configuration, and neither step changes what a
// reader replays.
type Writer struct {
	mu    sync.Mutex
	f     *os.File
	owner string
	path  string
	dir   string
	stem  string
	// rotateBytes is the active-file size threshold (0 = never rotate);
	// size tracks the active file, seq the last segment number used.
	rotateBytes int64
	size        int64
	seq         int
	// compactErr is the first failed compaction pass, reported by Close.
	compactErr error
}

// OpenRotating creates (if needed) the journal directory and opens the
// owner's journal for appending, writing an "open" record that marks
// this writer session. Reopening an existing file — a restarted
// claimant — first terminates any torn final line left by a crashed
// predecessor, so prior records are never corrupted by subsequent
// appends.
//
// Active files are size-bounded: once an append would grow the active
// journal past rotateBytes, the file is rotated aside as a closed
// segment and compacted first (see Writer). A record larger than the
// threshold still rotates and is then written whole — rotation bounds
// file size per segment, it never refuses a record. rotateBytes <= 0
// disables rotation.
func OpenRotating(dir, owner string, rotateBytes int64) (*Writer, error) {
	if owner == "" {
		return nil, errors.New("journal: owner must not be empty")
	}
	stem := safefile.Name(owner)
	// The rotation and compaction machinery claims two name patterns in
	// the journal directory; an owner whose file stem collided with
	// either would corrupt another writer's rotated history.
	if _, _, ok := splitSegmentName(stem + suffix); ok {
		return nil, fmt.Errorf("journal: owner %q collides with the segment namespace", owner)
	}
	if _, ok := checkpointSeq(stem + suffix); ok {
		return nil, fmt.Errorf("journal: owner %q collides with the checkpoint namespace", owner)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: opening directory: %w", err)
	}
	path := FilePath(dir, owner)
	// O_RDWR, not O_WRONLY: the torn-tail check below reads the final
	// byte of an existing file before the first append.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	if err := terminateTornTail(f, path); err != nil {
		f.Close()
		return nil, err
	}
	w := &Writer{f: f, owner: owner, path: path, dir: dir, stem: stem, rotateBytes: rotateBytes}
	if fi, err := f.Stat(); err == nil {
		w.size = fi.Size()
	}
	if rotateBytes > 0 {
		// Resume the segment sequence after the highest one on disk — a
		// restarted claimant must never rename over a prior segment —
		// AND after the highest one any present checkpoint folded: a
		// compactor deletes the segments it folds, but their names live
		// on in the checkpoint's Folds list, and a fresh segment reusing
		// such a name would be dropped by every reader as already
		// compacted. An unreadable checkpoint leaves only its folds
		// unknown: Compact will report it.
		files, _ := scanDir(dir, isCheckpoint)
		for _, f := range files {
			for _, name := range append([]string{f.name}, f.folds...) {
				if s, seq, ok := splitSegmentName(name); ok && s == stem && seq > w.seq {
					w.seq = seq
				}
			}
		}
	}
	host, herr := os.Hostname()
	if herr != nil || host == "" {
		host = "unknown-host"
	}
	if err := w.Append(Record{Type: TypeOpen, Host: host, PID: os.Getpid()}); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// terminateTornTail appends a newline if the file is non-empty and its
// last byte is not one: the remnant of an append torn by a crash. The
// torn fragment becomes a malformed line the reader skips with a
// counted warning; without the newline, the next append would glue a
// valid record onto the fragment and lose it too.
func terminateTornTail(f *os.File, path string) error {
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("journal: stat %s: %w", path, err)
	}
	if fi.Size() == 0 {
		return nil
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, fi.Size()-1); err != nil {
		return fmt.Errorf("journal: reading tail of %s: %w", path, err)
	}
	if last[0] == '\n' {
		return nil
	}
	if _, err := f.Write([]byte("\n")); err != nil {
		return fmt.Errorf("journal: terminating torn tail of %s: %w", path, err)
	}
	return nil
}

// Append stamps and writes one record as a single JSON line. The line
// is written with one write call on an O_APPEND descriptor, so
// concurrent appenders (or a crash) can tear at most the final line of
// the file, never interleave or damage earlier lines.
func (w *Writer) Append(r Record) error {
	line, err := encodeLine(r, w.owner)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("journal: writer for %s lost its file during rotation", w.path)
	}
	if w.rotateBytes > 0 && w.size > 0 && w.size+int64(len(line)) > w.rotateBytes {
		w.rotateLocked()
	}
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("journal: appending to %s: %w", w.path, err)
	}
	w.size += int64(len(line))
	return nil
}

// encodeLine stamps a record (schema version, the current time when T
// is zero, owner when empty) and encodes it as one JSON line.
func encodeLine(r Record, owner string) ([]byte, error) {
	r.V = Version
	if r.T == 0 {
		r.T = float64(time.Now().UnixNano()) / 1e9
	}
	if r.Owner == "" {
		r.Owner = owner
	}
	if r.Type == "" {
		return nil, errors.New("journal: record needs a type")
	}
	line, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding record: %w", err)
	}
	return append(line, '\n'), nil
}

// rotateLocked renames the active file aside as the next closed
// segment, starts a fresh active file, and runs a compaction pass. The
// segment name sorts before the active file (digits sort before
// letters), so the merged timeline's equal-timestamp tie-break — sorted
// file-name order — keeps segment records ahead of later active-file
// records, exactly the order the single unrotated file would have had.
//
// Failure handling favors the history over the bound: if the rename
// fails the writer keeps appending to the oversized active file and
// retries on the next append; if reopening after a successful rename
// fails, the writer is dead (w.f nil) and every later Append errors
// rather than silently widening the closed segment. A failed
// compaction pass never fails the append that triggered it — the
// history is intact either way — and is kept for Close to report.
func (w *Writer) rotateLocked() {
	seg := filepath.Join(w.dir, fmt.Sprintf("%s.%06d%s", w.stem, w.seq+1, suffix))
	if err := os.Rename(w.path, seg); err != nil {
		return
	}
	w.seq++
	w.f.Close()
	w.f = nil
	if f, err := os.OpenFile(w.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644); err == nil {
		w.f = f
		w.size = 0
	}
	if _, err := Compact(w.dir); err != nil && w.compactErr == nil {
		w.compactErr = err
	}
}

// Close closes the journal file. Records already appended stay durable;
// a writer that never closes (crash) loses nothing but its torn tail.
// A compaction pass that failed during this session is reported here,
// once the file itself closed cleanly.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			return err
		}
	}
	if w.compactErr != nil {
		return fmt.Errorf("journal auto-compaction failed: %w", w.compactErr)
	}
	return nil
}
