package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/safefile"
	"repro/ompss"
)

// CacheFormatVersion is the on-disk cell-file format version. Entries
// written with a different version are treated as misses (and
// overwritten on the next store), never parsed across versions.
const CacheFormatVersion = 1

// DirStore is the directory-backed CellStore: an on-disk,
// content-addressed store of completed run results — one JSON file per
// RunSpec, named by the spec's canonical hash (<dir>/<sha256-hex>.json)
// — plus the lease files, journal directory and campaign manifest that
// make the directory a complete coordination substrate. Campaigns
// consult it so re-running a grown grid only simulates cells whose hash
// has never been seen.
//
// Properties the rest of the system relies on:
//
//   - Hits are exact: a stored ompss.Result round-trips through JSON
//     bit-for-bit (int64 durations and shortest-form float64), so
//     CSV/JSON rendered from cached cells is byte-identical to a cold
//     run at any parallelism.
//   - Corruption is safe: an unreadable, truncated, version-skewed or
//     hash-mismatched file is a miss; the cell is re-simulated and the
//     file atomically replaced.
//   - Concurrent writers are safe: entries are written to a temp file
//     and renamed into place (safefile.Write), and two writers of the
//     same hash write the same result by construction (only the
//     advisory wall_s cost can differ, and either value is valid).
//
// The directory is also the coordination substrate for multi-process
// campaigns: claimants serialize work through <hash>.json.lease files
// (see Claim and ClaimOptions), so N processes — or N hosts sharing
// the directory, or an ompss-sweepd coordinator serving it over HTTP —
// partition one grid. The spec hash pins the simulator-behaviour
// fingerprint (SimBehaviorVersion), so a shared store can never satisfy
// a spec with results computed under a different model.
//
// Alongside the cells, the store maintains a denormalized campaign
// manifest (manifest.jsonl; see manifest.go) listing every settled
// cell's hash, wall cost and spec, so Snapshot (and LoadCostModel over
// it) answers from one small file instead of re-reading every cell —
// watch polls over an idle store read zero cell files.
type DirStore struct {
	dir string

	// mu guards the manifest view (manifest.go).
	mu        sync.Mutex
	manifest  map[string]ManifestEntry
	rev       int64
	mfTail    journal.LineTail // the manifest.jsonl read position
	cellReads atomic.Int64

	// jmu guards the lazily created journal writers and tailer.
	jmu      sync.Mutex
	journals map[string]*journal.Writer
	jerrs    map[string]error
	tail     *journal.Tailer
	// jrotate is the journal rotation threshold handed to lazily opened
	// writers (0 = unbounded files; see SetJournalRotateBytes).
	jrotate int64
}

// OpenDirStore opens (creating if needed) a store directory and
// reconciles its campaign manifest against the cells on disk (see
// reconcileManifest), so a directory populated by pre-manifest
// campaigns — or one whose writer was killed between a cell landing and
// its manifest line — reads complete.
func OpenDirStore(dir string) (*DirStore, error) {
	if dir == "" {
		return nil, errors.New("exp: store directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exp: opening store: %w", err)
	}
	c := &DirStore{
		dir:      dir,
		manifest: make(map[string]ManifestEntry),
		journals: make(map[string]*journal.Writer),
		jerrs:    make(map[string]error),
	}
	if err := c.reconcileManifest(); err != nil {
		return nil, err
	}
	return c, nil
}

// Dir returns the store's directory.
func (c *DirStore) Dir() string { return c.dir }

// Description implements CellStore.
func (c *DirStore) Description() string { return "dir://" + c.dir }

// CellReads reports how many cell-file reads this store value has
// performed (load attempts plus manifest reconciliation). It exists so
// tests — and the ompss-sweepd metrics endpoint — can assert the O(1)
// status property: idle watch polls add zero.
func (c *DirStore) CellReads() int64 { return c.cellReads.Load() }

// Close implements CellStore: it closes any journal writers opened by
// AppendJournal, reporting the first failure — including a writer's
// failed compaction pass (see journal.Writer.Close). Cells, leases and
// the manifest hold no open state.
func (c *DirStore) Close() error {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	var first error
	for owner, w := range c.journals {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
		delete(c.journals, owner)
	}
	return first
}

// cacheEntry is the JSON cell-file layout. Hash and Spec are both stored
// so a file is self-describing (and self-validating: a loaded entry
// whose spec does not hash to its filename is discarded).
type cacheEntry struct {
	Format int     `json:"format"`
	Hash   string  `json:"hash"`
	Spec   RunSpec `json:"spec"`
	// WallSec records the wall-clock cost of the simulation that produced
	// the result, in seconds. It is advisory — consumed by CostModel for
	// cost-aware planning, never part of the result or the hash — and
	// optional: cells written before it existed read as WallSec 0
	// ("unknown"), which keeps the format at version 1.
	WallSec float64      `json:"wall_s,omitempty"`
	Result  ompss.Result `json:"result"`
}

func (c *DirStore) path(hash string) string {
	return filepath.Join(c.dir, hash+".json")
}

// LoadCell implements CellStore: it looks up a default-filled spec by
// its precomputed hash (claim mode re-checks peer-held cells every
// poll and must not pay canonicalization + SHA-256 each time). Any
// failure — missing file, unparsable JSON, format-version skew, hash
// mismatch — is reported as a miss so the caller falls back to
// simulation; the store never fails a campaign on the read side.
func (c *DirStore) LoadCell(spec RunSpec, hash string) (RunResult, bool) {
	e, ok := c.readCell(hash)
	if !ok {
		return RunResult{}, false
	}
	// The recorded wall cost rides along so warm campaigns can still
	// report (WriteCostCSV) and plan on (CostModel) real costs.
	wall := time.Duration(e.WallSec * float64(time.Second))
	return RunResult{Spec: spec, Result: e.Result, Wall: wall, Cached: true}, true
}

// readCell reads and validates one cell file (shared by LoadCell and
// the manifest reconciliation). Every call counts as a cell read.
func (c *DirStore) readCell(hash string) (cacheEntry, bool) {
	c.cellReads.Add(1)
	data, err := os.ReadFile(c.path(hash))
	if err != nil {
		return cacheEntry{}, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return cacheEntry{}, false
	}
	if e.Format != CacheFormatVersion || e.Hash != hash || e.Spec.Hash() != hash {
		return cacheEntry{}, false
	}
	return e, true
}

// StoreCell implements CellStore: it persists a completed run
// atomically (safefile.Write), so a crashed or killed campaign
// never leaves a half-written cell behind, then records the cell in the
// campaign manifest. A manifest failure is an error like a cell-write
// failure — a completed campaign must leave a complete manifest — but a
// crash in the gap between the two is healed by the next open's
// reconciliation.
func (c *DirStore) StoreCell(rr RunResult) error {
	spec := rr.Spec
	spec.fillDefaults()
	hash := spec.Hash()
	data, err := json.MarshalIndent(cacheEntry{
		Format:  CacheFormatVersion,
		Hash:    hash,
		Spec:    spec,
		WallSec: rr.Wall.Seconds(),
		Result:  rr.Result,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("exp: encoding cache entry: %w", err)
	}
	err = safefile.Write(c.path(hash), false, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
	if err != nil {
		return fmt.Errorf("exp: writing cache entry: %w", err)
	}
	return c.recordManifest(ManifestEntry{Hash: hash, WallSec: rr.Wall.Seconds(), Spec: spec})
}

// CellData is the raw stored form of one cell — the spec that produced
// it, the advisory wall cost, and the simulation result. It exists for
// relays (the ompss-sweepd coordinator) that serve cells by hash without
// knowing the requesting spec, and doubles as the cell wire format.
type CellData struct {
	Spec    RunSpec      `json:"spec"`
	WallSec float64      `json:"wall_s,omitempty"`
	Result  ompss.Result `json:"result"`
}

// ReadCellData returns one validated cell by hash, false on any miss
// (absent, torn, version-skewed, hash-mismatched — the same misses as
// LoadCell).
func (c *DirStore) ReadCellData(hash string) (CellData, bool) {
	e, ok := c.readCell(hash)
	if !ok {
		return CellData{}, false
	}
	return CellData{Spec: e.Spec, WallSec: e.WallSec, Result: e.Result}, true
}

// AppendJournal implements CellStore: one record appended to the
// owner's journal file under <dir>/journal. Writers are opened lazily
// on the first record — a store that never journals creates no files —
// and kept open until Close. An owner whose journal failed to open
// stays failed (the error is returned on every later append) rather
// than retrying per record. With a rotation threshold set, the append
// that rotates a file also compacts the directory (see
// journal.OpenRotating); a failed pass surfaces at Close, never here.
func (c *DirStore) AppendJournal(owner string, rec journal.Record) error {
	if owner == "" {
		owner = defaultOwner()
	}
	c.jmu.Lock()
	defer c.jmu.Unlock()
	if err := c.jerrs[owner]; err != nil {
		return err
	}
	w := c.journals[owner]
	if w == nil {
		var err error
		w, err = journal.OpenRotating(c.JournalDir(), owner, c.jrotate)
		if err != nil {
			c.jerrs[owner] = err
			return err
		}
		c.journals[owner] = w
	}
	return w.Append(rec)
}

// SetJournalRotateBytes bounds the journal files this store's writers
// append: once an active file would exceed n bytes it is rotated aside
// as a closed segment and the directory's segments are folded into a
// checkpoint (see journal.OpenRotating). Only writers opened after the
// call are affected, so set it before the campaign starts; n <= 0 (the
// default) never rotates. Readers need no configuration either way.
func (c *DirStore) SetJournalRotateBytes(n int64) {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	c.jrotate = n
}

// closeJournal closes and forgets one owner's journal writer (the
// JournalRecorder's Close path; a later append reopens it).
func (c *DirStore) closeJournal(owner string) error {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	w := c.journals[owner]
	delete(c.journals, owner)
	if w == nil {
		return nil
	}
	return w.Close()
}

// PollJournal implements CellStore via an incremental tailer: each poll
// reads only the bytes appended since the previous one (zero on an idle
// poll) and returns the full merged timeline. The returned slice is
// reused by later polls; callers must not retain it.
func (c *DirStore) PollJournal() ([]journal.Record, journal.ReadStats, error) {
	recs, stats, _, err := c.PollJournalRev()
	return recs, stats, err
}

// PollJournalRev is PollJournal plus the revision of the returned view
// (journal.Tailer.Rev), taken in the same critical section as the poll
// and serialized with this store's own appends, which rotate and
// compact the directory.
func (c *DirStore) PollJournalRev() ([]journal.Record, journal.ReadStats, int64, error) {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	if c.tail == nil {
		c.tail = journal.NewTailer(c.JournalDir())
	}
	recs, stats, err := c.tail.Poll()
	return recs, stats, c.tail.Rev(), err
}
