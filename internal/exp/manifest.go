package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// The campaign manifest: a denormalized index of a DirStore's settled
// cells, so status/watch polls and cost-model builds are O(changes)
// instead of O(cells). Before it existed, every Watcher.Status stat'd
// every cell of the grid per tick and every CostModel re-read the whole
// directory; an hour-long watch over a shared filesystem paid that
// full scan every few seconds.
//
// Layout: <dir>/manifest.jsonl, one JSON line per settled cell
// ({hash, wall_s, spec}), appended with a single O_APPEND write — the
// same crash discipline as the journal, so concurrent claimants (or an
// ompss-sweepd serving the directory next to dir:// claimants on its
// host) never interleave lines and a crash can only tear the final
// line. The file is append-only and deduplicated by hash on read:
// duplicate lines (two claimants reconciling at once, an idempotent
// double store) are harmless, last-written wins for the advisory wall
// cost.
//
// The manifest is an index, never the truth: cells are. A claimant
// killed between its cell rename and its manifest append leaves a cell
// the manifest misses; reconcileManifest heals exactly that on the next
// open by scanning the directory once and appending what is missing.
// Campaign resolution (LoadCell under a lease) always reads cell files
// directly, so a stale manifest can never cause a wrong result — only
// a transiently low Snapshot.

// manifestName is the manifest file inside a DirStore directory. The
// .jsonl suffix keeps it out of the cell namespace (cells end .json).
const manifestName = "manifest.jsonl"

// cellSuffix is the cell-file naming convention (<hash>.json).
const cellSuffix = ".json"

// ManifestEntry is one settled cell as recorded in the campaign
// manifest: enough to answer status (hash), cost planning (wall cost +
// the spec axes the cost model keys on), and remaining-work pricing,
// without touching the cell file.
type ManifestEntry struct {
	Hash string `json:"hash"`
	// WallSec is the advisory wall-clock cost of the simulation that
	// produced the cell, in seconds (0 = unknown), as in the cell file.
	WallSec float64 `json:"wall_s,omitempty"`
	Spec    RunSpec `json:"spec"`
}

func (c *DirStore) manifestPath() string {
	return filepath.Join(c.dir, manifestName)
}

// Snapshot implements CellStore: the manifest view, refreshed by an
// incremental tail of manifest.jsonl (zero bytes read when the file has
// not grown). The snapshot's map is the store's own; callers must treat
// it as read-only and must not retain it across calls.
func (c *DirStore) Snapshot() (StoreSnapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.pollManifestLocked(); err != nil {
		return StoreSnapshot{}, err
	}
	return StoreSnapshot{Rev: c.rev, Cells: c.manifest}, nil
}

// recordManifest folds one freshly stored cell into the in-memory view
// and appends its line to manifest.jsonl (the StoreCell path).
func (c *DirStore) recordManifest(e ManifestEntry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appendManifestLocked([]ManifestEntry{e})
}

// appendManifestLocked appends entries to manifest.jsonl with one write
// and folds them into the in-memory view. The local fold gives
// read-your-writes without I/O; the poll offset is left alone, so the
// next poll re-reads our own lines (a dedup no-op) along with any
// concurrent peers'.
func (c *DirStore) appendManifestLocked(entries []ManifestEntry) error {
	var buf bytes.Buffer
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("exp: encoding manifest entry: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	f, err := os.OpenFile(c.manifestPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("exp: opening manifest: %w", err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return fmt.Errorf("exp: appending manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("exp: appending manifest: %w", err)
	}
	c.foldManifestLocked(entries)
	return nil
}

// foldManifestLocked merges entries into the in-memory view, bumping
// rev once per poll-visible change (a hash appearing, or its advisory
// wall cost moving).
func (c *DirStore) foldManifestLocked(entries []ManifestEntry) {
	changed := false
	for _, e := range entries {
		if e.Hash == "" {
			continue
		}
		if old, ok := c.manifest[e.Hash]; !ok || old.WallSec != e.WallSec {
			c.manifest[e.Hash] = e
			changed = true
		}
	}
	if changed {
		c.rev++
	}
}

// pollManifestLocked advances the manifest tail (a journal.LineTail,
// the journal tailer's own line reader) and folds the newly completed
// lines in. A manifest that shrank or vanished was replaced or removed
// wholesale (an operator reset): the view starts over from what the
// file holds now, and the rev bump tells pollers it changed even if it
// converges to the same cells.
func (c *DirStore) pollManifestLocked() error {
	lines, _, reset, err := c.mfTail.Read(c.manifestPath())
	if err != nil {
		return fmt.Errorf("exp: reading manifest: %w", err)
	}
	if reset {
		c.manifest = make(map[string]ManifestEntry)
		c.rev++
	}
	var entries []ManifestEntry
	for _, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e ManifestEntry
		if json.Unmarshal(line, &e) != nil {
			continue // malformed lines are skipped, like journal readers
		}
		entries = append(entries, e)
	}
	c.foldManifestLocked(entries)
	return nil
}

// reconcileManifest (the OpenDirStore path) brings the manifest in line
// with the cells actually on disk, in both directions:
//
//   - Cells the manifest misses — a pre-manifest directory, or a
//     claimant killed between its cell rename and its manifest append —
//     are read once, validated, and appended. This is the only place
//     the store scans cell files, and it runs once per open.
//   - Manifest entries whose cell file is gone (manual deletion) are
//     dropped from the in-memory view — the file keeps its lines, but
//     Snapshot must not report cells that do not exist.
//
// Two processes reconciling the same directory concurrently may append
// duplicate lines; the hash dedup on read makes that harmless.
func (c *DirStore) reconcileManifest() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.pollManifestLocked(); err != nil {
		return err
	}
	dirents, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("exp: scanning store: %w", err)
	}
	onDisk := make(map[string]bool, len(dirents))
	var missing []ManifestEntry
	for _, ent := range dirents {
		name := ent.Name()
		if !strings.HasSuffix(name, cellSuffix) {
			continue // the manifest itself, leases, tombstones, temp files
		}
		hash := name[:len(name)-len(cellSuffix)]
		onDisk[hash] = true
		if _, ok := c.manifest[hash]; ok {
			continue
		}
		e, ok := c.readCell(hash)
		if !ok {
			continue // corrupt or foreign file: a miss everywhere else too
		}
		missing = append(missing, ManifestEntry{Hash: hash, WallSec: e.WallSec, Spec: e.Spec})
	}
	for hash := range c.manifest {
		if !onDisk[hash] {
			delete(c.manifest, hash)
			c.rev++
		}
	}
	if len(missing) == 0 {
		if c.rev == 0 {
			c.rev = 1 // rev 0 stays the "never opened" client sentinel
		}
		return nil
	}
	if err := c.appendManifestLocked(missing); err != nil {
		return err
	}
	return nil
}
