package exp

import (
	"path/filepath"
	"sync"

	"repro/internal/journal"
)

// The campaign journal: every claimant of a stored campaign — an
// in-process sweep, a -claim worker, each member of a -procs fleet —
// attaches a JournalRecorder that streams its event stream into the
// campaign store. For a DirStore that means append-only JSONL files at
// <dir>/journal/<owner>.jsonl — the store is already the campaign's
// shared substrate, so whatever filesystem the claimants coordinate
// through also carries their history; for an HTTP store the records
// travel to the ompss-sweepd coordinator, which journals them into its
// backing directory, so a watcher that can see the cells can see the
// timeline with no extra plumbing. See internal/journal for the record
// schema and crash semantics.

// JournalDirName is the journal subdirectory of a campaign store.
const JournalDirName = "journal"

// JournalDir is where this store's claimants journal their events.
func (c *DirStore) JournalDir() string { return filepath.Join(c.dir, JournalDirName) }

// DefaultOwner is the host:pid owner tag used when a claimant does not
// pick one — the same tag that names leases, claim stats and journal
// files, so one claimant is one identity everywhere.
func DefaultOwner() string { return defaultOwner() }

// JournalRecorder is an Observer that persists campaign events through
// its store's AppendJournal. Event delivery is already serialized by
// the engine; the recorder's own mutex only guards Err against
// concurrent readers.
//
// Nothing is written until the first record worth keeping: a fully
// warm render (every event a warm pre-scan hit) journals nothing and
// creates no file, so repeated report-only invocations do not
// accumulate phantom claimant files — the journal, like each file in
// it, grows with campaign activity, not with invocations.
//
// Journal failures do not abort the campaign — the journal is history,
// not results, and a full disk under the journal must not kill a
// half-day sweep whose cell stores still succeed. The first failure is
// retained (Err) for the caller to surface; subsequent records are
// still offered to the store, which decides whether to keep trying
// (DirStore goes quiet per owner after an open failure).
type JournalRecorder struct {
	store CellStore
	owner string

	mu sync.Mutex
	// err is the first append failure (nil while healthy).
	err error
}

// NewJournalRecorder returns a recording observer over any CellStore
// under the given owner ("" = DefaultOwner). Nothing is written until
// the campaign produces history worth keeping. Callers compose it with
// their other observers via MultiObserver and Close it after the
// campaign.
func NewJournalRecorder(s CellStore, owner string) *JournalRecorder {
	if owner == "" {
		owner = defaultOwner()
	}
	return &JournalRecorder{store: s, owner: owner}
}

// OnEvent implements Observer: one journal record per campaign event.
func (j *JournalRecorder) OnEvent(ev Event) {
	var rec journal.Record
	switch ev := ev.(type) {
	case CellStarted:
		rec = journal.Record{Type: journal.TypeStarted, Index: ev.Index, Hash: ev.Hash}
	case CellDone:
		rec = journal.Record{Type: journal.TypeDone, Index: ev.Index, Hash: ev.Hash,
			WallSec: ev.Result.Wall.Seconds()}
	case CellFaultInjected:
		rec = journal.Record{Type: journal.TypeFault, Index: ev.Index, Hash: ev.Hash,
			Chaos: ev.Chaos, Faults: ev.Faults, Requeued: ev.Requeued}
	case CellCached:
		if ev.Warm {
			// A pre-scan hit is no new history — the cell already proves
			// completion — and journaling the warm set would grow the
			// journal by the whole grid on every warm re-render. Cached
			// records are kept for *late* hits only (a peer stored the
			// cell while this campaign ran).
			return
		}
		rec = journal.Record{Type: journal.TypeCached, Index: ev.Index, Hash: ev.Hash}
	case CellSkipped:
		// Not persisted, for the same reason as warm hits: a budgeted
		// report-only invocation re-decides the same skips every time it
		// runs, and journaling them would append the full skip set per
		// invocation (times every fleet member). The skip report and
		// SweepResult.Skipped are the durable record of the decision;
		// journal.TypeSkipped stays reserved in the schema for readers.
		return
	case LeaseClaimed:
		rec = journal.Record{Type: journal.TypeClaimed, Index: ev.Index, Hash: ev.Hash}
	case LeaseReclaimed:
		rec = journal.Record{Type: journal.TypeReclaimed, Hash: ev.Hash, By: ev.By}
	default:
		return
	}
	rec.Owner = j.owner
	if err := j.store.AppendJournal(j.owner, rec); err != nil {
		j.mu.Lock()
		if j.err == nil {
			j.err = err
		}
		j.mu.Unlock()
	}
}

// Err returns the first append failure, nil while every record landed
// (or none was needed).
func (j *JournalRecorder) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close releases this owner's journal resources in the store (for a
// DirStore, the lazily opened file; a later append would reopen it).
func (j *JournalRecorder) Close() error {
	if ds, ok := j.store.(*DirStore); ok {
		return ds.closeJournal(j.owner)
	}
	return nil
}
