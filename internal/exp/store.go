package exp

import (
	"time"

	"repro/internal/journal"
)

// CellStore is the campaign storage abstraction: everything a campaign
// needs from its shared substrate — load/store result cells, claim and
// heartbeat leases, append and tail the journal, snapshot progress —
// behind one interface, so the engine, the watcher and the budget code
// are agnostic about whether claimants coordinate through a shared
// filesystem (DirStore) or through an ompss-sweepd coordinator over
// HTTP (internal/sweepd.HTTPStore). A fleet can even mix the two against
// one campaign: the daemon serves a DirStore, so dir:// claimants on
// the coordinator's host and http:// claimants elsewhere share the
// same cells, leases and journal.
//
// Semantics every implementation must honor (asserted by the
// conformance suite in internal/exp/storetest):
//
//   - LoadCell misses never fail a campaign: any read-side failure —
//     missing cell, torn write, network error — reports a miss and the
//     caller falls back to simulation. StoreCell failures are real
//     errors: a silently unpersisted result is what the store exists
//     to prevent.
//   - LoadCell (and LoadCells, on a CellBatchLoader) must be safe for
//     concurrent use: a campaign's pre-scan reads one slice of its
//     cells per worker at once, and claim-mode workers re-check cells
//     from their own goroutines.
//   - Claim is the only acquisition primitive and grants at most one
//     live lease per hash; a claim against a lease whose heartbeat is
//     older than the TTL breaks it first (stale reclaim).
//   - AppendJournal is history, not results: implementations may
//     buffer, but a record accepted without error must survive the
//     process exiting cleanly.
//   - Snapshot is O(changes since the last call), not O(cells): idle
//     polls read zero cell files. Its contents come from the
//     denormalized campaign manifest (see manifest.go).
type CellStore interface {
	// LoadCell looks a cell up by its precomputed spec hash. Any
	// failure is a miss; the spec is carried so the result round-trips
	// with the caller's axes. It is called from several goroutines at
	// once.
	LoadCell(spec RunSpec, hash string) (RunResult, bool)
	// StoreCell persists a completed run and its manifest entry.
	StoreCell(rr RunResult) error
	// Claim attempts to lease a cell for exclusive simulation. A nil
	// lease with a nil error means a live peer holds it; reclaimed
	// reports whether a stale lease was broken along the way.
	Claim(hash, owner string, ttl time.Duration) (lease StoreLease, reclaimed bool, err error)
	// LeaseStatuses lists the outstanding leases, stalest first
	// (diagnostics; see DirStore.LeaseStatuses for the clock frame).
	LeaseStatuses() ([]LeaseStatus, error)
	// AppendJournal appends one record to the campaign journal under
	// the given owner tag.
	AppendJournal(owner string, rec journal.Record) error
	// PollJournal returns the full merged journal timeline plus read
	// statistics, reading only what changed since the previous call on
	// this store value (tailer semantics: zero bytes on an idle poll).
	// The returned slice is reused by later polls; callers must not
	// retain it.
	PollJournal() ([]journal.Record, journal.ReadStats, error)
	// Snapshot returns the store's settled-cell view from the campaign
	// manifest. The snapshot's map is shared with the store; callers
	// must treat it as read-only and must not retain it across calls.
	Snapshot() (StoreSnapshot, error)
	// Description identifies the store in logs and stats lines (a path
	// for DirStore, a URL for HTTP stores).
	Description() string
	// Close releases any held resources (journal writers, idle
	// connections). The store must not be used afterwards.
	Close() error
}

// CellBatchLoader is an optional CellStore upgrade, in the style of
// io.WriterTo: a store whose every cell read costs a round trip (the
// sweepd HTTPStore) resolves each pre-scan slice — one per campaign
// worker, read concurrently — in one call instead of one request per
// cell. The engine type-asserts for it, so a decorator that embeds
// CellStore keeps the per-cell LoadCell path, and DirStore, whose reads
// have no round trip to save, does not implement it.
type CellBatchLoader interface {
	// LoadCells looks every cell up by its precomputed hash. Results
	// and hit flags are aligned with cells. The read-side semantics are
	// LoadCell's: any failure is a miss, and each result carries the
	// caller's spec. A pool-mode campaign simulates every miss without
	// reading it again, so a batch that fails as a whole should be
	// retried per cell here (HTTPStore does).
	LoadCells(cells []PlanCell) ([]RunResult, []bool)
}

// StoreLease is a held claim on one cell: while it exists and is
// refreshed, no other claimant simulates that spec hash. See Lease for
// the DirStore semantics every implementation mirrors.
type StoreLease interface {
	// Hash returns the spec hash the lease covers.
	Hash() string
	// Refresh heartbeats the lease. An error means the lease may have
	// been reclaimed as stale; the holder finishes (and stores) its run
	// anyway — results are deterministic and stores idempotent.
	Refresh() error
	// Release gives the cell up. Releasing a lease that was reclaimed
	// out from under its holder is not an error.
	Release() error
}

// StoreSnapshot is a point-in-time view of a store's settled cells,
// denormalized from the campaign manifest so reading it costs no cell
// file I/O.
type StoreSnapshot struct {
	// Rev increases whenever the manifest grows; two snapshots with
	// equal Rev from one store are identical, so pollers can skip
	// recomputation on idle ticks.
	Rev int64
	// Cells maps each settled cell's spec hash to its manifest entry.
	// The map is shared with the store: read-only, do not retain.
	Cells map[string]ManifestEntry
}
