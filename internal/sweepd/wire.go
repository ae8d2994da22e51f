// Package sweepd is the campaign control plane: an HTTP coordinator
// (Server, served by cmd/ompss-sweepd) that exposes one exp.DirStore
// over a small JSON API, and a client (HTTPStore) that implements
// exp.CellStore over that API — so a fleet of ompss-sweep claimants can
// share cells, leases and the journal with no shared filesystem at all.
//
// The protocol is deliberately a thin relay over DirStore semantics,
// not a second coordination protocol: the daemon's directory remains
// the single source of truth, every claim is a real lease file, every
// journal append a real JSONL line. A mixed fleet — dir:// claimants on
// the coordinator's host, http:// claimants elsewhere — therefore
// coordinates correctly through the one directory, and killing the
// daemon loses nothing but connectivity.
//
// Endpoints (all JSON unless noted):
//
//	GET  /v1/cells/{hash}      → CellData | 404
//	POST /v1/cells             ← cellsRequest → cellsResponse (≤ maxBatchCells hashes;
//	                             a warm campaign sends one per worker, concurrently)
//	PUT  /v1/cells/{hash}      ← CellData, hash-validated → 204
//	POST /v1/claim             ← claimRequest → claimResponse
//	POST /v1/lease/refresh     ← tokenRequest → 204 | 410 gone
//	POST /v1/lease/release     ← tokenRequest → 204 (idempotent)
//	GET  /v1/leases            → leasesResponse
//	POST /v1/journal           ← journalAppend → 204 (rotates and compacts here)
//	GET  /v1/journal?rev=N     → journalResponse (full or unchanged)
//	GET  /v1/manifest?rev=N    → manifestResponse (full or unchanged)
//	GET  /v1/metrics           → metricsResponse
//	GET  /healthz              → 200 "ok"
//
// Every request body is capped at maxBodyBytes (413 above it).
//
// Change detection is revision-based, not delta-based: the merged
// journal timeline re-sorts on every append, so byte deltas cannot be
// indexed; instead the server stamps a revision that moves exactly when
// the content does, answers "unchanged" when the client's revision
// matches, and resends the whole view when it does not. The client
// caches the last full view per revision, so an idle watch tick costs
// one small request per view and zero cell reads on either side.
package sweepd

import (
	"repro/internal/exp"
	"repro/internal/journal"
)

// maxBatchCells caps the hashes one POST /v1/cells may name: the server
// answers 400 above it, and HTTPStore.LoadCells sends longer lists in
// chunks of this size.
const maxBatchCells = 1024

// maxBodyBytes caps every request body: the server stops reading at it
// and answers 413. The largest legitimate body is a full batch read
// (maxBatchCells quoted hashes, 68,620 bytes); a paper-size cell PUT
// is under 1 KB.
const maxBodyBytes = 128 << 10

// cellsRequest names the cells a batch read looks up.
type cellsRequest struct {
	Hashes []string `json:"hashes"`
}

// cellsResponse answers a batch read, aligned with the request: each
// entry is the stored cell or null for a miss.
type cellsResponse struct {
	Cells []*exp.CellData `json:"cells"`
}

// claimRequest asks for an exclusive lease on one cell.
type claimRequest struct {
	Hash  string `json:"hash"`
	Owner string `json:"owner"`
	// TTLMillis is the lease staleness threshold in milliseconds
	// (0 = the server's default, exp.DefaultLeaseTTL).
	TTLMillis int64 `json:"ttl_ms"`
}

// claimResponse reports the claim outcome. Token is the holder's
// capability for refresh/release — the lease itself lives on the
// server, keyed by this token.
type claimResponse struct {
	Granted   bool   `json:"granted"`
	Reclaimed bool   `json:"reclaimed,omitempty"`
	Token     string `json:"token,omitempty"`
}

// tokenRequest names a held lease (refresh and release).
type tokenRequest struct {
	Token string `json:"token"`
}

// journalAppend carries one journal record to the coordinator, which
// appends it to <dir>/journal/<owner>.jsonl on the claimant's behalf.
type journalAppend struct {
	Owner  string         `json:"owner"`
	Record journal.Record `json:"record"`
}

// journalResponse is the full merged journal timeline, or just the
// current revision when the client's cached copy is already current.
type journalResponse struct {
	Rev       int64             `json:"rev"`
	Unchanged bool              `json:"unchanged,omitempty"`
	Records   []journal.Record  `json:"records,omitempty"`
	Stats     journal.ReadStats `json:"stats"`
}

// manifestResponse is the full settled-cell manifest, or just the
// revision when unchanged.
type manifestResponse struct {
	Rev       int64               `json:"rev"`
	Unchanged bool                `json:"unchanged,omitempty"`
	Cells     []exp.ManifestEntry `json:"cells,omitempty"`
}

// leaseWire is one outstanding lease as reported by /v1/leases.
// Mtime travels as Unix nanoseconds and age as nanoseconds so the
// client can rebuild exp.LeaseStatus losslessly.
type leaseWire struct {
	Hash    string `json:"hash"`
	Owner   string `json:"owner"`
	Host    string `json:"host"`
	PID     int    `json:"pid,omitempty"`
	MtimeNs int64  `json:"mtime_ns,omitempty"`
	AgeNs   int64  `json:"age_ns"`
}

// leasesResponse lists the outstanding leases, stalest first.
type leasesResponse struct {
	Leases []leaseWire `json:"leases"`
}

// metricsResponse exposes the backing store's counters — CellReads is
// what the control-plane CI gate asserts stays flat across idle ticks.
type metricsResponse struct {
	CellReads int64 `json:"cell_reads"`
}

// errorResponse is the JSON error body on every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}
