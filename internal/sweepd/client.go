package sweepd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/journal"
)

// OpenStore resolves a store URL:
//
//	dir:///shared/cache   — directory store (shared-filesystem campaigns)
//	/shared/cache         — bare paths are dir:// (the -cache alias)
//	http://host:8080      — an ompss-sweepd coordinator (https too)
//
// Everything after dir:// is the directory path, so dir:///x names /x
// and dir://rel names the relative path rel. Any other scheme is an
// error.
func OpenStore(rawURL string) (exp.CellStore, error) {
	if rawURL == "" {
		return nil, fmt.Errorf("sweepd: store URL must not be empty")
	}
	scheme, rest, ok := strings.Cut(rawURL, "://")
	if !ok {
		scheme, rest = "dir", rawURL
	}
	switch scheme {
	case "dir":
		return cellStore(exp.OpenDirStore(rest))
	case "http", "https":
		return cellStore(Dial(rawURL))
	}
	return nil, fmt.Errorf("sweepd: unknown store scheme %q in %q (have [dir http https])", scheme, rawURL)
}

// cellStore converts an opener's result without turning a failed open's
// nil pointer into a non-nil interface.
func cellStore[S exp.CellStore](s S, err error) (exp.CellStore, error) {
	if err != nil {
		return nil, err
	}
	return s, nil
}

// HTTPStore implements exp.CellStore against an ompss-sweepd
// coordinator. Claimants and watchers use it exactly like a DirStore;
// every semantic — exactly-once claims, stale reclaim, journal
// durability, O(changes) snapshots — is delegated to the daemon's
// backing directory, with revision-cached views keeping idle polls to
// one small request each.
type HTTPStore struct {
	base string // URL prefix with no trailing slash
	hc   *http.Client

	// mmu guards the manifest cache (Snapshot).
	mmu   sync.Mutex
	cells map[string]exp.ManifestEntry
	mrev  int64

	// jmu guards the journal cache (PollJournal).
	jmu    sync.Mutex
	jrecs  []journal.Record
	jstats journal.ReadStats
	jrev   int64
}

// Dial validates a coordinator URL and returns a store speaking to it.
// No request is made until the store is used; a daemon that is still
// starting up fails the first real call, not the open.
func Dial(rawURL string) (*HTTPStore, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("sweepd: parsing store URL %q: %w", rawURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("sweepd: store URL %q: scheme must be http or https", rawURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("sweepd: store URL %q has no host", rawURL)
	}
	return &HTTPStore{
		base: strings.TrimRight(rawURL, "/"),
		hc:   &http.Client{Timeout: 60 * time.Second},
	}, nil
}

// Description implements exp.CellStore.
func (s *HTTPStore) Description() string { return s.base }

// Close implements exp.CellStore.
func (s *HTTPStore) Close() error {
	s.hc.CloseIdleConnections()
	return nil
}

// apiError is a non-2xx response: the status code plus the server's
// JSON error message.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("sweepd: server returned %d: %s", e.status, e.msg)
}

// doJSON performs one API call: marshal in (nil = no body), decode out
// (nil = discard) on 2xx, and surface non-2xx as *apiError.
func (s *HTTPStore) doJSON(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("sweepd: encoding request: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, s.base+path, body)
	if err != nil {
		return fmt.Errorf("sweepd: building request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return fmt.Errorf("sweepd: %s %s: %w", method, path, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e errorResponse
		json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		return &apiError{status: resp.StatusCode, msg: e.Error}
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("sweepd: decoding %s %s response: %w", method, path, err)
		}
	}
	return nil
}

// LoadCell implements exp.CellStore: any failure — 404, network error,
// a relay serving a cell whose spec does not hash to the request — is a
// miss, per the read-side contract.
func (s *HTTPStore) LoadCell(spec exp.RunSpec, hash string) (exp.RunResult, bool) {
	var d exp.CellData
	if err := s.doJSON(http.MethodGet, "/v1/cells/"+hash, nil, &d); err != nil {
		return exp.RunResult{}, false
	}
	return servedCell(spec, hash, &d)
}

// LoadCells implements exp.CellBatchLoader: one POST /v1/cells per
// maxBatchCells cells, each served cell re-checked against its hash as
// LoadCell does. A chunk whose request fails, or whose answer has the
// wrong length, is read again one LoadCell per cell, so a failed batch
// costs round trips, not simulations.
func (s *HTTPStore) LoadCells(cells []exp.PlanCell) ([]exp.RunResult, []bool) {
	rrs := make([]exp.RunResult, len(cells))
	hits := make([]bool, len(cells))
	req := cellsRequest{Hashes: make([]string, 0, min(len(cells), maxBatchCells))}
	for lo := 0; lo < len(cells); lo += maxBatchCells {
		chunk := cells[lo:min(lo+maxBatchCells, len(cells))]
		req.Hashes = req.Hashes[:0]
		for _, c := range chunk {
			req.Hashes = append(req.Hashes, c.Hash)
		}
		var resp cellsResponse
		batched := s.doJSON(http.MethodPost, "/v1/cells", req, &resp) == nil && len(resp.Cells) == len(chunk)
		for i, c := range chunk {
			if batched {
				rrs[lo+i], hits[lo+i] = servedCell(c.Spec, c.Hash, resp.Cells[i])
			} else {
				rrs[lo+i], hits[lo+i] = s.LoadCell(c.Spec, c.Hash)
			}
		}
	}
	return rrs, hits
}

// servedCell turns a cell the coordinator served for hash into the
// caller's result: a miss when there is none or its spec hashes to
// something else.
func servedCell(spec exp.RunSpec, hash string, d *exp.CellData) (exp.RunResult, bool) {
	if d == nil || d.Spec.Hash() != hash {
		return exp.RunResult{}, false
	}
	return exp.RunResult{
		Spec:   spec,
		Result: d.Result,
		Wall:   time.Duration(d.WallSec * float64(time.Second)),
		Cached: true,
	}, true
}

// StoreCell implements exp.CellStore.
func (s *HTTPStore) StoreCell(rr exp.RunResult) error {
	hash := rr.Spec.Hash()
	d := exp.CellData{Spec: rr.Spec, WallSec: rr.Wall.Seconds(), Result: rr.Result}
	return s.doJSON(http.MethodPut, "/v1/cells/"+hash, d, nil)
}

// httpLease is a held claim: the token is the only state, everything
// real lives on the coordinator.
type httpLease struct {
	s     *HTTPStore
	hash  string
	token string
}

func (l *httpLease) Hash() string { return l.hash }

// Refresh implements exp.StoreLease. A 410 means the server expired the
// token (the holder went quiet past the TTL and came back); a 409 means
// the underlying lease was reclaimed. Both surface as errors, and per
// the contract the holder finishes and stores its run anyway.
func (l *httpLease) Refresh() error {
	return l.s.doJSON(http.MethodPost, "/v1/lease/refresh", tokenRequest{Token: l.token}, nil)
}

// Release implements exp.StoreLease (idempotent, like Lease.Release).
func (l *httpLease) Release() error {
	return l.s.doJSON(http.MethodPost, "/v1/lease/release", tokenRequest{Token: l.token}, nil)
}

// Claim implements exp.CellStore.
func (s *HTTPStore) Claim(hash, owner string, ttl time.Duration) (exp.StoreLease, bool, error) {
	req := claimRequest{Hash: hash, Owner: owner, TTLMillis: ttl.Milliseconds()}
	var resp claimResponse
	if err := s.doJSON(http.MethodPost, "/v1/claim", req, &resp); err != nil {
		return nil, false, err
	}
	if !resp.Granted {
		return nil, resp.Reclaimed, nil
	}
	return &httpLease{s: s, hash: hash, token: resp.Token}, resp.Reclaimed, nil
}

// LeaseStatuses implements exp.CellStore.
func (s *HTTPStore) LeaseStatuses() ([]exp.LeaseStatus, error) {
	var resp leasesResponse
	if err := s.doJSON(http.MethodGet, "/v1/leases", nil, &resp); err != nil {
		return nil, err
	}
	out := make([]exp.LeaseStatus, 0, len(resp.Leases))
	for _, lw := range resp.Leases {
		ls := exp.LeaseStatus{
			Hash: lw.Hash, Owner: lw.Owner, Host: lw.Host, PID: lw.PID,
			Age: time.Duration(lw.AgeNs),
		}
		if lw.MtimeNs != 0 {
			// Lossless ns round-trip: the Watcher's skew-proof aging keys
			// on mtime *changes*, so the value must survive the wire intact.
			ls.Mtime = time.Unix(0, lw.MtimeNs)
		}
		out = append(out, ls)
	}
	return out, nil
}

// AppendJournal implements exp.CellStore: the record is appended to the
// coordinator's journal directory under the claimant's owner tag, so
// remote claimants journal into the same place local ones do.
func (s *HTTPStore) AppendJournal(owner string, rec journal.Record) error {
	if owner == "" {
		owner = exp.DefaultOwner()
	}
	if rec.T == 0 {
		// Stamped client-side: journal timestamps order the merged
		// timeline by when the claimant acted, not when the relay wrote.
		rec.T = float64(time.Now().UnixNano()) / 1e9
	}
	return s.doJSON(http.MethodPost, "/v1/journal", journalAppend{Owner: owner, Record: rec}, nil)
}

// PollJournal implements exp.CellStore: revision-cached, so an idle
// poll is one small request answered "unchanged" and the previous
// timeline is returned without retransmission.
func (s *HTTPStore) PollJournal() ([]journal.Record, journal.ReadStats, error) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	var resp journalResponse
	path := fmt.Sprintf("/v1/journal?rev=%d", s.jrev)
	if err := s.doJSON(http.MethodGet, path, nil, &resp); err != nil {
		return nil, journal.ReadStats{}, err
	}
	if !resp.Unchanged {
		s.jrecs, s.jstats, s.jrev = resp.Records, resp.Stats, resp.Rev
	}
	return s.jrecs, s.jstats, nil
}

// Snapshot implements exp.CellStore, revision-cached like PollJournal.
func (s *HTTPStore) Snapshot() (exp.StoreSnapshot, error) {
	s.mmu.Lock()
	defer s.mmu.Unlock()
	var resp manifestResponse
	path := fmt.Sprintf("/v1/manifest?rev=%d", s.mrev)
	if err := s.doJSON(http.MethodGet, path, nil, &resp); err != nil {
		return exp.StoreSnapshot{}, err
	}
	if !resp.Unchanged {
		cells := make(map[string]exp.ManifestEntry, len(resp.Cells))
		for _, e := range resp.Cells {
			cells[e.Hash] = e
		}
		s.cells, s.mrev = cells, resp.Rev
	}
	return exp.StoreSnapshot{Rev: s.mrev, Cells: s.cells}, nil
}
