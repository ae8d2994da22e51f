package sweepd

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/exp"
)

// Server serves one exp.DirStore over the control-plane API. It is an
// http.Handler; cmd/ompss-sweepd wraps it in an http.Server, tests in
// an httptest.Server.
//
// The server owns the leases it grants: a successful /v1/claim takes a
// real lease file in the backing directory and parks the held lease in
// a token-keyed table, so refresh and release are capability calls — a
// claimant can only touch the lease its token names. A janitor expires
// entries whose holder stopped heartbeating (crashed claimant, dead
// connection) by releasing the underlying lease, which is exactly what
// the claimant's own process exit would have done on a shared mount.
type Server struct {
	store *exp.DirStore
	mux   *http.ServeMux

	// smu serializes manifest readers (snapshot + marshal) against cell
	// writers: StoreSnapshot's map is shared with the store and mutated
	// by StoreCell, so the server must not iterate it while a PUT folds
	// a new entry in.
	smu sync.RWMutex

	// lmu guards the held-lease table.
	lmu    sync.Mutex
	leases map[string]*heldLease

	// jmu serializes journal polls: the store's tailer reuses its
	// merged slice across polls, so marshaling must not overlap the
	// next poll's rebuild.
	jmu sync.Mutex

	janitorEvery time.Duration
	stop         chan struct{}
	done         chan struct{}
}

// heldLease is one granted claim, keyed by its capability token.
type heldLease struct {
	lease    exp.StoreLease
	hash     string
	owner    string
	ttl      time.Duration
	lastBeat time.Time
}

// NewServer wraps a DirStore in the control-plane API and starts the
// lease janitor. Close the server to stop the janitor and release any
// leases still held on behalf of vanished claimants.
func NewServer(store *exp.DirStore) *Server {
	return newServer(store, time.Second)
}

// newServer is NewServer with the janitor cadence injectable: tests
// either speed it up (expiry tests) or park it for an hour so timing
// assertions exercise the claim protocol, not the janitor.
func newServer(store *exp.DirStore, janitorEvery time.Duration) *Server {
	s := &Server{
		store:        store,
		leases:       make(map[string]*heldLease),
		janitorEvery: janitorEvery,
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/cells/{hash}", s.handleGetCell)
	mux.HandleFunc("PUT /v1/cells/{hash}", s.handlePutCell)
	mux.HandleFunc("POST /v1/cells", s.handleGetCells)
	mux.HandleFunc("POST /v1/claim", s.handleClaim)
	mux.HandleFunc("POST /v1/lease/refresh", s.handleRefresh)
	mux.HandleFunc("POST /v1/lease/release", s.handleRelease)
	mux.HandleFunc("GET /v1/leases", s.handleLeases)
	mux.HandleFunc("POST /v1/journal", s.handleJournalAppend)
	mux.HandleFunc("GET /v1/journal", s.handleJournalPoll)
	mux.HandleFunc("GET /v1/manifest", s.handleManifest)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux = mux
	go s.janitor()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the janitor and releases every lease still held for a
// remote claimant. The backing store is the caller's to close.
func (s *Server) Close() error {
	close(s.stop)
	<-s.done
	s.lmu.Lock()
	defer s.lmu.Unlock()
	for token, h := range s.leases {
		h.lease.Release()
		delete(s.leases, token)
	}
	return nil
}

// janitor periodically releases leases whose claimant stopped
// heartbeating for a full TTL — the same staleness bar the directory
// protocol applies to an unrefreshed lease file, applied here to the
// token table so a crashed remote claimant neither leaks an entry nor
// holds its cell longer than a crashed local one would.
func (s *Server) janitor() {
	defer close(s.done)
	t := time.NewTicker(s.janitorEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-t.C:
			s.lmu.Lock()
			for token, h := range s.leases {
				if now.Sub(h.lastBeat) > h.ttl {
					h.lease.Release()
					delete(s.leases, token)
				}
			}
			s.lmu.Unlock()
		}
	}
}

// writeJSON writes a 200 JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeErr writes a JSON error body with the given status.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...)})
}

// readBody decodes a JSON request body of at most maxBodyBytes, false
// (with the 4xx already written) when it is larger or does not parse.
// The cap stops reading at the limit, so an oversized body is refused
// before it is decoded whole.
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeErr(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", maxBodyBytes)
		return false
	case err != nil:
		writeErr(w, http.StatusBadRequest, "decoding request body: %v", err)
		return false
	}
	return true
}

// validHash gates every {hash} path value: spec hashes are exactly 64
// lowercase hex characters, and nothing else may reach the store's
// filename arithmetic.
func validHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Server) handleGetCell(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !validHash(hash) {
		writeErr(w, http.StatusBadRequest, "malformed cell hash %q", hash)
		return
	}
	d, ok := s.store.ReadCellData(hash)
	if !ok {
		writeErr(w, http.StatusNotFound, "no cell %s", hash)
		return
	}
	writeJSON(w, d)
}

// handleGetCells is the batch read: every hash is gated like a path
// hash, and each answer is the cell or null, as GET /v1/cells/{hash}
// answers it or 404s.
func (s *Server) handleGetCells(w http.ResponseWriter, r *http.Request) {
	var req cellsRequest
	if !readBody(w, r, &req) {
		return
	}
	if len(req.Hashes) > maxBatchCells {
		writeErr(w, http.StatusBadRequest, "%d hashes in one batch, the limit is %d", len(req.Hashes), maxBatchCells)
		return
	}
	for _, h := range req.Hashes {
		if !validHash(h) {
			writeErr(w, http.StatusBadRequest, "malformed cell hash %q", h)
			return
		}
	}
	resp := cellsResponse{Cells: make([]*exp.CellData, len(req.Hashes))}
	for i, h := range req.Hashes {
		if d, ok := s.store.ReadCellData(h); ok {
			resp.Cells[i] = &d
		}
	}
	writeJSON(w, resp)
}

func (s *Server) handlePutCell(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !validHash(hash) {
		writeErr(w, http.StatusBadRequest, "malformed cell hash %q", hash)
		return
	}
	var d exp.CellData
	if !readBody(w, r, &d) {
		return
	}
	// The path hash is the claim the client is making; the spec is the
	// proof. A mismatch means a confused client, and storing it would
	// poison the cell for every future claimant of that spec.
	if got := d.Spec.Hash(); got != hash {
		writeErr(w, http.StatusBadRequest, "spec hashes to %s, not %s", got, hash)
		return
	}
	rr := exp.RunResult{
		Spec:   d.Spec,
		Result: d.Result,
		Wall:   time.Duration(d.WallSec * float64(time.Second)),
	}
	s.smu.Lock()
	err := s.store.StoreCell(rr)
	s.smu.Unlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "storing cell: %v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req claimRequest
	if !readBody(w, r, &req) {
		return
	}
	if !validHash(req.Hash) {
		writeErr(w, http.StatusBadRequest, "malformed cell hash %q", req.Hash)
		return
	}
	if req.Owner == "" {
		writeErr(w, http.StatusBadRequest, "claim needs an owner tag")
		return
	}
	ttl := time.Duration(req.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = exp.DefaultLeaseTTL
	}
	lease, reclaimed, err := s.store.Claim(req.Hash, req.Owner, ttl)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "claiming: %v", err)
		return
	}
	if lease == nil {
		writeJSON(w, claimResponse{Granted: false, Reclaimed: reclaimed})
		return
	}
	token := newToken()
	s.lmu.Lock()
	s.leases[token] = &heldLease{
		lease: lease, hash: req.Hash, owner: req.Owner, ttl: ttl, lastBeat: time.Now(),
	}
	s.lmu.Unlock()
	writeJSON(w, claimResponse{Granted: true, Reclaimed: reclaimed, Token: token})
}

// newToken mints an unguessable lease capability.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("sweepd: reading randomness: %v", err))
	}
	return hex.EncodeToString(b[:])
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	var req tokenRequest
	if !readBody(w, r, &req) {
		return
	}
	s.lmu.Lock()
	h := s.leases[req.Token]
	if h != nil {
		h.lastBeat = time.Now()
	}
	s.lmu.Unlock()
	if h == nil {
		writeErr(w, http.StatusGone, "unknown or expired lease token")
		return
	}
	if err := h.lease.Refresh(); err != nil {
		// The lease may have been reclaimed as stale out from under its
		// holder; per the StoreLease contract the holder finishes its run
		// anyway, so this is a reportable error, not a terminal one.
		writeErr(w, http.StatusConflict, "refreshing lease: %v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req tokenRequest
	if !readBody(w, r, &req) {
		return
	}
	s.lmu.Lock()
	h := s.leases[req.Token]
	delete(s.leases, req.Token)
	s.lmu.Unlock()
	if h == nil {
		// Releasing an already-expired (or reclaimed) lease is the normal
		// tail of a slow claimant; idempotent success mirrors Lease.Release.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if err := h.lease.Release(); err != nil {
		writeErr(w, http.StatusInternalServerError, "releasing lease: %v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleLeases(w http.ResponseWriter, r *http.Request) {
	leases, err := s.store.LeaseStatuses()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "listing leases: %v", err)
		return
	}
	resp := leasesResponse{Leases: make([]leaseWire, 0, len(leases))}
	for _, l := range leases {
		lw := leaseWire{
			Hash: l.Hash, Owner: l.Owner, Host: l.Host, PID: l.PID,
			AgeNs: int64(l.Age),
		}
		if !l.Mtime.IsZero() {
			lw.MtimeNs = l.Mtime.UnixNano()
		}
		resp.Leases = append(resp.Leases, lw)
	}
	writeJSON(w, resp)
}

func (s *Server) handleJournalAppend(w http.ResponseWriter, r *http.Request) {
	var req journalAppend
	if !readBody(w, r, &req) {
		return
	}
	if req.Owner == "" {
		// An empty owner would journal under the daemon's own host:pid
		// and misattribute the claimant's history.
		writeErr(w, http.StatusBadRequest, "journal append needs an owner tag")
		return
	}
	if err := s.store.AppendJournal(req.Owner, req.Record); err != nil {
		writeErr(w, http.StatusInternalServerError, "appending journal: %v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// queryRev parses the client's cached-revision query parameter (0 = no
// cache).
func queryRev(r *http.Request) int64 {
	rev, _ := strconv.ParseInt(r.URL.Query().Get("rev"), 10, 64)
	return rev
}

func (s *Server) handleJournalPoll(w http.ResponseWriter, r *http.Request) {
	s.jmu.Lock()
	recs, stats, rev, err := s.store.PollJournalRev()
	if err != nil {
		s.jmu.Unlock()
		writeErr(w, http.StatusInternalServerError, "polling journal: %v", err)
		return
	}
	rev++ // a client's rev 0 means it has nothing cached
	if cr := queryRev(r); cr == rev {
		s.jmu.Unlock()
		writeJSON(w, journalResponse{Rev: rev, Unchanged: true})
		return
	}
	// Marshal while still holding jmu: the records slice is the tailer's,
	// reused by the next poll.
	var buf bytes.Buffer
	mErr := json.NewEncoder(&buf).Encode(journalResponse{Rev: rev, Records: recs, Stats: stats})
	s.jmu.Unlock()
	if mErr != nil {
		writeErr(w, http.StatusInternalServerError, "encoding journal: %v", mErr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	s.smu.RLock()
	snap, err := s.store.Snapshot()
	if err != nil {
		s.smu.RUnlock()
		writeErr(w, http.StatusInternalServerError, "snapshotting manifest: %v", err)
		return
	}
	if cr := queryRev(r); cr == snap.Rev && cr != 0 {
		s.smu.RUnlock()
		writeJSON(w, manifestResponse{Rev: snap.Rev, Unchanged: true})
		return
	}
	resp := manifestResponse{Rev: snap.Rev, Cells: make([]exp.ManifestEntry, 0, len(snap.Cells))}
	for _, e := range snap.Cells {
		resp.Cells = append(resp.Cells, e)
	}
	// Marshal under the read lock: the snapshot map is shared with the
	// store, and a concurrent PUT must not fold into it mid-iteration.
	var buf bytes.Buffer
	mErr := json.NewEncoder(&buf).Encode(resp)
	s.smu.RUnlock()
	if mErr != nil {
		writeErr(w, http.StatusInternalServerError, "encoding manifest: %v", mErr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, metricsResponse{CellReads: s.store.CellReads()})
}
