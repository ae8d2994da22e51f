package sweepd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/exp/storetest"
	"repro/internal/journal"
)

// startDaemon wires the full stack under test: a DirStore, a Server
// over it, an httptest listener, and an HTTPStore client dialed at it.
func startDaemon(t *testing.T, janitorEvery time.Duration) (*exp.DirStore, *Server, *httptest.Server, *HTTPStore) {
	t.Helper()
	ds, err := exp.OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(ds, janitorEvery)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		ds.Close()
	})
	client, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return ds, srv, ts, client
}

// TestHTTPStoreConformance runs the exact battery DirStore passes
// against the whole relay stack — client, wire format, server, backing
// store. The janitor is parked so lease-timing subtests measure the
// claim protocol, not server-side expiry.
func TestHTTPStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) storetest.Env {
		ds, _, _, client := startDaemon(t, time.Hour)
		return storetest.Env{
			Store:      client,
			CellReads:  ds.CellReads, // the daemon's reads are the ones that count
			JournalDir: ds.JournalDir(),
			SetRotate:  ds.SetJournalRotateBytes, // the daemon's writers rotate
		}
	})
}

func TestOpenStoreSchemes(t *testing.T) {
	dir := t.TempDir()

	// A bare path is the -cache alias: a dir store.
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore(bare path): %v", err)
	}
	defer s.Close()
	if _, ok := s.(*exp.DirStore); !ok {
		t.Fatalf("OpenStore(bare path) = %T, want *exp.DirStore", s)
	}
	if got := s.Description(); got != "dir://"+dir {
		t.Errorf("Description() = %q, want %q", got, "dir://"+dir)
	}

	// The explicit dir:// spelling names the same store.
	s2, err := OpenStore("dir://" + dir)
	if err != nil {
		t.Fatalf("OpenStore(dir://): %v", err)
	}
	defer s2.Close()
	if s2.Description() != s.Description() {
		t.Errorf("dir:// and bare path opened different stores: %q vs %q",
			s2.Description(), s.Description())
	}

	if _, err := OpenStore(""); err == nil {
		t.Error("OpenStore(\"\") did not fail")
	}
	_, err = OpenStore("gopher://example")
	if err == nil || !strings.Contains(err.Error(), "unknown store scheme") {
		t.Errorf("OpenStore(gopher://) error = %v, want unknown-scheme", err)
	}
}

// TestOpenStoreHTTPScheme proves an http URL reaches the daemon.
func TestOpenStoreHTTPScheme(t *testing.T) {
	_, _, ts, _ := startDaemon(t, time.Hour)
	s, err := OpenStore(ts.URL)
	if err != nil {
		t.Fatalf("OpenStore(%s): %v", ts.URL, err)
	}
	defer s.Close()
	if _, ok := s.(*HTTPStore); !ok {
		t.Fatalf("OpenStore(http URL) = %T, want *HTTPStore", s)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot over OpenStore'd client: %v", err)
	}
}

// TestJanitorExpiresAbandonedLease covers the server-side half of crash
// recovery: a remote claimant that stops heartbeating loses its token
// table entry and its lease file, so the cell is claimable again even
// before any rival shows up to break the lease itself.
func TestJanitorExpiresAbandonedLease(t *testing.T) {
	ds, srv, _, client := startDaemon(t, 20*time.Millisecond)
	hash := exp.RunSpec{App: "matmul-hyb", Scheduler: "bf", SMPWorkers: 2, GPUs: 1, Seed: 1}.Hash()
	lease, _, err := client.Claim(hash, "ghost", 100*time.Millisecond)
	if err != nil || lease == nil {
		t.Fatalf("Claim: lease=%v err=%v", lease, err)
	}
	// No refresh: the janitor must release the underlying lease.
	deadline := time.Now().Add(10 * time.Second)
	for {
		leases, err := ds.LeaseStatuses()
		if err != nil {
			t.Fatal(err)
		}
		if len(leases) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never released the abandoned lease")
		}
		time.Sleep(20 * time.Millisecond)
	}
	srv.lmu.Lock()
	held := len(srv.leases)
	srv.lmu.Unlock()
	if held != 0 {
		t.Errorf("janitor left %d token entries behind", held)
	}
	// The ghost's late heartbeat finds its token gone.
	if err := lease.Refresh(); err == nil {
		t.Error("Refresh after janitor expiry succeeded, want an error")
	}
	// And the cell is claimable again, cleanly (the lease file is gone,
	// so this is a fresh grant, not a stale reclaim).
	l2, _, err := client.Claim(hash, "next", time.Minute)
	if err != nil || l2 == nil {
		t.Fatalf("Claim after expiry: lease=%v err=%v", l2, err)
	}
	l2.Release()
}

// TestCellHashValidation: the server must reject both malformed hashes
// (they feed filename arithmetic) and spec/hash mismatches (they would
// poison a cell for every claimant of that spec).
func TestCellHashValidation(t *testing.T) {
	_, _, ts, client := startDaemon(t, time.Hour)

	resp, err := http.Get(ts.URL + "/v1/cells/not-a-hash")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET malformed hash: status %d, want 400", resp.StatusCode)
	}

	sp := exp.RunSpec{App: "matmul-hyb", Scheduler: "bf", SMPWorkers: 2, GPUs: 1, Seed: 1}
	other := sp
	other.Seed = 2
	body, _ := json.Marshal(exp.CellData{Spec: sp})
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/cells/"+other.Hash(), strings.NewReader(string(body)))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT mismatched spec: status %d, want 400", resp2.StatusCode)
	}
	// Nothing was stored under either hash.
	if _, ok := client.LoadCell(sp, sp.Hash()); ok {
		t.Error("mismatched PUT stored a cell under the spec hash")
	}
	if _, ok := client.LoadCell(other, other.Hash()); ok {
		t.Error("mismatched PUT stored a cell under the path hash")
	}
}

// TestJournalRevisionSeesCountPreservingRotation: with every append
// rotating, each one folds the previous record's one-record segment and
// the previous checkpoint into a new checkpoint, so the journal keeps
// two files holding two records while its content changes. A poller
// holding the last revision must still see the new record.
func TestJournalRevisionSeesCountPreservingRotation(t *testing.T) {
	ds, _, _, client := startDaemon(t, time.Hour)
	ds.SetJournalRotateBytes(1)
	for i := 0; i < 4; i++ {
		hash := exp.RunSpec{App: "matmul-hyb", Scheduler: "bf", SMPWorkers: 1, Seed: int64(i)}.Hash()
		if err := client.AppendJournal("w1", journal.Record{Type: journal.TypeDone, Index: i, Hash: hash}); err != nil {
			t.Fatal(err)
		}
		recs, stats, err := client.PollJournal()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && (stats.Records != 2 || stats.Files != 2) {
			t.Fatalf("append %d: %d records in %d files, want 2 in 2 (a count-preserving rotation)", i, stats.Records, stats.Files)
		}
		var done []string // the unfolded done records: only the newest
		for _, r := range recs {
			if r.Type == journal.TypeDone {
				done = append(done, r.Hash)
			}
		}
		if len(done) != 1 || done[0] != hash {
			t.Fatalf("append %d: unfolded done records %q, want only the new one %q", i, done, hash)
		}
	}
}

// TestJournalPollDuringRotatingAppends: the daemon's own appends rotate
// and compact the journal directory while HTTP pollers read it. Every
// poll must succeed, and the replayed done count must never fall — a
// poll that lists a segment and then finds it folded away must not
// serve a view missing its records.
func TestJournalPollDuringRotatingAppends(t *testing.T) {
	ds, _, _, client := startDaemon(t, time.Hour)
	ds.SetJournalRotateBytes(1)
	const n = 150
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			hash := exp.RunSpec{App: "matmul-hyb", Scheduler: "bf", SMPWorkers: 1, Seed: int64(i)}.Hash()
			rec := journal.Record{Type: journal.TypeDone, Index: i, Hash: hash, T: float64(i + 1)}
			if err := ds.AppendJournal("w1", rec); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	last := 0
	poll := func() error {
		recs, _, err := client.PollJournal()
		if err != nil {
			return fmt.Errorf("poll during rotating appends: %v", err)
		}
		done := journal.Replay(recs).Done
		if done < last {
			return fmt.Errorf("done count fell from %d to %d", last, done)
		}
		last = done
		return nil
	}
	for {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
			if err := poll(); err != nil { // every append has returned
				t.Fatal(err)
			}
			if last != n {
				t.Errorf("final poll replays %d done cells, want %d", last, n)
			}
			return
		default:
		}
		if err := poll(); err != nil {
			<-errc // let the appender finish before the store closes
			t.Fatal(err)
		}
	}
}
