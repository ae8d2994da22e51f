package sweepd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/ompss"
)

// countingHandler counts the cell reads that reach the server, by
// route, and can fail every batch read and every per-cell read.
type countingHandler struct {
	next                  http.Handler
	failBatch, failSingle bool
	batch, single         atomic.Int64 // POST /v1/cells, GET /v1/cells/{hash}
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/cells":
		h.batch.Add(1)
		if h.failBatch {
			writeErr(w, http.StatusServiceUnavailable, "batch reads are down")
			return
		}
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/cells/"):
		h.single.Add(1)
		if h.failSingle {
			writeErr(w, http.StatusServiceUnavailable, "cell reads are down")
			return
		}
	}
	h.next.ServeHTTP(w, r)
}

// countedDaemon is startDaemon behind a countingHandler.
func countedDaemon(t *testing.T, failBatch bool) (*exp.DirStore, *countingHandler, *HTTPStore) {
	t.Helper()
	ds, err := exp.OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(ds, time.Hour)
	h := &countingHandler{next: srv, failBatch: failBatch}
	ts := httptest.NewServer(h)
	client, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		ts.Close()
		srv.Close()
		ds.Close()
	})
	return ds, h, client
}

// warmGrid is the default sweep grid with three replicas: 96 tiny
// cells, the grid of the warm HTTP campaign benchmark.
func warmGrid() exp.Grid { return exp.Grid{Replicas: 3} }

// fillStore simulates the warm grid into ds and returns its CSV.
func fillStore(t *testing.T, ds *exp.DirStore) []byte {
	t.Helper()
	res, _, err := (&exp.Campaign{Grid: warmGrid(), Store: ds, Parallel: 2}).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 96 {
		t.Fatalf("warm grid has %d cells, want 96", len(res.Runs))
	}
	return csvOf(t, res)
}

func csvOf(t *testing.T, res *exp.SweepResult) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := exp.WriteCSV(&b, res); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// planCells builds n cells with distinct seeds, hashed as a campaign
// would hash them.
func planCells(n int) []exp.PlanCell {
	cells := make([]exp.PlanCell, n)
	for i := range cells {
		spec := exp.RunSpec{App: "matmul-hyb", Size: exp.SizeTiny, Scheduler: "bf", Machine: exp.MachineNode,
			SMPWorkers: 2, GPUs: 1, Seed: int64(i + 1)}
		cells[i] = exp.PlanCell{Index: i, Spec: spec, Hash: spec.Hash()}
	}
	return cells
}

func storeFake(t *testing.T, ds *exp.DirStore, spec exp.RunSpec) {
	t.Helper()
	rr := exp.RunResult{Spec: spec, Wall: 3 * time.Millisecond,
		Result: ompss.Result{Scheduler: spec.Scheduler, Elapsed: time.Duration(spec.Seed) * time.Second, Tasks: 7}}
	if err := ds.StoreCell(rr); err != nil {
		t.Fatal(err)
	}
}

// TestLoadCellsAgreesWithLoadCell: a batch read answers every kind of
// cell exactly as the per-cell read does — a stored cell, an absent
// one, a garbage file, and a file whose stored spec hashes to
// something else.
func TestLoadCellsAgreesWithLoadCell(t *testing.T) {
	ds, _, _, client := startDaemon(t, time.Hour)
	cells := planCells(4)
	present, garbage, renamed := cells[0], cells[2], cells[3]
	storeFake(t, ds, present.Spec)
	if err := os.WriteFile(filepath.Join(ds.Dir(), garbage.Hash+".json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(ds.Dir(), present.Hash+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ds.Dir(), renamed.Hash+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	rrs, hits := client.LoadCells(cells)
	if len(rrs) != len(cells) || len(hits) != len(cells) {
		t.Fatalf("LoadCells answered %d results and %d flags for %d cells", len(rrs), len(hits), len(cells))
	}
	for i, c := range cells {
		rr, ok := client.LoadCell(c.Spec, c.Hash)
		if hits[i] != ok || !reflect.DeepEqual(rrs[i], rr) {
			t.Errorf("cell %d: LoadCells = (%+v, %t), LoadCell = (%+v, %t)", i, rrs[i], hits[i], rr, ok)
		}
		if want := i == 0; hits[i] != want {
			t.Errorf("cell %d: hit = %t, want %t", i, hits[i], want)
		}
	}
	if !rrs[0].Cached || rrs[0].Spec != present.Spec {
		t.Errorf("hit does not carry the caller's spec as a cached result: %+v", rrs[0])
	}
}

// TestLoadCellsRechecksServedCells: the client trusts no relay. A
// coordinator that serves a cell whose spec hashes to something else
// makes misses, and a batch answered with the wrong number of entries
// is read again per cell, so the batch and the per-cell read agree.
func TestLoadCellsRechecksServedCells(t *testing.T) {
	cells := planCells(3)
	wrong := exp.CellData{Spec: cells[1].Spec}
	for _, short := range []bool{false, true} {
		t.Run(fmt.Sprintf("short=%t", short), func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodGet {
					writeJSON(w, wrong)
					return
				}
				var req cellsRequest
				if !readBody(w, r, &req) {
					return
				}
				resp := cellsResponse{Cells: make([]*exp.CellData, len(req.Hashes))}
				for i := range resp.Cells {
					resp.Cells[i] = &wrong
				}
				if short {
					resp.Cells = resp.Cells[1:]
				}
				writeJSON(w, resp)
			}))
			defer ts.Close()
			client, err := Dial(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			_, hits := client.LoadCells(cells)
			for i, c := range cells {
				_, ok := client.LoadCell(c.Spec, c.Hash)
				// Cell 1 is the served spec: the batch (or, after a
				// short answer, its per-cell fallback) and the
				// per-cell read both accept it.
				want := i == 1
				if hits[i] != want || ok != want {
					t.Errorf("cell %d: LoadCells hit %t, LoadCell hit %t; want %t", i, hits[i], ok, want)
				}
			}
		})
	}
}

// TestWarmCampaignBatchTraffic: a warm campaign over HTTP reads its
// cells in one batch request per worker (a slice of ⌈cells/1,024⌉
// requests each) and never per cell.
func TestWarmCampaignBatchTraffic(t *testing.T) {
	ds, h, client := countedDaemon(t, false)
	fillStore(t, ds)
	for _, parallel := range []int{1, 4} {
		h.batch.Store(0)
		res, stats, err := (&exp.Campaign{Grid: warmGrid(), Store: client, Parallel: parallel}).Execute()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Simulated != 0 || stats.Hits != len(res.Runs) {
			t.Fatalf("parallel %d: warm campaign simulated %d and hit %d of %d cells", parallel, stats.Simulated, stats.Hits, len(res.Runs))
		}
		if b, s := h.batch.Load(), h.single.Load(); b != int64(parallel) || s != 0 {
			t.Errorf("parallel %d: warm 96-cell campaign made %d batch and %d per-cell reads, want %d and 0", parallel, b, s, parallel)
		}
	}

	// 1,025 cells take two requests; the chunk boundary keeps each
	// answer aligned with its cell.
	h.batch.Store(0)
	cells := planCells(maxBatchCells + 1)
	first, last := cells[0], cells[maxBatchCells]
	storeFake(t, ds, first.Spec)
	storeFake(t, ds, last.Spec)
	rrs, hits := client.LoadCells(cells)
	if b, s := h.batch.Load(), h.single.Load(); b != 2 || s != 0 {
		t.Errorf("%d cells made %d batch and %d per-cell reads, want 2 and 0", len(cells), b, s)
	}
	for i, hit := range hits {
		if want := i == 0 || i == maxBatchCells; hit != want {
			t.Errorf("cell %d: hit = %t, want %t", i, hit, want)
		}
	}
	if rrs[maxBatchCells].Spec != last.Spec || rrs[maxBatchCells].Result.Elapsed != time.Duration(last.Spec.Seed)*time.Second {
		t.Errorf("cell %d came back as %+v", maxBatchCells, rrs[maxBatchCells])
	}
}

// TestWarmCampaignSurvivesFailedBatch: a batch read that fails is read
// again per cell inside LoadCells, which still finds every cell — the
// blip costs round trips, not simulations. Each worker's pre-scan slice
// makes its own batch request, and each falls back on its own. With the
// per-cell reads failing too, every cell is a miss, never an error: the
// campaign simulates and stores the whole grid and renders the same
// bytes — an outage costs simulations, not results.
func TestWarmCampaignSurvivesFailedBatch(t *testing.T) {
	const parallel = 4
	for _, outage := range []bool{false, true} {
		t.Run(fmt.Sprintf("outage=%t", outage), func(t *testing.T) {
			ds, h, client := countedDaemon(t, true)
			h.failSingle = outage
			want := fillStore(t, ds)
			res, stats, err := (&exp.Campaign{Grid: warmGrid(), Store: client, Parallel: parallel}).Execute()
			if err != nil {
				t.Fatal(err)
			}
			wantSim := 0
			if outage {
				wantSim = len(res.Runs)
			}
			if stats.Simulated != wantSim || stats.Hits != len(res.Runs)-wantSim {
				t.Fatalf("campaign after a failed batch simulated %d and hit %d of %d cells, want %d simulated", stats.Simulated, stats.Hits, len(res.Runs), wantSim)
			}
			if b, s := h.batch.Load(), h.single.Load(); b != parallel || s != int64(len(res.Runs)) {
				t.Errorf("made %d batch and %d per-cell reads, want %d and %d", b, s, parallel, len(res.Runs))
			}
			if got := csvOf(t, res); !bytes.Equal(got, want) {
				t.Error("campaign after a failed batch renders different CSV")
			}
		})
	}
}

// TestWarmHTTPCampaignMatchesDirStore: a warm campaign renders the same
// bytes and the same warm CellCached sequence (index, hash, in
// expansion order) over the HTTP store and over the DirStore behind
// it, at any parallelism, although each worker's pre-scan slice
// resolves concurrently.
func TestWarmHTTPCampaignMatchesDirStore(t *testing.T) {
	ds, _, _, client := startDaemon(t, time.Hour)
	fillStore(t, ds)
	var want []byte
	for _, store := range []exp.CellStore{ds, client} {
		for _, parallel := range []int{1, 2, 4} {
			var events []exp.Event
			obs := exp.ObserverFunc(func(ev exp.Event) { events = append(events, ev) })
			res, _, err := (&exp.Campaign{Grid: warmGrid(), Store: store, Parallel: parallel, Observer: obs}).Execute()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s at parallel %d", store.Description(), parallel)
			got := csvOf(t, res)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("%s: CSV differs from the DirStore campaign's at parallel 1", name)
			}
			if len(events) != len(res.Runs) {
				t.Fatalf("%s: %d events for %d cells", name, len(events), len(res.Runs))
			}
			for i, ev := range events {
				c, ok := ev.(exp.CellCached)
				if !ok || !c.Warm || c.Index != i || c.Hash != res.Runs[i].Spec.Hash() {
					t.Fatalf("%s: event %d = %#v, want a warm CellCached for cell %d", name, i, ev, i)
				}
			}
		}
	}
}

// TestBatchRequestValidation: the server gates every batch hash like a
// path hash and refuses more than maxBatchCells of them.
func TestBatchRequestValidation(t *testing.T) {
	_, _, ts, _ := startDaemon(t, time.Hour)
	valid := planCells(1)[0].Hash
	post := func(hashes []string) int {
		t.Helper()
		body, err := json.Marshal(cellsRequest{Hashes: hashes})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/cells", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	many := make([]string, maxBatchCells+1)
	for i := range many {
		many[i] = valid
	}
	for _, tc := range []struct {
		name   string
		hashes []string
		want   int
	}{
		{"malformed", []string{valid, "../" + valid[3:]}, http.StatusBadRequest},
		{"over the limit", many, http.StatusBadRequest},
		{"at the limit", many[:maxBatchCells], http.StatusOK},
		{"empty", nil, http.StatusOK},
	} {
		if got := post(tc.hashes); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/cells", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unparsable body: status %d, want 400", resp.StatusCode)
	}
}

// TestOversizedBodyRefused: every route stops reading a request body at
// maxBodyBytes and answers 413, so a batch far over its hash cap is
// refused before the array is decoded, and nothing reaches the store.
func TestOversizedBodyRefused(t *testing.T) {
	ds, srv, _, _ := startDaemon(t, time.Hour)
	valid := planCells(1)[0].Hash
	many := make([]string, 3*maxBatchCells)
	for i := range many {
		many[i] = valid
	}
	batch, err := json.Marshal(cellsRequest{Hashes: many})
	if err != nil {
		t.Fatal(err)
	}
	spec := planCells(1)[0].Spec
	spec.Chaos = strings.Repeat("x", maxBodyBytes)
	cell, err := json.Marshal(exp.CellData{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPost, "/v1/cells", batch},
		{http.MethodPut, "/v1/cells/" + valid, cell},
	} {
		if len(tc.body) <= maxBodyBytes {
			t.Fatalf("%s %s: test body of %d bytes is not over the cap", tc.method, tc.path, len(tc.body))
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, bytes.NewReader(tc.body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s with %d bytes: status %d, want 413", tc.method, tc.path, len(tc.body), rec.Code)
		}
	}
	if n := ds.CellReads(); n != 0 {
		t.Errorf("oversized requests made %d cell reads, want 0", n)
	}
	if snap, err := ds.Snapshot(); err != nil || len(snap.Cells) != 0 {
		t.Errorf("oversized PUT stored cells: %d (err %v)", len(snap.Cells), err)
	}
}
