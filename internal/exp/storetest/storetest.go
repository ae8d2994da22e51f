// Package storetest is the exp.CellStore conformance suite: every store
// implementation — DirStore, the ompss-sweepd HTTPStore, and whatever
// comes next — runs the same battery, so "implements CellStore" means
// the documented semantics, not just the method set. The battery
// asserts the contracts campaigns actually lean on: read-side failures
// are misses, claims are exactly-once under contention, stale leases
// are reclaimed, the journal tolerates torn writers, and idle progress
// polls read zero cell files.
package storetest

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/journal"
	"repro/ompss"
)

// Env is one store under test plus the probes the suite needs behind
// the interface: the backing cell-read counter (the idle-poll
// guarantee is about the *backing* store, wherever it lives) and the
// backing journal directory (for torn-writer fault injection).
type Env struct {
	Store exp.CellStore
	// CellReads reports how many cell files the backing store has read
	// so far.
	CellReads func() int64
	// JournalDir is the backing journal directory. The suite writes
	// torn garbage here to simulate a SIGKILLed claimant.
	JournalDir string
	// SetRotate configures the backing store's journal rotation
	// threshold, wherever the writers live (the daemon's DirStore for a
	// relay store). Nil skips the rotation subtest.
	SetRotate func(bytes int64)
}

// Factory builds a fresh, empty store environment per subtest; cleanup
// belongs to the factory (t.Cleanup).
type Factory func(t *testing.T) Env

// Run executes the conformance battery against the factory's stores.
func Run(t *testing.T, open Factory) {
	t.Run("LoadStoreRoundTrip", func(t *testing.T) { testRoundTrip(t, open(t)) })
	t.Run("ConcurrentLoads", func(t *testing.T) { testConcurrentLoads(t, open(t)) })
	t.Run("ExactlyOnceClaim", func(t *testing.T) { testExactlyOnceClaim(t, open(t)) })
	t.Run("RefreshKeepsLeaseAlive", func(t *testing.T) { testRefreshKeepsAlive(t, open(t)) })
	t.Run("StaleLeaseReclaimed", func(t *testing.T) { testStaleReclaim(t, open(t)) })
	t.Run("JournalAppendPoll", func(t *testing.T) { testJournalAppendPoll(t, open(t)) })
	t.Run("TornJournalTolerated", func(t *testing.T) { testTornJournal(t, open(t)) })
	t.Run("SnapshotTracksStores", func(t *testing.T) { testSnapshot(t, open(t)) })
	t.Run("IdlePollsReadNoCells", func(t *testing.T) { testIdlePolls(t, open(t)) })
	t.Run("RotationCompactionInvariant", func(t *testing.T) { testRotationCompaction(t, open) })
}

// spec returns the i-th of a family of distinct, hashable specs. The
// app never has to exist: the suite stores synthetic results, it does
// not simulate.
func spec(i int) exp.RunSpec {
	return exp.RunSpec{
		App: "matmul-hyb", Scheduler: "bf", SMPWorkers: 2, GPUs: 1,
		Seed: int64(i + 1),
	}
}

// result fabricates a deterministic completed run for a spec.
func result(s exp.RunSpec) exp.RunResult {
	return exp.RunResult{
		Spec: s,
		Result: ompss.Result{
			Scheduler:  s.Scheduler,
			SMPWorkers: s.SMPWorkers,
			GPUs:       s.GPUs,
			Elapsed:    time.Duration(s.Seed) * 100 * time.Millisecond,
			GFlops:     float64(10 * s.Seed),
			Tasks:      42,
		},
		Wall: 1500 * time.Millisecond,
	}
}

func testRoundTrip(t *testing.T, env Env) {
	s := env.Store
	sp := spec(0)
	hash := sp.Hash()
	if _, ok := s.LoadCell(sp, hash); ok {
		t.Fatal("LoadCell hit on an empty store")
	}
	rr := result(sp)
	if err := s.StoreCell(rr); err != nil {
		t.Fatalf("StoreCell: %v", err)
	}
	got, ok := s.LoadCell(sp, hash)
	if !ok {
		t.Fatal("LoadCell missed a stored cell")
	}
	if !got.Cached {
		t.Error("loaded result not marked Cached")
	}
	if got.Result.Elapsed != rr.Result.Elapsed || got.Result.GFlops != rr.Result.GFlops ||
		got.Result.Tasks != rr.Result.Tasks {
		t.Errorf("round trip changed the result: got %+v want %+v", got.Result, rr.Result)
	}
	if got.Wall != rr.Wall {
		t.Errorf("round trip changed the wall cost: got %v want %v", got.Wall, rr.Wall)
	}
	// Loading under a wrong hash must miss, not mis-serve.
	other := spec(1)
	if _, ok := s.LoadCell(other, other.Hash()); ok {
		t.Error("LoadCell hit a hash that was never stored")
	}
}

// testConcurrentLoads: a campaign's pre-scan reads its cells from one
// goroutine per worker, so reads must be safe for concurrent use. Every
// reader sees every stored cell as a hit carrying its result and every
// other cell as a miss, through LoadCell and, on a store that offers
// it, through LoadCells; and each read reaches the backing store once.
func testConcurrentLoads(t *testing.T, env Env) {
	s := env.Store
	const cellCount, readers = 8, 4
	cells := make([]exp.PlanCell, cellCount)
	for i := range cells {
		sp := spec(i)
		cells[i] = exp.PlanCell{Index: i, Spec: sp, Hash: sp.Hash()}
		if i%2 == 0 {
			if err := s.StoreCell(result(sp)); err != nil {
				t.Fatalf("StoreCell: %v", err)
			}
		}
	}
	check := func(c exp.PlanCell, rr exp.RunResult, ok bool) {
		if want := c.Index%2 == 0; ok != want {
			t.Errorf("cell %d: hit = %t, want %t", c.Index, ok, want)
			return
		}
		if ok && (!rr.Cached || rr.Spec != c.Spec || rr.Result.Elapsed != result(c.Spec).Result.Elapsed) {
			t.Errorf("cell %d: concurrent read returned %+v", c.Index, rr)
		}
	}
	bl, batched := s.(exp.CellBatchLoader)
	before := env.CellReads()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range cells {
				rr, ok := s.LoadCell(c.Spec, c.Hash)
				check(c, rr, ok)
			}
			if batched {
				rrs, hits := bl.LoadCells(cells)
				for i, c := range cells {
					check(c, rrs[i], hits[i])
				}
			}
		}()
	}
	wg.Wait()
	want := int64(readers * cellCount)
	if batched {
		want *= 2
	}
	if got := env.CellReads() - before; got != want {
		t.Errorf("%d concurrent readers made %d backing cell reads, want %d", readers, got, want)
	}
}

func testExactlyOnceClaim(t *testing.T, env Env) {
	s := env.Store
	hash := spec(0).Hash()
	const claimants = 8
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		granted []exp.StoreLease
	)
	for i := 0; i < claimants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lease, _, err := s.Claim(hash, fmt.Sprintf("claimant-%d", i), 30*time.Second)
			if err != nil {
				t.Errorf("Claim: %v", err)
				return
			}
			if lease != nil {
				mu.Lock()
				granted = append(granted, lease)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if len(granted) != 1 {
		t.Fatalf("%d concurrent claims granted %d leases, want exactly 1", claimants, len(granted))
	}
	if got := granted[0].Hash(); got != hash {
		t.Errorf("lease covers %s, want %s", got, hash)
	}
	// While held, a fresh claim is denied without error.
	if lease, _, err := s.Claim(hash, "latecomer", 30*time.Second); err != nil || lease != nil {
		t.Fatalf("claim against a live lease: lease=%v err=%v, want nil/nil", lease, err)
	}
	// Released, the cell is claimable again.
	if err := granted[0].Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
	lease, _, err := s.Claim(hash, "latecomer", 30*time.Second)
	if err != nil || lease == nil {
		t.Fatalf("claim after release: lease=%v err=%v, want granted", lease, err)
	}
	lease.Release()
}

func testRefreshKeepsAlive(t *testing.T, env Env) {
	s := env.Store
	hash := spec(0).Hash()
	const ttl = 500 * time.Millisecond
	lease, _, err := s.Claim(hash, "holder", ttl)
	if err != nil || lease == nil {
		t.Fatalf("Claim: lease=%v err=%v", lease, err)
	}
	defer lease.Release()
	// Two refresh cycles carry the lease well past its TTL; a rival
	// claim must still be denied because the heartbeat is fresh.
	for i := 0; i < 2; i++ {
		time.Sleep(ttl / 2)
		if err := lease.Refresh(); err != nil {
			t.Fatalf("Refresh: %v", err)
		}
	}
	rival, _, err := s.Claim(hash, "rival", ttl)
	if err != nil {
		t.Fatalf("rival Claim: %v", err)
	}
	if rival != nil {
		rival.Release()
		t.Fatal("rival claimed over a heartbeating lease")
	}
}

func testStaleReclaim(t *testing.T, env Env) {
	s := env.Store
	hash := spec(0).Hash()
	const ttl = 300 * time.Millisecond
	lease, _, err := s.Claim(hash, "crasher", ttl)
	if err != nil || lease == nil {
		t.Fatalf("Claim: lease=%v err=%v", lease, err)
	}
	// The holder goes silent (no Refresh): once the heartbeat is older
	// than the TTL, the next claimant breaks the lease and takes over.
	deadline := time.Now().Add(10 * time.Second)
	for {
		time.Sleep(ttl)
		rival, reclaimed, err := s.Claim(hash, "rival", ttl)
		if err != nil {
			t.Fatalf("rival Claim: %v", err)
		}
		if rival != nil {
			if !reclaimed {
				t.Error("stale takeover did not report reclaimed")
			}
			rival.Release()
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("stale lease was never reclaimed")
		}
	}
}

func testJournalAppendPoll(t *testing.T, env Env) {
	s := env.Store
	for i, owner := range []string{"w1", "w2"} {
		rec := journal.Record{Type: journal.TypeDone, Index: i, Hash: spec(i).Hash(), WallSec: 1}
		if err := s.AppendJournal(owner, rec); err != nil {
			t.Fatalf("AppendJournal(%s): %v", owner, err)
		}
	}
	recs, stats, err := s.PollJournal()
	if err != nil {
		t.Fatalf("PollJournal: %v", err)
	}
	if stats.Files != 2 {
		t.Errorf("stats.Files = %d, want 2 (one per owner)", stats.Files)
	}
	byOwner := map[string]int{}
	for _, r := range recs {
		if r.Type == journal.TypeDone {
			byOwner[r.Owner]++
		}
	}
	if byOwner["w1"] != 1 || byOwner["w2"] != 1 {
		t.Errorf("done records per owner = %v, want one each for w1, w2", byOwner)
	}
	// An idle re-poll returns the same history.
	recs2, _, err := s.PollJournal()
	if err != nil {
		t.Fatalf("idle PollJournal: %v", err)
	}
	if len(recs2) != len(recs) {
		t.Errorf("idle poll changed the timeline: %d vs %d records", len(recs2), len(recs))
	}
}

// testRotationCompaction is the cross-host rotation contract: with a
// rotation threshold set on the backing store, appends spill into
// closed segments that the rotating writers fold into a checkpoint on
// their own — no compaction call anywhere — and Replay of PollJournal
// reports what it reports for an unrotated twin store fed the same
// records.
func testRotationCompaction(t *testing.T, open Factory) {
	env, twin := open(t), open(t)
	if env.SetRotate == nil {
		t.Skip("store exposes no rotation hook")
	}
	env.SetRotate(300)
	const perOwner = 15
	for i := 0; i < perOwner; i++ {
		for _, owner := range []string{"w1", "w2"} {
			rec := journal.Record{
				Type: journal.TypeDone, Index: i, Hash: spec(i).Hash(),
				WallSec: 0.25, T: float64(1000 + i),
			}
			for _, s := range []exp.CellStore{env.Store, twin.Store} {
				if err := s.AppendJournal(owner, rec); err != nil {
					t.Fatalf("AppendJournal(%s): %v", owner, err)
				}
			}
		}
	}
	checkpoints, err := filepath.Glob(filepath.Join(env.JournalDir, "checkpoint-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(checkpoints) == 0 {
		t.Fatal("rotation left no checkpoint behind: the writers never compacted")
	}
	replay := func(s exp.CellStore) (*journal.Timeline, journal.ReadStats) {
		recs, stats, err := s.PollJournal()
		if err != nil {
			t.Fatalf("PollJournal: %v", err)
		}
		return journal.Replay(recs), stats
	}
	got, stats := replay(env.Store)
	want, _ := replay(twin.Store)
	if got.Done != want.Done || got.CostSec != want.CostSec ||
		got.DoubleDone != want.DoubleDone || len(got.Owners) != len(want.Owners) {
		t.Errorf("rotation changed the replay: done %d vs %d, cost %g vs %g, double %d vs %d, owners %d vs %d",
			got.Done, want.Done, got.CostSec, want.CostSec,
			got.DoubleDone, want.DoubleDone, len(got.Owners), len(want.Owners))
	}
	if got.Compacted == 0 {
		t.Error("replay does not report any compacted records")
	}
	// Appends here are serial, so every rotation's pass won the lock
	// and folded its segment: two active files and one checkpoint.
	if stats.Files > 3 {
		t.Errorf("compaction left %d files, want the active files plus one checkpoint", stats.Files)
	}
}

func testTornJournal(t *testing.T, env Env) {
	s := env.Store
	rec := journal.Record{Type: journal.TypeDone, Index: 0, Hash: spec(0).Hash(), WallSec: 1}
	if err := s.AppendJournal("victim", rec); err != nil {
		t.Fatalf("AppendJournal: %v", err)
	}
	recs, _, err := s.PollJournal()
	if err != nil {
		t.Fatalf("PollJournal: %v", err)
	}
	goodRecords := len(recs)

	// A SIGKILLed claimant leaves garbage: a newline-terminated
	// malformed line and a torn (unterminated) tail. Injected straight
	// into the backing journal file, behind every relay's back.
	path := journal.FilePath(env.JournalDir, "victim")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("opening backing journal for fault injection: %v", err)
	}
	if _, err := f.WriteString("not-json-at-all\n{\"v\":1,\"type\":\"do"); err != nil {
		t.Fatalf("injecting torn tail: %v", err)
	}
	f.Close()

	recs, stats, err := s.PollJournal()
	if err != nil {
		t.Fatalf("PollJournal over torn journal: %v", err)
	}
	if len(recs) != goodRecords {
		t.Errorf("torn lines changed the timeline: %d records, want %d", len(recs), goodRecords)
	}
	if stats.Malformed < 1 {
		t.Errorf("stats.Malformed = %d, want >= 1 (the garbage line)", stats.Malformed)
	}
	if stats.TruncatedTails < 1 {
		t.Errorf("stats.TruncatedTails = %d, want >= 1 (the torn tail)", stats.TruncatedTails)
	}
}

func testSnapshot(t *testing.T, env Env) {
	s := env.Store
	snap0, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if len(snap0.Cells) != 0 {
		t.Fatalf("empty store snapshot has %d cells", len(snap0.Cells))
	}
	want := map[string]float64{}
	for i := 0; i < 3; i++ {
		sp := spec(i)
		if err := s.StoreCell(result(sp)); err != nil {
			t.Fatalf("StoreCell: %v", err)
		}
		want[sp.Hash()] = result(sp).Wall.Seconds()
	}
	snap1, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if snap1.Rev <= snap0.Rev {
		t.Errorf("rev did not advance across stores: %d -> %d", snap0.Rev, snap1.Rev)
	}
	for h, wall := range want {
		e, ok := snap1.Cells[h]
		if !ok {
			t.Errorf("snapshot misses stored cell %s", h)
			continue
		}
		if e.WallSec != wall {
			t.Errorf("cell %s wall = %v, want %v", h, e.WallSec, wall)
		}
	}
	// Unchanged store, unchanged rev: pollers key memoization on it.
	snap2, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if snap2.Rev != snap1.Rev {
		t.Errorf("idle snapshot moved the rev: %d -> %d", snap1.Rev, snap2.Rev)
	}
	// The cost model folds the manifest, never the cell files.
	model, err := exp.LoadCostModel(s)
	if err != nil {
		t.Fatalf("LoadCostModel: %v", err)
	}
	if est, ok := model.Estimate(spec(0)); !ok || est <= 0 {
		t.Errorf("cost model estimate = %v/%v, want a positive estimate", est, ok)
	}
}

func testIdlePolls(t *testing.T, env Env) {
	s := env.Store
	for i := 0; i < 3; i++ {
		if err := s.StoreCell(result(spec(i))); err != nil {
			t.Fatalf("StoreCell: %v", err)
		}
	}
	if err := s.AppendJournal("w1", journal.Record{Type: journal.TypeDone, Hash: spec(0).Hash()}); err != nil {
		t.Fatalf("AppendJournal: %v", err)
	}
	// One warm-up round, then the counter must go flat: this is the
	// acceptance criterion that watch polls are O(changes), not O(cells).
	poll := func() {
		if _, err := s.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		if _, err := s.LeaseStatuses(); err != nil {
			t.Fatalf("LeaseStatuses: %v", err)
		}
		if _, _, err := s.PollJournal(); err != nil {
			t.Fatalf("PollJournal: %v", err)
		}
		if _, err := exp.LoadCostModel(s); err != nil {
			t.Fatalf("LoadCostModel: %v", err)
		}
	}
	poll()
	before := env.CellReads()
	for i := 0; i < 5; i++ {
		poll()
	}
	if after := env.CellReads(); after != before {
		t.Errorf("idle polls read %d cell files, want 0", after-before)
	}
}
