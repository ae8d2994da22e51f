package exp

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// assertNoLeases fails the test if any lease file survives in the store.
func assertNoLeases(t *testing.T, s *DirStore) {
	t.Helper()
	leases, err := s.LeaseStatuses()
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 0 {
		t.Errorf("leases left behind: %+v", leases)
	}
}

func TestDispatchSoloClaim(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := smallGrid(1, 2) // 8 runs
	camp := &Campaign{Grid: g, Store: cache, Parallel: 3, Claim: &ClaimOptions{}, run: fakeRun}
	res, stats, err := camp.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 8 || stats.Simulated != 8 || stats.Hits != 0 || stats.Claimed != 8 || stats.Reclaimed != 0 {
		t.Fatalf("cold claim stats: %v", stats)
	}
	if res.Simulated != 8 || res.CacheHits != 0 {
		t.Fatalf("cold claim result counters: simulated=%d hits=%d", res.Simulated, res.CacheHits)
	}
	assertNoLeases(t, cache)

	// The claim result renders byte-identically to a plain -parallel 1
	// sweep of the same grid.
	plain, err := runCampaign(g, nil, 1, fakeRun)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderCSV(t, res), renderCSV(t, plain); got != want {
		t.Errorf("claim CSV differs from sweep CSV:\n%s\nvs\n%s", got, want)
	}

	// A second claimant over the warm cache simulates nothing.
	var called bool
	warm := &Campaign{Grid: g, Store: cache, Claim: &ClaimOptions{}, run: func(s RunSpec) (RunResult, error) {
		called = true
		return fakeRun(s)
	}}
	res2, stats2, err := warm.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if called || stats2.Simulated != 0 || stats2.Hits != 8 || stats2.Claimed != 0 {
		t.Fatalf("warm claim stats: %v (ran=%t)", stats2, called)
	}
	if got, want := renderCSV(t, res2), renderCSV(t, plain); got != want {
		t.Errorf("warm claim CSV differs from sweep CSV:\n%s\nvs\n%s", got, want)
	}
}

// TestDispatchConcurrentClaimants is the exactly-once acceptance test:
// N claimants (each with its own worker pool) race over one cache
// directory, and every cell must be simulated by exactly one of them —
// no cell lost, none simulated twice — while all N converge on results
// that render byte-identically to a cold serial sweep. Run under -race
// this also proves the dispatch loop shares no unsynchronized state.
func TestDispatchConcurrentClaimants(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{
		Apps:       []string{"matmul-hyb"},
		Schedulers: []string{"bf", "dep"},
		SMPWorkers: []int{1, 2},
		GPUs:       []int{1, 2},
		Noise:      []float64{0},
		Replicas:   3,
	} // 24 runs
	var (
		mu       sync.Mutex
		simCount = map[string]int{} // spec hash -> times simulated
	)
	counting := func(s RunSpec) (RunResult, error) {
		mu.Lock()
		simCount[s.Hash()]++
		mu.Unlock()
		time.Sleep(time.Millisecond) // widen the claim races
		return fakeRun(s)
	}

	const claimants = 4
	results := make([]*SweepResult, claimants)
	allStats := make([]ClaimStats, claimants)
	var wg sync.WaitGroup
	for i := 0; i < claimants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			camp := &Campaign{
				Grid:     g,
				Store:    cache,
				Parallel: 2,
				Claim: &ClaimOptions{
					Owner: fmt.Sprintf("claimant-%d", i),
				},
				run: counting,
			}
			res, stats, err := camp.Execute()
			if err != nil {
				t.Errorf("claimant %d: %v", i, err)
				return
			}
			results[i], allStats[i] = res, stats
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	specs := g.Runs()
	mu.Lock()
	defer mu.Unlock()
	for _, s := range specs {
		if n := simCount[s.Hash()]; n != 1 {
			t.Errorf("cell %v simulated %d times, want exactly once", s, n)
		}
	}
	if len(simCount) != len(specs) {
		t.Errorf("simulated %d distinct cells, want %d", len(simCount), len(specs))
	}
	totalSim, totalHits := 0, 0
	for i, s := range allStats {
		if s.Simulated+s.Hits != len(specs) {
			t.Errorf("claimant %d: simulated=%d + hits=%d != runs=%d", i, s.Simulated, s.Hits, len(specs))
		}
		totalSim += s.Simulated
		totalHits += s.Hits
	}
	if totalSim != len(specs) {
		t.Errorf("fleet simulated %d runs in total, want %d", totalSim, len(specs))
	}
	if totalHits != (claimants-1)*len(specs) {
		t.Errorf("fleet hits = %d, want %d", totalHits, (claimants-1)*len(specs))
	}
	assertNoLeases(t, cache)

	cold, err := runCampaign(g, nil, 1, fakeRun)
	if err != nil {
		t.Fatal(err)
	}
	want := renderCSV(t, cold)
	for i, res := range results {
		if got := renderCSV(t, res); got != want {
			t.Errorf("claimant %d CSV differs from cold serial sweep:\n%s\nvs\n%s", i, got, want)
		}
	}
}

// TestDispatchRealSimulation: claim mode on real simulations must render
// byte-identically to a pool-mode campaign, hits included.
func TestDispatchRealSimulation(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{
		Apps:       []string{"matmul-hyb"},
		Schedulers: []string{"bf", "versioning"},
		SMPWorkers: []int{2},
		GPUs:       []int{1},
		Noise:      []float64{0.05},
		Replicas:   2,
	} // 4 real runs
	res, stats, err := (&Campaign{Grid: g, Store: cache, Parallel: 2, Claim: &ClaimOptions{}}).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Simulated != 4 || stats.Hits != 0 {
		t.Fatalf("claim stats: %v", stats)
	}
	cold, err := runCampaign(g, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderCSV(t, res), renderCSV(t, cold); got != want {
		t.Errorf("claim CSV differs from sweep CSV:\n%s\nvs\n%s", got, want)
	}
}

func TestDispatchErrors(t *testing.T) {
	if _, _, err := (&Campaign{Claim: &ClaimOptions{}, run: fakeRun}).Execute(); err == nil {
		t.Error("claim campaign without a store did not error")
	}
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	invalid := &Campaign{Grid: Grid{Apps: []string{"no-such-app"}}, Store: cache, Claim: &ClaimOptions{}, run: fakeRun}
	if _, _, err := invalid.Execute(); err == nil {
		t.Error("claim campaign over an invalid grid did not error")
	}
	// A failing run surfaces as the campaign error, and its lease is
	// released so peers are not blocked until the TTL.
	boom := fmt.Errorf("boom")
	failing := &Campaign{Grid: smallGrid(1), Store: cache, Parallel: 2, Claim: &ClaimOptions{}, run: func(s RunSpec) (RunResult, error) {
		return RunResult{}, boom
	}}
	if _, _, err := failing.Execute(); err == nil {
		t.Error("claim campaign did not surface the run error")
	}
	assertNoLeases(t, cache)
}
