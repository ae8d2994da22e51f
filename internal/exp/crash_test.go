//go:build unix

package exp

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

// crashGrid is the grid shared by the parent test and the re-exec'd
// worker subprocess (both sides must expand identical specs).
func crashGrid() Grid {
	return Grid{
		Apps:       []string{"matmul-hyb"},
		Schedulers: []string{"bf", "dep"},
		SMPWorkers: []int{2},
		GPUs:       []int{1, 2},
		Noise:      []float64{0},
		Replicas:   2,
	} // 8 runs
}

const (
	crashWorkerEnv     = "EXP_CRASH_TEST_WORKER_DIR"
	stragglerWorkerEnv = "EXP_STRAGGLER_TEST_WORKER_DIR"
	stragglerPlanEnv   = "EXP_STRAGGLER_TEST_PLAN"
	journalWorkerEnv   = "EXP_JOURNAL_TEST_WORKER_DIR"
	journalOwnerEnv    = "EXP_JOURNAL_TEST_OWNER"
	journalRotateEnv   = "EXP_JOURNAL_TEST_ROTATE"
)

// TestMain re-execs the test binary as a claim worker when a subprocess
// test asks for one: a worker that can be SIGKILLed mid-cell (crash
// battery) or whose claim order must be observed from outside
// (straggler battery) has to be a real process, not a goroutine.
//
// Crash mode claims crashGrid cells with a deliberately slow runner so
// the parent reliably catches it inside a lease, heartbeating fast
// enough that its leases are never stale while it lives. Straggler mode
// runs one serial claim campaign under the planner named by the env and
// prints each lease claim to stdout for the parent to parse.
func TestMain(m *testing.M) {
	if dir := os.Getenv(crashWorkerEnv); dir != "" {
		cache, err := OpenDirStore(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		camp := &Campaign{
			Grid:     crashGrid(),
			Store:    cache,
			Parallel: 2,
			Claim: &ClaimOptions{
				Owner: "crash-worker",
				TTL:   time.Second,
			},
			run: func(s RunSpec) (RunResult, error) {
				time.Sleep(5 * time.Second) // far longer than the parent waits to kill
				return fakeRun(s)
			},
		}
		if _, _, err := camp.Execute(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if dir := os.Getenv(stragglerWorkerEnv); dir != "" {
		os.Exit(stragglerWorkerMain(dir, os.Getenv(stragglerPlanEnv)))
	}
	if dir := os.Getenv(journalWorkerEnv); dir != "" {
		os.Exit(journalWorkerMain(dir, os.Getenv(journalOwnerEnv)))
	}
	os.Exit(m.Run())
}

// journalWorkerMain is the journal crash battery's worker: a claim
// campaign over crashGrid with a JournalRecorder attached and a slow
// runner, so the parent can SIGKILL it while it demonstrably holds
// leases and has journaled claim/start records.
func journalWorkerMain(dir, owner string) int {
	cache, err := OpenDirStore(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if v := os.Getenv(journalRotateEnv); v != "" {
		// The rotation crash battery runs the worker with a tiny
		// threshold so a SIGKILL reliably lands with rotated segments
		// (and possibly a rotation) in flight.
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cache.SetJournalRotateBytes(n)
	}
	rec := NewJournalRecorder(cache, owner)
	defer rec.Close()
	camp := Campaign{
		Grid:     crashGrid(),
		Store:    cache,
		Parallel: 2,
		Observer: rec,
		Claim: &ClaimOptions{
			Owner: owner,
			TTL:   time.Second,
		},
		run: func(s RunSpec) (RunResult, error) {
			time.Sleep(5 * time.Second) // far longer than the parent waits to kill
			return fakeRun(s)
		},
	}
	if _, _, err := camp.Execute(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// TestCrashRecovery is the kill-a-worker-mid-cell battery: a worker
// subprocess claims cells of a shared cache and is SIGKILLed while
// simulating, leaving live leases behind with no owner. A second
// claimant must (1) observe the stale leases and reclaim them, (2)
// complete every cell exactly once — nothing lost, nothing
// double-counted in Simulated/CacheHits — and (3) produce output
// byte-identical to a cold single-process run.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and waits out lease TTLs")
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(), crashWorkerEnv+"="+dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	defer cmd.Wait()

	// Wait until the worker holds at least one lease — it is then inside
	// (or entering) a 5s simulated cell — and SIGKILL it: no deferred
	// releases, no cleanup, exactly what a crashed or OOM-killed campaign
	// worker leaves behind.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if leases, _ := globLeases(dir); len(leases) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never acquired a lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	cmd.Wait()

	cache, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	orphaned, err := globLeases(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(orphaned) == 0 {
		t.Fatal("dead worker left no leases to reclaim")
	}
	if n := len(listCells(t, dir)); n != 0 {
		// The worker's runner sleeps 5s per cell and it dies in the first
		// one, so nothing can have been stored yet.
		t.Fatalf("dead worker stored %d cells before its first could finish", n)
	}

	// The surviving claimant: short TTL so the dead worker's leases go
	// stale quickly, and a per-hash counter proving exactly-once.
	var (
		mu       sync.Mutex
		simCount = map[string]int{}
	)
	survivor := &Campaign{
		Grid:     crashGrid(),
		Store:    cache,
		Parallel: 2,
		Claim:    survivorClaim("survivor"),
		run: func(s RunSpec) (RunResult, error) {
			mu.Lock()
			simCount[s.Hash()]++
			mu.Unlock()
			return fakeRun(s)
		},
	}
	res, stats, err := survivor.Execute()
	if err != nil {
		t.Fatal(err)
	}

	// (1) The stale leases were reclaimed, not waited out forever.
	if stats.Reclaimed == 0 {
		t.Errorf("survivor reclaimed no stale leases (orphaned: %v)", orphaned)
	}
	// (2) Every cell completed exactly once, and the counters agree:
	// nothing the dead worker touched is lost or double-counted.
	specs := crashGrid().Runs()
	mu.Lock()
	for _, s := range specs {
		if n := simCount[s.Hash()]; n != 1 {
			t.Errorf("cell %v simulated %d times by the survivor, want 1", s, n)
		}
	}
	mu.Unlock()
	if stats.Simulated+stats.Hits != len(specs) || stats.Simulated != len(specs) {
		t.Errorf("survivor stats: %v, want simulated=%d hits=0", stats, len(specs))
	}
	if res.Simulated != stats.Simulated || res.CacheHits != stats.Hits {
		t.Errorf("result counters (simulated=%d hits=%d) disagree with stats %v",
			res.Simulated, res.CacheHits, stats)
	}
	if leases, _ := globLeases(dir); len(leases) != 0 {
		t.Errorf("leases left after recovery: %v", leases)
	}
	// A warm verification pass: all hits, no re-simulation, no leases.
	warm, warmStats, err := (&Campaign{Grid: crashGrid(), Store: cache, Claim: &ClaimOptions{}, run: func(s RunSpec) (RunResult, error) {
		t.Errorf("warm claim re-simulated %v", s)
		return fakeRun(s)
	}}).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Simulated != 0 || warmStats.Hits != len(specs) {
		t.Errorf("warm stats: %v, want simulated=0 hits=%d", warmStats, len(specs))
	}

	// (3) Byte-identical merge: recovered and warm CSVs equal a cold
	// single-process, cacheless run.
	cold, err := runCampaign(crashGrid(), nil, 1, fakeRun)
	if err != nil {
		t.Fatal(err)
	}
	want := renderCSV(t, cold)
	if got := renderCSV(t, res); got != want {
		t.Errorf("recovered CSV differs from cold run:\n%s\nvs\n%s", got, want)
	}
	if got := renderCSV(t, warm); got != want {
		t.Errorf("warm CSV differs from cold run:\n%s\nvs\n%s", got, want)
	}
}

// survivorClaim is the claim configuration of the crash batteries'
// surviving claimants: a short TTL so the dead worker's leases go stale
// quickly.
func survivorClaim(owner string) *ClaimOptions {
	return &ClaimOptions{
		Owner: owner,
		TTL:   400 * time.Millisecond,
	}
}

func globLeases(dir string) ([]string, error) {
	return filepath.Glob(filepath.Join(dir, "*.lease"))
}

func listCells(t *testing.T, dir string) []string {
	t.Helper()
	cells, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// TestCrashRecoveryConcurrentSurvivors kills a worker and lets several
// survivors race for the orphaned cells: the stale-lease break must
// grant each abandoned cell to exactly one of them (the rename-tombstone
// protocol), and the fleet must finish the grid.
func TestCrashRecoveryConcurrentSurvivors(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and waits out lease TTLs")
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(), crashWorkerEnv+"="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	defer cmd.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if leases, _ := globLeases(dir); len(leases) >= 2 {
			break // the worker runs Parallel=2: wait for both claims
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never acquired two leases")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()

	cache, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		simCount = map[string]int{}
	)
	const survivors = 3
	var wg sync.WaitGroup
	totals := make([]ClaimStats, survivors)
	for i := 0; i < survivors; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			survivor := &Campaign{
				Grid:     crashGrid(),
				Store:    cache,
				Parallel: 2,
				Claim:    survivorClaim("survivor-" + strconv.Itoa(i)),
				run: func(s RunSpec) (RunResult, error) {
					mu.Lock()
					simCount[s.Hash()]++
					mu.Unlock()
					time.Sleep(time.Millisecond)
					return fakeRun(s)
				},
			}
			_, stats, err := survivor.Execute()
			if err != nil {
				t.Errorf("survivor %d: %v", i, err)
			}
			totals[i] = stats
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	specs := crashGrid().Runs()
	mu.Lock()
	for _, s := range specs {
		if n := simCount[s.Hash()]; n != 1 {
			t.Errorf("cell %v simulated %d times across survivors, want 1", s, n)
		}
	}
	mu.Unlock()
	reclaimed := 0
	for _, s := range totals {
		reclaimed += s.Reclaimed
	}
	if reclaimed == 0 {
		t.Error("no survivor reclaimed the dead worker's leases")
	}
	if leases, _ := globLeases(dir); len(leases) != 0 {
		t.Errorf("leases left after recovery: %v", leases)
	}
}
