package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

func smallGrid(gpus ...int) Grid {
	return Grid{
		Apps:       []string{"matmul-hyb"},
		Schedulers: []string{"bf", "dep"},
		SMPWorkers: []int{2},
		GPUs:       gpus,
		Noise:      []float64{0},
		Replicas:   2,
	}
}

func renderCSV(t *testing.T, res *SweepResult) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestCacheRoundTrip(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{App: "matmul-hyb", Scheduler: "bf", SMPWorkers: 2, GPUs: 1, Seed: 5}
	spec.fillDefaults()
	if _, ok := cache.LoadCell(spec, spec.Hash()); ok {
		t.Fatal("Load hit on an empty cache")
	}
	rr, err := fakeRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	rr.Result.VersionCounts = map[string]map[string]int{"mul": {"mul_gpu": 3, "mul_smp": 1}}
	if err := cache.StoreCell(rr); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.LoadCell(spec, spec.Hash())
	if !ok {
		t.Fatal("Load missed a stored spec")
	}
	if !got.Cached {
		t.Error("loaded result not marked Cached")
	}
	if got.Result.Elapsed != rr.Result.Elapsed || got.Result.GFlops != rr.Result.GFlops ||
		got.Result.Tasks != rr.Result.Tasks || got.Result.InputTxBytes != rr.Result.InputTxBytes {
		t.Errorf("round trip changed the result: %+v vs %+v", got.Result, rr.Result)
	}
	if got.Result.VersionCounts["mul"]["mul_gpu"] != 3 {
		t.Errorf("version counts lost in round trip: %v", got.Result.VersionCounts)
	}
	// A different seed is a different cell.
	other := spec
	other.Seed = 6
	if _, ok := cache.LoadCell(other, other.Hash()); ok {
		t.Error("Load hit for a spec that was never stored")
	}
}

// TestCacheCorruption: truncated, garbage, version-skewed and
// hash-mismatched cell files must all read as misses, and a sweep over
// them must re-simulate and atomically repair the file.
func TestCacheCorruption(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := smallGrid(1) // 4 runs
	if _, err := runCampaign(g, cache, 2, fakeRun); err != nil {
		t.Fatal(err)
	}
	specs := g.Runs()

	corrupt := []struct {
		name    string
		spec    RunSpec
		breakIt func(path string)
	}{
		{"truncated", specs[0], func(path string) {
			data, _ := os.ReadFile(path)
			os.WriteFile(path, data[:len(data)/3], 0o644)
		}},
		{"garbage", specs[1], func(path string) {
			os.WriteFile(path, []byte("not json at all"), 0o644)
		}},
		{"version-skew", specs[2], func(path string) {
			data, _ := os.ReadFile(path)
			os.WriteFile(path, bytes.Replace(data, []byte(`"format": 1`), []byte(`"format": 999`), 1), 0o644)
		}},
		// specs[0] has seed 1: rewriting it to 77 keeps the JSON valid
		// but the stored spec no longer hashes to the filename.
		{"hash-mismatch", specs[0], func(path string) {
			data, _ := os.ReadFile(path)
			os.WriteFile(path, bytes.Replace(data, []byte(`"seed": 1`), []byte(`"seed": 77`), 1), 0o644)
		}},
	}
	for _, tc := range corrupt {
		name, spec, breakIt := tc.name, tc.spec, tc.breakIt
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, spec.Hash()+".json")
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("expected cell file: %v", err)
			}
			breakIt(path)
			if _, ok := cache.LoadCell(spec, spec.Hash()); ok {
				t.Fatal("corrupted cell read as a hit")
			}
			// The sweep falls back to simulation and repairs the file.
			var ran int32
			counting := func(s RunSpec) (RunResult, error) {
				atomic.AddInt32(&ran, 1)
				return fakeRun(s)
			}
			if _, err := runCampaign(g, cache, 2, counting); err != nil {
				t.Fatal(err)
			}
			if n := atomic.LoadInt32(&ran); n != 1 {
				t.Errorf("re-simulated %d runs, want exactly the corrupted one", n)
			}
			if _, ok := cache.LoadCell(spec, spec.Hash()); !ok {
				t.Error("cell not repaired after re-simulation")
			}
		})
	}
}

// TestSweepResume is the resumable-campaign acceptance test: a grown
// grid re-run only simulates the new cells, a warm identical re-run
// simulates nothing, and the merged output is byte-identical to a cold
// full run at a different parallelism.
func TestSweepResume(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ran int32
	counting := func(s RunSpec) (RunResult, error) {
		atomic.AddInt32(&ran, 1)
		return fakeRun(s)
	}

	// Campaign 1: 4 runs, all simulated.
	res, err := runCampaign(smallGrid(1), cache, 2, counting)
	if err != nil {
		t.Fatal(err)
	}
	if res.Simulated != 4 || res.CacheHits != 0 || atomic.LoadInt32(&ran) != 4 {
		t.Fatalf("cold campaign: simulated=%d hits=%d ran=%d", res.Simulated, res.CacheHits, ran)
	}

	// Campaign 2: grid grown along the GPU axis (8 runs). Only the 4 new
	// cells simulate.
	atomic.StoreInt32(&ran, 0)
	grown, err := runCampaign(smallGrid(1, 2), cache, 3, counting)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Simulated != 4 || grown.CacheHits != 4 || atomic.LoadInt32(&ran) != 4 {
		t.Fatalf("grown campaign: simulated=%d hits=%d ran=%d", grown.Simulated, grown.CacheHits, ran)
	}

	// Campaign 3: identical warm re-run simulates nothing.
	atomic.StoreInt32(&ran, 0)
	warm, err := runCampaign(smallGrid(1, 2), cache, 1, counting)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulated != 0 || warm.CacheHits != 8 || atomic.LoadInt32(&ran) != 0 {
		t.Fatalf("warm campaign: simulated=%d hits=%d ran=%d", warm.Simulated, warm.CacheHits, ran)
	}

	// Byte-identity: cold (no cache), merged, and warm outputs agree.
	cold, err := runCampaign(smallGrid(1, 2), nil, 4, fakeRun)
	if err != nil {
		t.Fatal(err)
	}
	coldCSV := renderCSV(t, cold)
	if got := renderCSV(t, grown); got != coldCSV {
		t.Errorf("merged CSV differs from cold CSV:\n%s\nvs\n%s", got, coldCSV)
	}
	if got := renderCSV(t, warm); got != coldCSV {
		t.Errorf("warm CSV differs from cold CSV:\n%s\nvs\n%s", got, coldCSV)
	}
}

// TestSweepResumeRealSimulation is TestSweepResume's end-to-end twin on
// real simulations: cached results must reproduce fresh ompss.Result
// values bit for bit (float64 and duration JSON round-trip), so warm CSV
// equals cold CSV at any parallelism.
func TestSweepResumeRealSimulation(t *testing.T) {
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
	cold, err := runCampaign(g, cache, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Simulated != 4 {
		t.Fatalf("cold: simulated=%d", cold.Simulated)
	}
	warm, err := runCampaign(g, cache, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulated != 0 || warm.CacheHits != 4 {
		t.Fatalf("warm: simulated=%d hits=%d", warm.Simulated, warm.CacheHits)
	}
	coldCSV, warmCSV := renderCSV(t, cold), renderCSV(t, warm)
	if coldCSV != warmCSV {
		t.Errorf("cached CSV not byte-identical to fresh CSV:\n%s\nvs\n%s", warmCSV, coldCSV)
	}
	var coldJSON, warmJSON bytes.Buffer
	if err := WriteJSON(&coldJSON, cold); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&warmJSON, warm); err != nil {
		t.Fatal(err)
	}
	if coldJSON.String() != warmJSON.String() {
		t.Error("cached JSON not byte-identical to fresh JSON")
	}
}

func TestOpenDirStoreErrors(t *testing.T) {
	if _, err := OpenDirStore(""); err == nil {
		t.Error("OpenDirStore(\"\") did not error")
	}
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDirStore(filepath.Join(file, "sub")); err == nil {
		t.Error("OpenDirStore under a regular file did not error")
	}
}

// TestSnapshotFollowsManifestReset: a manifest.jsonl that is deleted or
// truncated was reset wholesale, so the next Snapshot moves Rev and
// empties the view rather than serving the one the old file held; an
// idle Snapshot afterwards does not move Rev again.
func TestSnapshotFollowsManifestReset(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reset func(path string) error
	}{
		{"deleted", os.Remove},
		{"truncated", func(path string) error { return os.Truncate(path, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache, err := OpenDirStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			spec := RunSpec{App: "matmul-hyb", Scheduler: "bf", SMPWorkers: 2, GPUs: 1, Seed: 5}
			spec.fillDefaults()
			rr, err := fakeRun(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := cache.StoreCell(rr); err != nil {
				t.Fatal(err)
			}
			before, err := cache.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if len(before.Cells) != 1 {
				t.Fatalf("snapshot holds %d cells, want 1", len(before.Cells))
			}
			rev := before.Rev
			if err := tc.reset(filepath.Join(cache.Dir(), manifestName)); err != nil {
				t.Fatal(err)
			}
			after, err := cache.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if after.Rev == rev || len(after.Cells) != 0 {
				t.Errorf("snapshot after the reset: rev %d → %d with %d cells, want a new rev and no cells",
					rev, after.Rev, len(after.Cells))
			}
			idle, err := cache.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if idle.Rev != after.Rev {
				t.Errorf("idle snapshot moved rev %d → %d", after.Rev, idle.Rev)
			}
		})
	}
}
