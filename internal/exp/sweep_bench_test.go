package exp

import (
	"testing"
	"time"
)

// benchGrid is the acceptance campaign shape: 2 apps x 4 schedulers x
// 2 machine shapes x 3 replicas = 48 cells' worth of runs.
func benchGrid() Grid {
	return Grid{
		Apps:       []string{"matmul-hyb", "cholesky-potrf-hyb"},
		Schedulers: []string{"bf", "dep", "affinity", "versioning"},
		SMPWorkers: []int{2},
		GPUs:       []int{1, 2},
		Noise:      []float64{0.05},
		Size:       SizeTiny,
		Replicas:   3,
	}
}

// BenchmarkSweepParallel1/4 sweep the 48-run acceptance grid with real
// simulations. On a multi-core machine the 4-worker variant is ~4x
// faster (runs share no state); on a 1-core container both are flat,
// which doubles as a pool-overhead check.
func benchmarkSweepReal(b *testing.B, parallel int) {
	g := benchGrid()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := runCampaign(g, nil, parallel, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Runs) != 48 {
			b.Fatalf("ran %d, want 48", len(res.Runs))
		}
	}
}

func BenchmarkSweepParallel1(b *testing.B) { benchmarkSweepReal(b, 1) }
func BenchmarkSweepParallel4(b *testing.B) { benchmarkSweepReal(b, 4) }

// benchmarkSweepLatency uses a fixed-latency stub runner, isolating the
// worker pool's overlap from CPU contention: even on one core, 4 workers
// must finish ~4x sooner than 1.
func benchmarkSweepLatency(b *testing.B, parallel int) {
	stub := func(spec RunSpec) (RunResult, error) {
		time.Sleep(5 * time.Millisecond)
		return fakeRun(spec)
	}
	g := benchGrid()
	for i := 0; i < b.N; i++ {
		if _, err := runCampaign(g, nil, parallel, stub); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepLatencyParallel1(b *testing.B) { benchmarkSweepLatency(b, 1) }
func BenchmarkSweepLatencyParallel4(b *testing.B) { benchmarkSweepLatency(b, 4) }

// TestSweepOverlapSpeedup pins the acceptance property down as a test:
// with a 5ms-latency runner over the 48-run grid, 4 workers must beat 1
// worker by at least 2x. Sleeps are a hard lower bound for the serial
// sweep (>= 240ms) and the parallel sweep has 4x the overlap, so the
// 2x margin holds even on slow, loaded, single-core CI machines.
func TestSweepOverlapSpeedup(t *testing.T) {
	stub := func(spec RunSpec) (RunResult, error) {
		time.Sleep(5 * time.Millisecond)
		return fakeRun(spec)
	}
	g := benchGrid()
	wall := func(parallel int) time.Duration {
		start := time.Now()
		if _, err := runCampaign(g, nil, parallel, stub); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	serial := wall(1)
	quad := wall(4)
	if quad*2 >= serial {
		t.Errorf("4 workers not >=2x faster than 1: serial %v, parallel-4 %v", serial, quad)
	}
	t.Logf("48-run grid: -parallel 1 %v, -parallel 4 %v (%.1fx)",
		serial, quad, float64(serial)/float64(quad))
}

// BenchmarkWarmCampaignDir re-reads a filled 96-cell DirStore (the
// default sweep grid, three replicas) at Parallel 2: the warm resume
// path over a local store, which simulates nothing and reads every
// cell once. ns/op and allocs/op are per campaign. Not gated.
func BenchmarkWarmCampaignDir(b *testing.B) {
	store, err := OpenDirStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	c := Campaign{Grid: Grid{Replicas: 3}, Store: store, Parallel: 2}
	if _, _, err := c.Execute(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, stats, err := c.Execute()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Runs) != 96 || stats.Simulated != 0 {
			b.Fatalf("warm campaign ran %d cells and simulated %d, want 96 and 0", len(res.Runs), stats.Simulated)
		}
	}
}
