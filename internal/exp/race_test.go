package exp

import (
	"sync"
	"testing"
)

// TestConcurrentSweeps runs two full sweeps at once, each with its own
// worker pool. Under
// `go test -race` this proves that concurrent simulation runs share no
// mutable state: every sim.Engine, runtime, scheduler and coherence
// directory is private to its run.
func TestConcurrentSweeps(t *testing.T) {
	grid := Grid{
		Apps:       []string{"matmul-hyb", "randdag"},
		Schedulers: []string{"dep", "versioning"},
		SMPWorkers: []int{2},
		GPUs:       []int{1},
		Noise:      []float64{0.05},
		Size:       SizeTiny,
		Replicas:   2,
	}

	var wg sync.WaitGroup
	results := make([]*SweepResult, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := runCampaign(grid, nil, 4, nil)
			if err != nil {
				t.Errorf("sweep %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	if t.Failed() || results[0] == nil || results[1] == nil {
		return
	}
	// The two independent sweeps of the same grid must agree exactly.
	for i := range results[0].Runs {
		a, b := results[0].Runs[i], results[1].Runs[i]
		if a.Spec != b.Spec || a.Elapsed != b.Elapsed || a.Tasks != b.Tasks {
			t.Errorf("concurrent sweeps diverged at run %d: %+v vs %+v", i, a.Result, b.Result)
		}
	}
}
