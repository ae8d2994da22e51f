package exp

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/ompss"
)

// chaosGrid is a small real-simulation grid with a chaos axis: clean,
// a mid-run permanent GPU dropout, and a throttle curve. Versioning
// with two GPUs so the permanent drop always leaves a capable
// survivor.
func chaosGrid() Grid {
	return Grid{
		Apps:       []string{"pbpi-hyb"},
		Schedulers: []string{"versioning"},
		SMPWorkers: []int{2},
		GPUs:       []int{2},
		Chaos:      []string{"", "gpu0:drop@40%", "gpu0:throttle@60%x0.5"},
		Noise:      []float64{0.05},
		Size:       SizeTiny,
		Replicas:   1,
	}
}

// TestChaosCampaignDeterminism is the in-process half of the CI chaos
// gate: a faulted campaign renders byte-identically at any parallelism,
// from a cold or a warm horizon table, and the dropout cell actually
// re-queued work. Serially, every faulted cell's "none" sibling runs
// first, so no cell pre-runs its baseline.
func TestChaosCampaignDeterminism(t *testing.T) {
	render := func(parallel int, cold bool) (string, *SweepResult) {
		if cold {
			clearHorizons()
		}
		res, err := runCampaign(chaosGrid(), nil, parallel, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.String(), res
	}
	serial, res := render(1, true)
	if res.PreRuns != 0 {
		t.Errorf("serial campaign pre-ran %d baselines, want 0 (each sibling precedes its faulted cell)", res.PreRuns)
	}
	for _, c := range []struct {
		parallel int
		cold     bool
	}{{4, true}, {4, false}} {
		if got, _ := render(c.parallel, c.cold); got != serial {
			t.Errorf("chaos CSV at -parallel %d (cold table %v) differs from -parallel 1:\n%s\nvs\n%s",
				c.parallel, c.cold, got, serial)
		}
	}
	if res.Requeued == 0 {
		t.Error("campaign with a permanent GPU dropout re-queued no tasks")
	}
	var faulted int
	for _, c := range res.Cells {
		if c.Chaos != "" && c.Requeued.Mean > 0 {
			faulted++
		}
	}
	if faulted == 0 {
		t.Errorf("no faulted cell reports a re-queue mean: %+v", res.Cells)
	}
}

// TestChaosFaultEventContract pins the CellFaultInjected delivery
// rules: a freshly simulated cell whose plan fired delivers exactly
// one event immediately before its CellDone, and a warm re-run over
// the same cache delivers none (cache hits never re-announce faults —
// the journal already holds the history).
func TestChaosFaultEventContract(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingObserver{}
	camp := Campaign{Grid: chaosGrid(), Store: cache, Parallel: 2, Observer: rec}
	if _, _, err := camp.Execute(); err != nil {
		t.Fatal(err)
	}
	faults := map[int]int{}
	pending := map[int]bool{}
	for _, ev := range rec.log() {
		switch ev := ev.(type) {
		case CellFaultInjected:
			faults[ev.Index]++
			pending[ev.Index] = true
			if ev.Chaos == "" || ev.Faults == 0 {
				t.Errorf("cell %d: fault event without a chaos spec or fault count: %+v", ev.Index, ev)
			}
		case CellDone:
			delete(pending, ev.Index)
		}
	}
	if len(faults) == 0 {
		t.Fatal("no CellFaultInjected delivered for a grid with a dropout axis")
	}
	for idx, n := range faults {
		if n != 1 {
			t.Errorf("cell %d: %d fault events, want exactly 1", idx, n)
		}
	}
	for idx := range pending {
		t.Errorf("cell %d: CellFaultInjected with no following CellDone", idx)
	}

	warm := &recordingObserver{}
	camp2 := Campaign{Grid: chaosGrid(), Store: cache, Parallel: 2, Observer: warm}
	if _, stats, err := camp2.Execute(); err != nil {
		t.Fatal(err)
	} else if stats.Simulated != 0 {
		t.Fatalf("warm re-run simulated %d cells", stats.Simulated)
	}
	for _, ev := range warm.log() {
		if f, ok := ev.(CellFaultInjected); ok {
			t.Errorf("cache hit delivered CellFaultInjected: %+v", f)
		}
	}
}

// TestStrandedRunFailsLoud: dropping the only GPU strands matmul-hyb's
// GPU-only tile tasks in bf's central queue. The run must fail with a
// typed error naming the stranded task type and the down device, not
// the engine's generic deadlock panic.
func TestStrandedRunFailsLoud(t *testing.T) {
	spec := RunSpec{App: "matmul-hyb", Size: SizeFull, Scheduler: "bf", SMPWorkers: 2, GPUs: 1, Chaos: "gpu0:drop@30%"}
	_, err := Run(spec)
	var se *ompss.StrandedError
	if !errors.As(err, &se) {
		t.Fatalf("Run(%v) = %v, want a StrandedError", spec, err)
	}
	if !slices.Equal(se.Types, []string{"matmul_tile"}) || !slices.Equal(se.Down, []string{"gpu-0"}) {
		t.Errorf("stranded types %v, down %v; want [matmul_tile], [gpu-0]", se.Types, se.Down)
	}
}
