package exp

import (
	"reflect"
	"testing"
)

// clearHorizons empties the process-wide horizon table, so the next
// faulted run pre-runs its baseline.
func clearHorizons() {
	horizons.mu.Lock()
	defer horizons.mu.Unlock()
	clear(horizons.m)
}

// TestHorizonTableMatchesPreRun pins the table's contract: a faulted
// cell armed from the table runs exactly as one armed by a pre-run,
// and only the cell's own base spec counts as a hit. The neighbours
// each differ from that base in one field, so a table key that drops
// a field hands the cell a neighbour's horizon and fails here.
func TestHorizonTableMatchesPreRun(t *testing.T) {
	spec := RunSpec{
		App: "pbpi-hyb", Size: SizeTiny, Scheduler: "versioning",
		SMPWorkers: 2, GPUs: 2, NoiseSigma: 0.05, Seed: 3, Chaos: "gpu0:drop@40%",
	}
	base := spec
	base.Chaos = ""
	var neighbours []RunSpec
	for _, vary := range []func(*RunSpec){
		func(s *RunSpec) { s.Seed++ },
		func(s *RunSpec) { s.NoiseSigma = 0.1 },
		func(s *RunSpec) { s.SMPWorkers = 3 },
		func(s *RunSpec) { s.Scheduler = "dep" },
		func(s *RunSpec) { s.Lambda = 5 },
	} {
		n := base
		vary(&n)
		neighbours = append(neighbours, n)
	}
	faulted := func(wantPreRun bool) (RunResult, string) {
		t.Helper()
		rr, tr, err := RunTraced(spec)
		if err != nil {
			t.Fatal(err)
		}
		if rr.PreRun != wantPreRun {
			t.Errorf("PreRun = %v, want %v", rr.PreRun, wantPreRun)
		}
		return rr, TraceString(tr)
	}
	warm := func(specs ...RunSpec) {
		t.Helper()
		for _, s := range specs {
			if _, err := Run(s); err != nil {
				t.Fatal(err)
			}
		}
	}

	clearHorizons()
	cold, coldTrace := faulted(true)
	if cold.FaultsInjected == 0 {
		t.Fatal("the dropout never fired")
	}
	for _, c := range []struct {
		name       string
		fill       []RunSpec
		wantPreRun bool
	}{
		{"neighbours only", neighbours, true},
		{"own base", []RunSpec{base}, false},
		{"own base, then neighbours", append([]RunSpec{base}, neighbours...), false},
	} {
		clearHorizons()
		warm(c.fill...)
		got, trace := faulted(c.wantPreRun)
		if !reflect.DeepEqual(got.Result, cold.Result) {
			t.Errorf("%s: result differs from the cold run:\n%+v\nvs\n%+v", c.name, got.Result, cold.Result)
		}
		if trace != coldTrace {
			t.Errorf("%s: trace differs from the cold run:\n%s", c.name, firstDiff(trace, coldTrace))
		}
	}
	// The cold run's own pre-run warms the table for its re-run.
	clearHorizons()
	faulted(true)
	faulted(false)
}

// TestHorizonTableCap: a full table is cleared rather than grown.
func TestHorizonTableCap(t *testing.T) {
	defer clearHorizons()
	clearHorizons()
	for i := 0; i < horizonCap; i++ {
		horizons.put(RunSpec{Seed: int64(i)}, 1)
	}
	horizons.put(RunSpec{Seed: horizonCap}, 2)
	if n := len(horizons.m); n != 1 {
		t.Fatalf("table holds %d entries after overflowing, want 1", n)
	}
	if d, ok := horizons.get(RunSpec{Seed: horizonCap}); !ok || d != 2 {
		t.Fatalf("get after overflow = %v, %v; want 2, true", d, ok)
	}
	horizons.put(RunSpec{Seed: horizonCap}, 3) // an update never clears
	if n := len(horizons.m); n != 1 {
		t.Fatalf("table holds %d entries after an update, want 1", n)
	}
}
