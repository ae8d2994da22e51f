package exp

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestUntracedRunMatchesTraced pins trace on demand: Run keeps no trace,
// yet its Result must equal RunTraced's in every field, and the task and
// per-version counts the runtime keeps must equal the ones the trace
// records. Every registered app runs under each default scheduler, with
// and without a GPU dropout, at tiny size.
func TestUntracedRunMatchesTraced(t *testing.T) {
	for _, app := range AppNames() {
		for _, sched := range DefaultSchedulers() {
			for _, chaos := range []string{"", "gpu1:drop@40%+recover@70%"} {
				spec := RunSpec{
					App: app, Size: SizeTiny, Scheduler: sched,
					SMPWorkers: 2, GPUs: 2, NoiseSigma: 0.05, Seed: 7, Chaos: chaos,
				}
				untraced, uerr := Run(spec)
				traced, tr, terr := RunTraced(spec)
				if (uerr != nil) != (terr != nil) {
					t.Fatalf("%v: Run err %v, RunTraced err %v", spec, uerr, terr)
				}
				if uerr != nil {
					t.Logf("%v: skipped, the app cannot run this shape: %v", spec, uerr)
					continue
				}
				if !reflect.DeepEqual(untraced.Result, traced.Result) {
					t.Errorf("%v: untraced result\n%+v\ndiffers from traced\n%+v", spec, untraced.Result, traced.Result)
				}
				if tr == nil {
					t.Fatalf("%v: RunTraced returned no tracer", spec)
				}
				if len(tr.Tasks) != untraced.Tasks {
					t.Errorf("%v: trace has %d tasks, counter %d", spec, len(tr.Tasks), untraced.Tasks)
				}
				if vc := tr.VersionCounts(); !reflect.DeepEqual(vc, untraced.VersionCounts) {
					t.Errorf("%v: trace version counts %v, counters %v", spec, vc, untraced.VersionCounts)
				}
			}
		}
	}
}

// TestSinkCampaignStillTraces: only a campaign with a Sink traces, and
// it still hands every simulated cell's trace to the sink, while its
// results equal a sinkless (untraced) campaign's.
func TestSinkCampaignStillTraces(t *testing.T) {
	g := Grid{
		Apps:       []string{"matmul-hyb", "pbpi-hyb"},
		Schedulers: []string{"dep", "versioning"},
		SMPWorkers: []int{2},
		GPUs:       []int{2},
		Chaos:      []string{"", "gpu1:drop@40%+recover@70%"},
		Size:       SizeTiny,
	}
	dir := t.TempDir()
	sink, err := NewTraceDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	withSink, stats, err := (&Campaign{Grid: g, Parallel: 2, Sink: sink}).Execute()
	if err != nil {
		t.Fatal(err)
	}
	prv, _ := filepath.Glob(filepath.Join(dir, "*.prv"))
	if stats.Simulated == 0 || len(prv) != stats.Simulated {
		t.Errorf("%d Paraver artifacts for %d simulated cells", len(prv), stats.Simulated)
	}
	bare, _, err := (&Campaign{Grid: g, Parallel: 2}).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.Runs) != len(withSink.Runs) {
		t.Fatalf("%d runs without a sink, %d with", len(bare.Runs), len(withSink.Runs))
	}
	for i := range bare.Runs {
		if !reflect.DeepEqual(bare.Runs[i].Result, withSink.Runs[i].Result) {
			t.Errorf("%v: sinkless result differs from the traced one", bare.Runs[i].Spec)
		}
	}
}
