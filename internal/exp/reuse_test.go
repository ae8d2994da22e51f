package exp

import (
	"errors"
	"testing"

	"repro/internal/slab"
	"repro/internal/trace"
	"repro/ompss"
)

// TestRecycledSlabsLeakNothing runs cells A, B, A on slabs recycled from
// the other cell's finished runs. B differs from A in app, task count
// and chaos plan. Every traced run must serialize to the trace of a run
// that drew nothing from the free lists: a recycled slab that carried
// state over would shift some task's placement, timing or predecessors.
// The traces are serialized only after all runs finish, so a traced
// run that handed out the pred-ID slabs its records alias fails too.
// Neither chaos plan needs a baseline pre-run, which would itself
// release slabs into the reference runs.
func TestRecycledSlabsLeakNothing(t *testing.T) {
	a := engineHeavyCell()
	b := RunSpec{App: "cholesky-potrf-hyb", Size: SizeQuick, Scheduler: "dep", SMPWorkers: 2, GPUs: 2,
		NoiseSigma: 0.05, Seed: 3, Chaos: "gpu1:drop@500ms+recover@1s;gpu5:drop@40%"}
	traced := func(s RunSpec) *trace.Tracer {
		t.Helper()
		_, tr, err := RunTraced(s)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// The references go through Build, which never releases, so they
	// also catch a release that corrupts the releasing run's own trace.
	fresh := make(map[string]string)
	for _, s := range []RunSpec{a, b} {
		slab.Drain()
		r, err := Build(s)
		if err == nil {
			err = armChaos(r, s)
		}
		if err != nil {
			t.Fatal(err)
		}
		r.Execute()
		fresh[s.App] = TraceString(r.Tracer())
	}

	slab.Drain()
	seq := []RunSpec{a, b, a}
	var trs []*trace.Tracer
	for _, s := range seq {
		other := a
		if s.App == a.App {
			other = b
		}
		// An untraced run releases every slab kind, pred IDs included.
		if _, err := Run(other); err != nil {
			t.Fatal(err)
		}
		trs = append(trs, traced(s))
	}
	for i, tr := range trs {
		if TraceString(tr) != fresh[seq[i].App] {
			t.Errorf("run %d (%s) on recycled slabs: trace differs from a fresh run's", i, seq[i].App)
		}
	}
}

// TestReleaseOnlyAfterCleanRun: a run that finishes returns its slabs
// to the free lists; one that panics (here, stranded by its chaos plan)
// returns none, since its tasks may still be referenced mid-flight.
func TestReleaseOnlyAfterCleanRun(t *testing.T) {
	stranded := RunSpec{App: "matmul-hyb", Size: SizeFull, Scheduler: "bf", SMPWorkers: 2, GPUs: 1, Chaos: "gpu0:drop@1s"}
	clean := stranded
	clean.Chaos = ""

	slab.Drain()
	_, err := Run(stranded)
	var se *ompss.StrandedError
	if !errors.As(err, &se) {
		t.Fatalf("Run(%v) = %v, want a StrandedError", stranded, err)
	}
	if n := slab.Drain(); n != 0 {
		t.Errorf("stranded run released %d slabs, want 0", n)
	}

	if _, err := Run(clean); err != nil {
		t.Fatal(err)
	}
	if n := slab.Drain(); n == 0 {
		t.Error("clean run released no slabs")
	}
}
