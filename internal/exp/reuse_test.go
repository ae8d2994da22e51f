package exp

import (
	"errors"
	"testing"

	"repro/internal/slab"
	"repro/internal/trace"
	"repro/ompss"
)

// TestRecycledSlabsLeakNothing runs cells on slabs recycled from other
// cells' finished runs. B differs from A in app, task count and chaos
// plan; C runs on one GPU, so its directory carves two space records per
// object where A's and B's carve three, and it registers yet another
// number of objects. Every traced run must serialize to the trace of a
// run that drew nothing from the free lists: a recycled slab that
// carried state over would shift some task's placement, timing or
// predecessors. The traces are serialized only after all runs finish,
// so a traced run that handed out the pred-ID slabs its records alias
// fails too. Neither chaos plan needs a baseline pre-run, which would
// itself release slabs into the reference runs.
func TestRecycledSlabsLeakNothing(t *testing.T) {
	a := engineHeavyCell()
	b := RunSpec{App: "cholesky-potrf-hyb", Size: SizeQuick, Scheduler: "dep", SMPWorkers: 2, GPUs: 2,
		NoiseSigma: 0.05, Seed: 3, Chaos: "gpu1:drop@500ms+recover@1s;gpu5:drop@40%"}
	c := RunSpec{App: "matmul-hyb", Size: SizeQuick, Scheduler: "affinity", SMPWorkers: 2, GPUs: 1, Seed: 2}
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
	for _, s := range []RunSpec{a, b, c} {
		slab.Drain()
		r, err := Build(s)
		if err == nil {
			s.fillDefaults()
			c, _ := s.validate() // Build has just accepted s
			_, err = armChaos(r, s, c)
		}
		if err != nil {
			t.Fatal(err)
		}
		r.Execute()
		fresh[s.App] = TraceString(r.Tracer())
	}

	slab.Drain()
	// Each traced run follows an untraced run of another cell, which
	// releases every slab kind, pred IDs included.
	steps := []struct{ before, traced RunSpec }{
		{b, a}, {a, b}, {b, a},
		{a, c}, {c, a}, {c, b}, {b, c},
	}
	var trs []*trace.Tracer
	for _, st := range steps {
		if _, err := Run(st.before); err != nil {
			t.Fatal(err)
		}
		trs = append(trs, traced(st.traced))
	}
	for i, tr := range trs {
		if TraceString(tr) != fresh[steps[i].traced.App] {
			t.Errorf("run %d (%s after %s) on recycled slabs: trace differs from a fresh run's",
				i, steps[i].traced.App, steps[i].before.App)
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
