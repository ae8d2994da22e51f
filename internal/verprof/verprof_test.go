package verprof

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestGroupForCreatesAndReuses(t *testing.T) {
	s := NewStore(3)
	g1 := s.GroupFor("task1", 2<<20, []string{"v1", "v2"})
	g2 := s.GroupFor("task1", 2<<20, []string{"v1", "v2"})
	if g1 != g2 {
		t.Error("same size should reuse the group")
	}
	g3 := s.GroupFor("task1", 3<<20, []string{"v1", "v2"})
	if g3 == g1 {
		t.Error("different size must open a new group (exact matching)")
	}
	g4 := s.GroupFor("task2", 2<<20, []string{"x"})
	if g4 == g1 {
		t.Error("different type must have its own set")
	}
}

func TestExactSizeMatchingSplitsByOneByte(t *testing.T) {
	// The paper: "if the data needed by two calls varies from only 1
	// byte, the scheduler will consider different groups".
	s := NewStore(3)
	g1 := s.GroupFor("t", 1000, []string{"v"})
	g2 := s.GroupFor("t", 1001, []string{"v"})
	if g1 == g2 {
		t.Error("1-byte difference should split groups with zero tolerance")
	}
}

func TestSizeToleranceJoinsNearbySizes(t *testing.T) {
	s := NewStore(3)
	s.SizeTolerance = 0.05
	g1 := s.GroupFor("t", 1000, []string{"v"})
	g2 := s.GroupFor("t", 1001, []string{"v"})
	if g1 != g2 {
		t.Error("5% tolerance should join 1000 and 1001")
	}
	g3 := s.GroupFor("t", 2000, []string{"v"})
	if g3 == g1 {
		t.Error("2x size should still split")
	}
}

func TestArithmeticMean(t *testing.T) {
	s := NewStore(3)
	g := s.GroupFor("t", 100, []string{"v"})
	g.Record("v", 10*time.Millisecond)
	g.Record("v", 20*time.Millisecond)
	g.Record("v", 30*time.Millisecond)
	m, ok := g.Mean("v")
	if !ok || m != 20*time.Millisecond {
		t.Errorf("mean = %v, %v; want 20ms", m, ok)
	}
	if g.Count("v") != 3 {
		t.Errorf("count = %d", g.Count("v"))
	}
}

func TestEWMAWeightsRecentExecutions(t *testing.T) {
	s := NewStore(3)
	s.EWMAAlpha = 0.5
	g := s.GroupFor("t", 100, []string{"v"})
	g.Record("v", 10*time.Millisecond)
	g.Record("v", 20*time.Millisecond) // 0.5*20 + 0.5*10 = 15
	m, _ := g.Mean("v")
	if m != 15*time.Millisecond {
		t.Errorf("EWMA mean = %v, want 15ms", m)
	}
}

func TestMeanUnknownVersion(t *testing.T) {
	s := NewStore(3)
	g := s.GroupFor("t", 100, []string{"v"})
	if _, ok := g.Mean("v"); ok {
		t.Error("never-run version should have no mean")
	}
	if _, ok := g.Mean("ghost"); ok {
		t.Error("unregistered version should have no mean")
	}
}

func TestReliableRequiresLambdaForAllVersions(t *testing.T) {
	s := NewStore(2)
	g := s.GroupFor("t", 100, []string{"a", "b"})
	if g.Reliable() {
		t.Error("empty group cannot be reliable")
	}
	g.Record("a", time.Millisecond)
	g.Record("a", time.Millisecond)
	if g.Reliable() {
		t.Error("b has not reached lambda")
	}
	g.Record("b", time.Millisecond)
	g.Record("b", time.Millisecond)
	if !g.Reliable() {
		t.Error("both versions at lambda: group must be reliable")
	}
}

func TestSeedActsAsHints(t *testing.T) {
	s := NewStore(3)
	g := s.GroupFor("t", 100, []string{"a", "b"})
	g.Seed("a", 5*time.Millisecond, 10)
	g.Seed("b", 9*time.Millisecond, 10)
	if !g.Reliable() {
		t.Error("seeded group should be reliable immediately")
	}
	ma, okA := g.Mean("a")
	mb, okB := g.Mean("b")
	if !okA || !okB || ma != 5*time.Millisecond || mb != 9*time.Millisecond {
		t.Errorf("seeded means = %v/%v, %v/%v, want 5ms and 9ms", ma, okA, mb, okB)
	}
	// Recording after seeding folds into the seeded mean.
	g.Record("a", 15*time.Millisecond)
	m, _ := g.Mean("a")
	// (5*10 + 15)/11 = 5.909...ms
	want := float64(5*10+15) / 11
	if math.Abs(m.Seconds()*1000-want) > 0.01 {
		t.Errorf("post-seed mean = %v, want ~%.3fms", m, want)
	}
}

func TestNegativeSeedCountPanics(t *testing.T) {
	s := NewStore(3)
	g := s.GroupFor("t", 100, []string{"a"})
	defer func() {
		if recover() == nil {
			t.Error("negative count did not panic")
		}
	}()
	g.Seed("a", time.Millisecond, -1)
}

func TestRecordUnregisteredVersionRegistersIt(t *testing.T) {
	s := NewStore(3)
	g := s.GroupFor("t", 100, []string{"a"})
	g.Record("late", time.Millisecond)
	if g.Count("late") != 1 {
		t.Error("late-registered version lost its record")
	}
	vs := g.Versions()
	if len(vs) != 2 || vs[1] != "late" {
		t.Errorf("Versions = %v", vs)
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	s := NewStore(3)
	// Mirror Table I: task1 with 2 size groups x 3 versions, task2 with 1.
	for _, size := range []int64{3 << 20, 2 << 20} {
		g := s.GroupFor("task1", size, []string{"v1", "v2", "v3"})
		g.Record("v1", 30*time.Millisecond)
		g.Record("v2", 18*time.Millisecond)
		g.Record("v3", 25*time.Millisecond)
	}
	g := s.GroupFor("task2", 5<<20, []string{"v1", "v2"})
	g.Record("v1", 15*time.Millisecond)

	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].Type != "task1" || snap[1].Type != "task2" {
		t.Fatalf("snapshot sets = %+v", snap)
	}
	if len(snap[0].Groups) != 2 || snap[0].Groups[0].Size != 2<<20 {
		t.Fatalf("groups not sorted by size: %+v", snap[0].Groups)
	}
	if len(snap[0].Groups[0].Versions) != 3 {
		t.Fatalf("versions = %+v", snap[0].Groups[0].Versions)
	}

	table := FormatTable(snap)
	for _, want := range []string{"task1", "task2", "2.0 MB", "3.0 MB", "5.0 MB", "v2", "#Exec"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512 B",
		2 << 10: "2.0 KB",
		3 << 20: "3.0 MB",
		4 << 30: "4.0 GB",
	}
	for in, want := range cases {
		if got := formatBytes(in); got != want {
			t.Errorf("formatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestLambdaClamp(t *testing.T) {
	if NewStore(0).Lambda != DefaultLambda {
		t.Error("lambda 0 should clamp to default")
	}
	if NewStore(7).Lambda != 7 {
		t.Error("explicit lambda lost")
	}
}

// Property: arithmetic mean equals the true mean of the recorded samples.
func TestMeanMatchesSamplesProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewStore(1)
		g := s.GroupFor("t", 1, []string{"v"})
		var sum float64
		for _, x := range raw {
			d := time.Duration(x) * time.Microsecond
			g.Record("v", d)
			sum += float64(d.Nanoseconds())
		}
		want := sum / float64(len(raw))
		got, _ := g.Mean("v")
		// Incremental mean accumulates float error; allow tiny slack.
		return math.Abs(float64(got.Nanoseconds())-want) <= 1e-9*want+2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a group becomes reliable exactly when min count >= lambda.
func TestReliableThresholdProperty(t *testing.T) {
	f := func(lambdaRaw, aRaw, bRaw uint8) bool {
		lambda := int(lambdaRaw%5) + 1
		a := int(aRaw % 10)
		b := int(bRaw % 10)
		s := NewStore(lambda)
		g := s.GroupFor("t", 1, []string{"a", "b"})
		for i := 0; i < a; i++ {
			g.Record("a", time.Millisecond)
		}
		for i := 0; i < b; i++ {
			g.Record("b", time.Millisecond)
		}
		want := a >= lambda && b >= lambda
		return g.Reliable() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecisionPathAllocatesNothing pins the per-decision profile
// operations: finding an existing group, checking it, reading a mean and
// recording an execution allocate nothing.
func TestDecisionPathAllocatesNothing(t *testing.T) {
	s := NewStore(2)
	versions := []string{"smp", "cuda", "opencl"}
	s.GroupFor("other", 1<<10, []string{"smp"})
	s.GroupFor("kernel", 1<<10, versions)
	decide := func() {
		g := s.GroupFor("kernel", 1<<10, versions)
		if g.Reliable() {
			if _, ok := g.Mean("cuda"); !ok {
				t.Fatal("reliable group without a cuda mean")
			}
		}
		g.Record("cuda", time.Millisecond)
		g.Record("smp", 3*time.Millisecond)
		g.Record("opencl", 2*time.Millisecond)
	}
	if allocs := testing.AllocsPerRun(100, decide); allocs != 0 {
		t.Errorf("decision path allocates %.1f times, want 0", allocs)
	}
	if g := s.GroupFor("kernel", 1<<10, versions); !g.Reliable() || g.Count("cuda") != 101 {
		t.Errorf("reliable=%v count=%d after 101 decisions", g.Reliable(), g.Count("cuda"))
	}
}
