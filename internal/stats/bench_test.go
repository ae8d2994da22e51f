package stats

import (
	"bytes"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/exp
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkSweepLatencyParallel1-4   	       1	250504123 ns/op
BenchmarkSweepLatencyParallel1-4   	       1	251000999 ns/op
BenchmarkSweepLatencyParallel1-4   	       1	249900001 ns/op
BenchmarkSweepLatencyParallel4-4   	       1	 63012345 ns/op
BenchmarkSweepLatencyParallel4-4   	       1	 64000000 ns/op
BenchmarkSweepParallel1            	       1	  8423412 ns/op	  512 B/op	      12 allocs/op
BenchmarkEngineTaskNs-2            	       1	      2335 ns/op	    428236 tasks/s	 3827689 B/op	   25722 allocs/op
BenchmarkEngineTaskNs-2            	       1	      2101 ns/op	    476000 tasks/s	 3827701 B/op	   25725 allocs/op
BenchmarkEngineTaskNs-2            	       1	      2290 ns/op	    436681 tasks/s	 3827650 B/op	   25720 allocs/op
PASS
ok  	repro/internal/exp	1.234s
`

func TestParseGoBench(t *testing.T) {
	got, err := ParseGoBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]BenchFigures{
		"BenchmarkSweepLatencyParallel1": {NsPerOp: 249900001}, // min of three reps
		"BenchmarkSweepLatencyParallel4": {NsPerOp: 63012345},
		// no procs suffix, -benchmem columns
		"BenchmarkSweepParallel1": {NsPerOp: 8423412, BytesPerOp: 512, AllocsPerOp: 12, HasMem: true},
		// custom metric between the columns; each column's own minimum
		"BenchmarkEngineTaskNs": {NsPerOp: 2101, BytesPerOp: 3827650, AllocsPerOp: 25720, HasMem: true},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
}

// TestParseGoBenchMemColumnsPartial: repetitions without the -benchmem
// columns leave the figures of those that had them alone.
func TestParseGoBenchMemColumnsPartial(t *testing.T) {
	in := "BenchmarkX-4 1 100 ns/op\nBenchmarkX-4 1 90 ns/op 64 B/op 3 allocs/op\nBenchmarkX-4 1 95 ns/op\n"
	got, err := ParseGoBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w := (BenchFigures{NsPerOp: 90, BytesPerOp: 64, AllocsPerOp: 3, HasMem: true}); got["BenchmarkX"] != w {
		t.Errorf("BenchmarkX = %+v, want %+v", got["BenchmarkX"], w)
	}
}

func TestParseGoBenchErrors(t *testing.T) {
	if _, err := ParseGoBench(strings.NewReader("PASS\nok x 0.1s\n")); err == nil {
		t.Error("no benchmark lines did not error")
	}
	if _, err := ParseGoBench(strings.NewReader("BenchmarkX-4 1 notanumber ns/op\n")); err == nil {
		t.Error("bad ns/op did not error")
	}
	if _, err := ParseGoBench(strings.NewReader("BenchmarkX-4 1 5 ns/op 8 B/op many allocs/op\n")); err == nil {
		t.Error("bad allocs/op did not error")
	}
}

func TestTrimProcsSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkX-4":                "BenchmarkX",
		"BenchmarkX-16":               "BenchmarkX",
		"BenchmarkX":                  "BenchmarkX",
		"BenchmarkSweepParallel1":     "BenchmarkSweepParallel1", // trailing digit is part of the name
		"BenchmarkWith-dash-notnum":   "BenchmarkWith-dash-notnum",
		"BenchmarkWith-dash-notnum-8": "BenchmarkWith-dash-notnum",
	}
	for in, want := range cases {
		if got := trimProcsSuffix(in); got != want {
			t.Errorf("trimProcsSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCompareBenchmarks(t *testing.T) {
	baseline := map[string]float64{
		"A": 100, "B": 100, "C": 100, "Gone": 50,
	}
	current := map[string]float64{
		"A":   110, // +10%: fine
		"B":   126, // +26%: regression
		"C":   80,  // faster: fine
		"New": 999, // not in baseline: ignored
	}
	regs, missing := CompareBenchmarks(baseline, current, 1.25, "ns/op")
	if len(regs) != 1 || regs[0].Name != "B" {
		t.Fatalf("regressions = %v, want exactly B", regs)
	}
	if regs[0].Ratio != 1.26 {
		t.Errorf("ratio = %v, want 1.26", regs[0].Ratio)
	}
	if len(missing) != 1 || missing[0] != "Gone" {
		t.Errorf("missing = %v, want [Gone]", missing)
	}
	if s := regs[0].String(); !strings.Contains(s, "B:") || !strings.Contains(s, "26% slower") {
		t.Errorf("regression string unhelpful: %q", s)
	}
}

func TestCompareBenchmarksSortsWorstFirst(t *testing.T) {
	baseline := map[string]float64{"A": 100, "B": 100, "C": 100}
	current := map[string]float64{"A": 150, "B": 200, "C": 130}
	regs, _ := CompareBenchmarks(baseline, current, 1.25, "ns/op")
	if len(regs) != 3 || regs[0].Name != "B" || regs[1].Name != "A" || regs[2].Name != "C" {
		t.Errorf("regressions not sorted worst first: %v", regs)
	}
}

// TestCompareAllocs: the allocation gate is the same comparison at a
// 1% tolerance, reported in allocs/op.
func TestCompareAllocs(t *testing.T) {
	baseline := map[string]float64{"Exact": 25000, "Jitter": 25000, "Grown": 25000}
	current := map[string]float64{"Exact": 25000, "Jitter": 25200, "Grown": 26000}
	regs, missing := CompareBenchmarks(baseline, current, 1.01, "allocs/op")
	if len(regs) != 1 || regs[0].Name != "Grown" || len(missing) != 0 {
		t.Fatalf("regressions = %v, missing = %v, want exactly Grown", regs, missing)
	}
	if s := regs[0].String(); !strings.Contains(s, "26000 allocs/op") || !strings.Contains(s, "4% more") {
		t.Errorf("regression string unhelpful: %q", s)
	}
}

func TestGoRelease(t *testing.T) {
	cases := map[string]string{
		"go1.24.0": "go1.24",
		"go1.23.4": "go1.23",
		"go1.24":   "go1.24",
		"devel":    "devel",
	}
	for in, want := range cases {
		if got := GoRelease(in); got != want {
			t.Errorf("GoRelease(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBenchBaselineRoundTrip(t *testing.T) {
	b := BenchBaseline{
		Note:        "generated on the 1-core build container",
		NsPerOp:     map[string]float64{"BenchmarkZ": 10, "BenchmarkA": 250504123},
		AllocsPerOp: map[string]float64{"BenchmarkZ": 25836},
		AllocsGo:    "go1.24",
	}
	var buf bytes.Buffer
	if err := WriteBenchBaseline(&buf, b); err != nil {
		t.Fatal(err)
	}
	// Deterministic rendering: keys sorted, so A precedes Z.
	out := buf.String()
	if strings.Index(out, "BenchmarkA") > strings.Index(out, "BenchmarkZ") {
		t.Errorf("baseline keys not sorted:\n%s", out)
	}
	got, err := ReadBenchBaseline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Note != b.Note || got.NsPerOp["BenchmarkA"] != 250504123 || got.NsPerOp["BenchmarkZ"] != 10 ||
		len(got.AllocsPerOp) != 1 || got.AllocsPerOp["BenchmarkZ"] != 25836 || got.AllocsGo != "go1.24" {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := ReadBenchBaseline(strings.NewReader("{}")); err == nil {
		t.Error("empty baseline did not error")
	}
	if _, err := ReadBenchBaseline(strings.NewReader("not json")); err == nil {
		t.Error("garbage baseline did not error")
	}
}
