// Command ompss-benchdiff gates benchmark regressions: it parses
// `go test -bench` output, takes the per-benchmark minimum ns/op (and,
// with -benchmem, allocs/op) across -count repetitions, and compares it
// against a committed baseline JSON, exiting non-zero when any
// benchmark is more than -max-slowdown slower (default 25%) or, for the
// benchmarks whose allocation count the baseline pins, allocates more
// than 1% above the pin (the jitter of the Go runtime's own
// allocations). With -write it (re)generates the baseline instead,
// recording allocs/op for every benchmark that reported it.
//
// Usage:
//
//	go test -bench SweepLatency -benchtime 1x -count 3 -benchmem -run '^$' ./internal/exp/ \
//	    | go run ./cmd/ompss-benchdiff -baseline BENCH_baseline.json
//
//	go test -bench SweepLatency -benchtime 1x -count 3 -benchmem -run '^$' ./internal/exp/ \
//	    | go run ./cmd/ompss-benchdiff -write BENCH_baseline.json -note "1-core CI runner"
//
// The latency-bound pool benchmarks (stub runners sleeping a fixed
// per-run time) measure worker-pool overlap rather than CPU speed, so one
// baseline is valid on any machine; their allocation counts follow
// goroutine scheduling, so the committed baseline drops their
// allocs_per_op entries by hand. The engine benchmarks' allocation
// counts are deterministic up to runtime jitter and stay pinned; the
// baseline records the Go release they were measured on, and the pins
// gate only under that release, since the toolchain moves them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"repro/internal/stats"
)

// allocTolerance is the allocs/op growth the gate forgives: repeated runs
// of a pinned benchmark differ by a few runtime allocations (<0.5%),
// while one extra allocation per simulated task is +160% on the heavy
// cell.
const allocTolerance = 0.01

func main() {
	var (
		baselinePath = flag.String("baseline", "", "baseline JSON to compare against")
		writePath    = flag.String("write", "", "write a fresh baseline JSON here instead of comparing")
		note         = flag.String("note", "", "provenance note stored in a written baseline")
		maxSlowdown  = flag.Float64("max-slowdown", 0.25, "maximum tolerated slowdown fraction (0.25 = fail beyond +25%)")
		inputPath    = flag.String("input", "-", "bench output to read (- for stdin)")
	)
	flag.Parse()

	if (*baselinePath == "") == (*writePath == "") {
		fatal(fmt.Errorf("exactly one of -baseline or -write is required"))
	}

	var in io.Reader = os.Stdin
	if *inputPath != "-" {
		f, err := os.Open(*inputPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	figures, err := stats.ParseGoBench(in)
	if err != nil {
		fatal(err)
	}
	current := make(map[string]float64, len(figures))
	allocs := make(map[string]float64)
	for name, f := range figures {
		current[name] = f.NsPerOp
		if f.HasMem {
			allocs[name] = f.AllocsPerOp
		}
	}

	if *writePath != "" {
		f, err := os.Create(*writePath)
		if err != nil {
			fatal(err)
		}
		b := stats.BenchBaseline{Note: *note, NsPerOp: current}
		if len(allocs) > 0 {
			b.AllocsPerOp = allocs
			b.AllocsGo = stats.GoRelease(runtime.Version())
		}
		if err := stats.WriteBenchBaseline(f, b); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("ompss-benchdiff: wrote %d benchmarks (%d with allocs/op) to %s\n",
			len(current), len(b.AllocsPerOp), *writePath)
		return
	}

	bf, err := os.Open(*baselinePath)
	if err != nil {
		fatal(err)
	}
	baseline, err := stats.ReadBenchBaseline(bf)
	bf.Close()
	if err != nil {
		fatal(err)
	}

	regs, missing := stats.CompareBenchmarks(baseline.NsPerOp, current, 1+*maxSlowdown, "ns/op")
	report(baseline.NsPerOp, current, "ns/op")
	pins := baseline.AllocsPerOp
	if goRel := stats.GoRelease(runtime.Version()); len(pins) > 0 && baseline.AllocsGo != goRel {
		fmt.Printf("ompss-benchdiff: allocation pins were measured on %s, this is %s: not gated (regenerate the baseline on %s to gate them)\n",
			baseline.AllocsGo, goRel, goRel)
		pins = nil
	}
	allocRegs, allocMissing := stats.CompareBenchmarks(pins, allocs, 1+allocTolerance, "allocs/op")
	regs = append(regs, allocRegs...)
	report(pins, allocs, "allocs/op")
	failed := false
	for _, name := range missing {
		failed = true
		fmt.Fprintf(os.Stderr, "ompss-benchdiff: FAIL: baseline benchmark %s missing from the run (delete it from the baseline if intended)\n", name)
	}
	for _, name := range allocMissing {
		failed = true
		fmt.Fprintf(os.Stderr, "ompss-benchdiff: FAIL: benchmark %s reported no allocs/op (run with -benchmem)\n", name)
	}
	for _, r := range regs {
		failed = true
		fmt.Fprintf(os.Stderr, "ompss-benchdiff: FAIL: %v\n", r)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("ompss-benchdiff: %d benchmarks within %+.0f%% of %s, %d allocation pins within %+.0f%%\n",
		len(baseline.NsPerOp), *maxSlowdown*100, *baselinePath, len(pins), allocTolerance*100)
}

// report prints every baseline benchmark's current figure against its
// baseline, in name order.
func report(baseline, current map[string]float64, unit string) {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cur, ok := current[name]
		if !ok {
			continue
		}
		fmt.Printf("ompss-benchdiff: %s: %.0f %s vs baseline %.0f %s (%+.1f%%)\n",
			name, cur, unit, baseline[name], unit, (cur/baseline[name]-1)*100)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ompss-benchdiff: %v\n", err)
	os.Exit(1)
}
