package stats

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Benchmark-regression support: parse `go test -bench` output into
// per-benchmark figures, persist them as a committed baseline, and
// compare a fresh run against it. CI runs the gated benchmarks with
// -count 3 -benchmem and fails the push on a >25% slowdown or on any
// allocation growth beyond a 1% jitter allowance.

// BenchFigures is one benchmark's parsed result: the minimum of each
// column across repetitions. BytesPerOp and AllocsPerOp are set only
// when the benchmark printed the -benchmem columns (HasMem).
type BenchFigures struct {
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
	HasMem      bool
}

// ParseGoBench reads `go test -bench` text output and returns, per
// benchmark (the -GOMAXPROCS suffix stripped), the minimum ns/op, B/op
// and allocs/op across repetitions. The minimum — not the mean — is the
// stable statistic on shared CI machines: noise only ever adds time (and
// the odd runtime allocation), so the best of -count N repetitions is the
// best estimate of the true cost.
func ParseGoBench(r io.Reader) (map[string]BenchFigures, error) {
	best := make(map[string]BenchFigures)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// "BenchmarkName-8   3   8423412 ns/op [more unit pairs]"
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		var cur BenchFigures
		var hasNs, hasBytes, hasAllocs bool
		for i := 2; i+1 < len(fields); i++ {
			var dst *float64
			switch fields[i+1] {
			case "ns/op":
				dst, hasNs = &cur.NsPerOp, true
			case "B/op":
				dst, hasBytes = &cur.BytesPerOp, true
			case "allocs/op":
				dst, hasAllocs = &cur.AllocsPerOp, true
			default:
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("stats: bad %s %q in bench line %q", fields[i+1], fields[i], sc.Text())
			}
			*dst = v
		}
		if !hasNs {
			continue
		}
		cur.HasMem = hasBytes && hasAllocs
		name := trimProcsSuffix(fields[0])
		prev, seen := best[name]
		if !seen {
			best[name] = cur
			continue
		}
		prev.NsPerOp = min(prev.NsPerOp, cur.NsPerOp)
		if cur.HasMem {
			if prev.HasMem {
				cur.BytesPerOp = min(prev.BytesPerOp, cur.BytesPerOp)
				cur.AllocsPerOp = min(prev.AllocsPerOp, cur.AllocsPerOp)
			}
			prev.BytesPerOp, prev.AllocsPerOp, prev.HasMem = cur.BytesPerOp, cur.AllocsPerOp, true
		}
		best[name] = prev
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stats: reading bench output: %w", err)
	}
	if len(best) == 0 {
		return nil, fmt.Errorf("stats: no benchmark lines found")
	}
	return best, nil
}

// trimProcsSuffix drops go test's "-<GOMAXPROCS>" suffix so baselines
// compare across machines with different core counts.
func trimProcsSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// BenchBaseline is the committed baseline file format.
type BenchBaseline struct {
	// Note documents where the baseline numbers came from.
	Note string `json:"note,omitempty"`
	// NsPerOp maps benchmark name (procs suffix stripped) to ns/op.
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// AllocsPerOp maps the benchmarks whose allocation count is gated to
	// their allocs/op. Only deterministic benchmarks belong here: the
	// gate allows no more than jitter-sized growth.
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
	// AllocsGo is the Go release (e.g. "go1.24") the allocation pins were
	// measured with. Allocation counts change with the toolchain (map and
	// runtime internals), so the pins gate only runs on that release.
	AllocsGo string `json:"allocs_go,omitempty"`
}

// GoRelease trims a runtime.Version string to its release ("go1.24.3"
// -> "go1.24"): patch releases keep allocation behaviour.
func GoRelease(version string) string {
	if i := strings.IndexByte(version, '.'); i >= 0 {
		if j := strings.IndexByte(version[i+1:], '.'); j >= 0 {
			return version[:i+1+j]
		}
	}
	return version
}

// WriteBenchBaseline renders a baseline deterministically (sorted keys,
// indented) so regenerating it produces reviewable diffs.
func WriteBenchBaseline(w io.Writer, b BenchBaseline) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b) // encoding/json sorts map keys
}

// ReadBenchBaseline parses a baseline file.
func ReadBenchBaseline(r io.Reader) (BenchBaseline, error) {
	var b BenchBaseline
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return BenchBaseline{}, fmt.Errorf("stats: parsing bench baseline: %w", err)
	}
	if len(b.NsPerOp) == 0 {
		return BenchBaseline{}, fmt.Errorf("stats: bench baseline has no entries")
	}
	return b, nil
}

// BenchRegression is one benchmark figure that grew beyond what the gate
// allows.
type BenchRegression struct {
	Name     string
	Unit     string // "ns/op" or "allocs/op"
	Baseline float64
	Current  float64
	Ratio    float64 // Current / Baseline
}

func (r BenchRegression) String() string {
	more := "more"
	if r.Unit == "ns/op" {
		more = "slower"
	}
	return fmt.Sprintf("%s: %.0f %s vs baseline %.0f %s (%.3gx, %.3g%% %s)",
		r.Name, r.Current, r.Unit, r.Baseline, r.Unit, r.Ratio, (r.Ratio-1)*100, more)
}

// CompareBenchmarks gates one figure (unit names it in the report) of
// current against a baseline: every baseline benchmark must be present
// in current (a vanished benchmark is reported in missing — deleting a
// benchmark must be a deliberate baseline edit, not a silent gate
// bypass) and no larger than maxRatio times its baseline value (1.25 =
// fail beyond 25% more). Regressions come back sorted worst first.
func CompareBenchmarks(baseline, current map[string]float64, maxRatio float64, unit string) (regressions []BenchRegression, missing []string) {
	for name, base := range baseline {
		cur, ok := current[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if base <= 0 {
			continue // a zero baseline cannot gate anything
		}
		if ratio := cur / base; ratio > maxRatio {
			regressions = append(regressions, BenchRegression{
				Name: name, Unit: unit, Baseline: base, Current: cur, Ratio: ratio,
			})
		}
	}
	sort.Slice(regressions, func(i, j int) bool { return regressions[i].Ratio > regressions[j].Ratio })
	sort.Strings(missing)
	return regressions, missing
}
