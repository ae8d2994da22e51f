package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// size is one problem-size tier of the whole experiment set, resolved
// once per test binary: the digest test and every shape test share it.
type size struct {
	name string
	opts Options
	// digest is the SHA-256 of ompss-bench's stdout at this size: every
	// report's Format() plus a newline, in All() order.
	digest string
	// rows and cells count the campaign-backed rows of every experiment
	// and the distinct canonical specs they resolve through.
	rows, cells int

	once sync.Once
	reps []*Report
	err  error
}

var sizes = []*size{
	{name: "quick", opts: Options{Quick: true}, rows: 136, cells: 69,
		digest: "d841f70dcf403ca680e220caac73cab748e6d6790a8466b736a76cfdb9a883d1"},
	{name: "paper", opts: Options{}, rows: 178, cells: 89,
		digest: "892f0747167ff306ff1623e4622d9458ee4255b2bb32e1c8c25286541cc0ad8f"},
}

func (s *size) paper() bool { return !s.opts.Quick }

// reports resolves every experiment at this size, once.
func (s *size) reports(t *testing.T) []*Report {
	t.Helper()
	s.once.Do(func() { s.reps, s.err = Run(All(), s.opts) })
	if s.err != nil {
		t.Fatalf("%s: %v", s.name, s.err)
	}
	return s.reps
}

func (s *size) report(t *testing.T, id string) *Report {
	t.Helper()
	for _, rep := range s.reports(t) {
		if rep.ID == id {
			return rep
		}
	}
	t.Fatalf("experiment %q not registered", id)
	return nil
}

// eachSize runs a shape check on one experiment's report at quick and at
// paper size.
func eachSize(t *testing.T, id string, check func(t *testing.T, s *size, rep *Report)) {
	for _, s := range sizes {
		t.Run(s.name, func(t *testing.T) { check(t, s, s.report(t, id)) })
	}
}

// TestGoldenReportDigests pins ompss-bench's output byte for byte at
// both sizes, and the deduplicated campaign that produces it.
func TestGoldenReportDigests(t *testing.T) {
	for _, s := range sizes {
		t.Run(s.name, func(t *testing.T) {
			h := sha256.New()
			for _, rep := range s.reports(t) {
				io.WriteString(h, rep.Format()+"\n")
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != s.digest {
				t.Errorf("report digest = %s, want %s", got, s.digest)
			}
			rows, _, specs := collect(All(), s.opts)
			n := 0
			for _, r := range rows {
				n += len(r)
			}
			if n != s.rows || len(specs) != s.cells {
				t.Errorf("campaign rows/cells = %d/%d, want %d/%d", n, len(specs), s.rows, s.cells)
			}
		})
	}
}

// cell returns the named column of a row.
func cell(rep *Report, row []string, col string) string {
	for i, h := range rep.Header {
		if h == col {
			return row[i]
		}
	}
	return ""
}

func cellF(t *testing.T, rep *Report, row []string, col string) float64 {
	s := strings.TrimSuffix(cell(rep, row, col), "%")
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("column %q: bad float %q", col, s)
	}
	return f
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"ext-sched", "ext-cluster", "ext-energy",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s missing (have %v)", id, IDs())
		}
	}
	// All() yields paper order, the order ompss-bench runs them in.
	var got []string
	for _, e := range All() {
		got = append(got, e.ID)
	}
	if !slices.Equal(got, want) {
		t.Errorf("All() order = %v, want %v", got, want)
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) should fail")
	}
}

func TestReportFormat(t *testing.T) {
	rep := &Report{ID: "x", Title: "t", Header: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	s := rep.Format()
	for _, want := range []string{"== x: t ==", "a  bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format missing %q:\n%s", want, s)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	eachSize(t, "fig6", func(t *testing.T, _ *size, rep *Report) {
		series := make(map[string][]float64) // label/gpus -> gflops by smp order
		for _, row := range rep.Rows {
			key := cell(rep, row, "series") + "/" + cell(rep, row, "GPUs")
			series[key] = append(series[key], cellF(t, rep, row, "GFLOP/s"))
		}
		// mm-gpu flat in SMP threads.
		for _, key := range []string{"mm-gpu-dep/1", "mm-gpu-dep/2", "mm-gpu-aff/1", "mm-gpu-aff/2"} {
			vals := series[key]
			for i := 1; i < len(vals); i++ {
				if diff := vals[i] - vals[0]; diff > 1 || diff < -1 {
					t.Errorf("%s not flat: %v", key, vals)
				}
			}
		}
		// ~2x from 1 to 2 GPUs for the regular application.
		r := series["mm-gpu-dep/2"][0] / series["mm-gpu-dep/1"][0]
		if r < 1.9 || r > 2.1 {
			t.Errorf("GPU scaling = %.2fx, want ~2x", r)
		}
		// The hybrid gains from SMP threads with 1 GPU.
		hyb := series["mm-hyb-ver/1"]
		if hyb[len(hyb)-1] <= hyb[0] {
			t.Errorf("mm-hyb-ver/1GPU does not improve with SMP threads: %v", hyb)
		}
		// And beats the regular application at the top SMP count.
		if hyb[len(hyb)-1] <= series["mm-gpu-dep/1"][0] {
			t.Errorf("mm-hyb-ver (%v) never beats mm-gpu (%v)", hyb, series["mm-gpu-dep/1"])
		}
	})
}

func TestFig7Shape(t *testing.T) {
	eachSize(t, "fig7", func(t *testing.T, _ *size, rep *Report) {
		var hvDev, gaDev float64
		var hvIn, gdIn float64
		for _, row := range rep.Rows {
			if cell(rep, row, "GPUs") != "2" {
				continue
			}
			switch cell(rep, row, "config") {
			case "HV":
				hvDev += cellF(t, rep, row, "Device Tx")
				hvIn += cellF(t, rep, row, "Input Tx")
			case "GA":
				gaDev += cellF(t, rep, row, "Device Tx")
			case "GD":
				gdIn += cellF(t, rep, row, "Input Tx")
			}
		}
		if hvDev <= gaDev {
			t.Errorf("HV device traffic (%.2f) should exceed GA (%.2f) on matmul", hvDev, gaDev)
		}
		if hvIn < gdIn {
			t.Errorf("HV input traffic (%.2f) should be at least GD (%.2f)", hvIn, gdIn)
		}
	})
}

func TestFig8Shape(t *testing.T) {
	eachSize(t, "fig8", func(t *testing.T, s *size, rep *Report) {
		smp := make(map[string][]float64) // GPUs -> SMP share by smp order
		for _, row := range rep.Rows {
			gpus := cell(rep, row, "GPUs")
			smp[gpus] = append(smp[gpus], cellF(t, rep, row, "SMP"))
			if gpus != "1" {
				continue
			}
			cublas := cellF(t, rep, row, "CUBLAS")
			cuda := cellF(t, rep, row, "CUDA")
			if cublas < 80 {
				t.Errorf("CUBLAS share %.1f%% should dominate", cublas)
			}
			if cuda > 5 {
				t.Errorf("hand-CUDA share %.1f%% should be a sliver", cuda)
			}
		}
		one, two := smp["1"], smp["2"]
		if !slices.IsSorted(one) {
			t.Errorf("SMP share at 1 GPU should grow with SMP threads: %v", one)
		}
		if len(one) == 0 || len(one) != len(two) {
			t.Fatalf("SMP shares at 1 and 2 GPUs do not pair up: %v, %v", one, two)
		}
		for i := range one {
			if one[i] <= two[i] {
				t.Errorf("SMP share at SMP row %d: %.1f%% with 1 GPU, %.1f%% with 2; want larger with 1", i, one[i], two[i])
			}
		}
		// Ledgered divergence (EXPERIMENTS.md, fig8): the SMP share
		// averages well under the note's "~10% on average".
		if s.paper() {
			mean := func(v []float64) float64 {
				sum := 0.0
				for _, x := range v {
					sum += x
				}
				return math.Round(10*sum/float64(len(v))) / 10
			}
			if m1, m2, top := mean(one), mean(two), slices.Max(one); m1 != 5.6 || m2 != 2.9 || top != 11.5 {
				t.Errorf("SMP share averages %.1f%% at 1 GPU and %.1f%% at 2 GPUs, max %.1f%%; EXPERIMENTS.md fig8 records 5.6, 2.9 and 11.5",
					m1, m2, top)
			}
		}
	})
}

func TestFig9Shape(t *testing.T) {
	eachSize(t, "fig9", func(t *testing.T, s *size, rep *Report) {
		series := make(map[string][]float64) // label/gpus -> gflops by smp order
		for _, row := range rep.Rows {
			key := cell(rep, row, "series") + "/" + cell(rep, row, "GPUs")
			series[key] = append(series[key], cellF(t, rep, row, "GFLOP/s"))
		}
		for _, gpus := range []string{"1", "2"} {
			smp := slices.Max(series["potrf-smp-dep/"+gpus])
			gpu := slices.Max(series["potrf-gpu-dep/"+gpus])
			if smp >= gpu {
				t.Errorf("gpus=%s: potrf-smp (%.1f) should be worst, potrf-gpu %.1f", gpus, smp, gpu)
			}
		}
		// Ledgered divergence (EXPERIMENTS.md, fig9): every series is
		// flat in SMP threads, against the note's "improves with SMP
		// threads". A change that moves this updates the ledger.
		for key, vals := range series {
			if slices.Min(vals) != slices.Max(vals) {
				t.Errorf("%s no longer flat in SMP threads: %v (update EXPERIMENTS.md fig9)", key, vals)
			}
		}
		if s.paper() {
			if got := series["potrf-hyb-ver/1"]; !slices.Equal(got, []float64{505.4, 505.4, 505.4, 505.4}) {
				t.Errorf("potrf-hyb-ver at 1 GPU = %v, EXPERIMENTS.md fig9 records 505.4 at every SMP count", got)
			}
		}
	})
}

func TestFig10Shape(t *testing.T) {
	eachSize(t, "fig10", func(t *testing.T, s *size, rep *Report) {
		dev := make(map[string][]float64) // config -> 2-GPU device traffic by smp order
		for _, row := range rep.Rows {
			if cell(rep, row, "GPUs") == "2" {
				c := cell(rep, row, "config")
				dev[c] = append(dev[c], cellF(t, rep, row, "Device Tx"))
			}
		}
		// Ledgered divergence (EXPERIMENTS.md, fig10): at 2 GPUs the
		// versioning scheduler moves more device traffic than affinity,
		// against the note's "moves less data than affinity".
		for i := range dev["HV"] {
			if dev["HV"][i] <= dev["GA"][i] {
				t.Errorf("HV device traffic %.2f no longer exceeds GA %.2f (update EXPERIMENTS.md fig10)",
					dev["HV"][i], dev["GA"][i])
			}
		}
		if s.paper() {
			for c, want := range map[string]float64{"HV": 7.52, "GA": 5.67, "GD": 5.60} {
				for _, got := range dev[c] {
					if got != want {
						t.Errorf("%s device traffic at 2 GPUs = %.2f GB, EXPERIMENTS.md fig10 records %.2f", c, got, want)
					}
				}
			}
		}
	})
}

func TestFig11Shape(t *testing.T) {
	eachSize(t, "fig11", func(t *testing.T, s *size, rep *Report) {
		for _, row := range rep.Rows {
			smp := cellF(t, rep, row, "potrf SMP")
			gpu := cellF(t, rep, row, "potrf GPU")
			if diff := smp + gpu - 100; diff > 0.5 || diff < -0.5 {
				t.Errorf("shares should sum to 100%%: %.1f + %.1f", smp, gpu)
			}
			// Ledgered divergence (EXPERIMENTS.md, fig11): at paper
			// size with 1 GPU the SMP version takes 9 of 16 potrfs.
			if s.paper() && cell(rep, row, "GPUs") == "1" {
				if smp != 56.2 || gpu != 43.8 {
					t.Errorf("1-GPU potrf split = %.1f/%.1f, EXPERIMENTS.md fig11 records 56.2/43.8", smp, gpu)
				}
				continue
			}
			if gpu < smp {
				t.Errorf("GPU should take most potrf work: smp=%.1f gpu=%.1f", smp, gpu)
			}
		}
	})
}

func TestFig12Shape(t *testing.T) {
	eachSize(t, "fig12", func(t *testing.T, _ *size, rep *Report) {
		times := make(map[string]float64) // series/smp -> time
		for _, row := range rep.Rows {
			times[cell(rep, row, "series")+"/"+cell(rep, row, "SMP threads")] =
				cellF(t, rep, row, "time (s)")
		}
		// At 8 SMP threads: smp beats gpu; hybrid beats both.
		smp8, gpu8, hyb8 := times["pbpi-smp/8"], times["pbpi-gpu-dep/8"], times["pbpi-hyb-ver/8"]
		if smp8 >= gpu8 {
			t.Errorf("pbpi-smp (%.2fs) should beat pbpi-gpu (%.2fs) at 8 threads", smp8, gpu8)
		}
		if hyb8 >= smp8 || hyb8 >= gpu8 {
			t.Errorf("pbpi-hyb (%.2fs) should beat both (smp %.2fs, gpu %.2fs)", hyb8, smp8, gpu8)
		}
	})
}

func TestFig13Shape(t *testing.T) {
	eachSize(t, "fig13", func(t *testing.T, _ *size, rep *Report) {
		for _, row := range rep.Rows {
			if cell(rep, row, "series") == "pbpi-smp" {
				total := cellF(t, rep, row, "Input Tx") + cellF(t, rep, row, "Output Tx") + cellF(t, rep, row, "Device Tx")
				if total != 0 {
					t.Errorf("pbpi-smp transferred %.2f GB, want 0", total)
				}
			}
		}
	})
}

func TestFig14And15Shape(t *testing.T) {
	eachSize(t, "fig14", func(t *testing.T, _ *size, rep *Report) {
		for _, row := range rep.Rows {
			if gpu := cellF(t, rep, row, "GPU"); gpu < 50 {
				t.Errorf("loop1 GPU share %.1f%%, paper sends loop1 mostly to the GPU", gpu)
			}
		}
	})
	eachSize(t, "fig15", func(t *testing.T, _ *size, rep *Report) {
		last := rep.Rows[len(rep.Rows)-1]
		if smp := cellF(t, rep, last, "SMP"); smp < 20 {
			t.Errorf("loop2 SMP share at max threads = %.1f%%, want a substantial split", smp)
		}
	})
}

func TestTable1Shape(t *testing.T) {
	eachSize(t, "table1", func(t *testing.T, _ *size, rep *Report) {
		text := rep.Format()
		for _, want := range []string{"task1", "task2", "2.0 MB", "3.0 MB", "5.0 MB", "task1-v2"} {
			if !strings.Contains(text, want) {
				t.Errorf("table1 missing %q:\n%s", want, text)
			}
		}
	})
}

func TestFig5Shape(t *testing.T) {
	eachSize(t, "fig5", func(t *testing.T, _ *size, rep *Report) {
		shares := make(map[string]float64)
		for _, row := range rep.Rows {
			shares[cell(rep, row, "version")] = cellF(t, rep, row, "share")
		}
		if shares["kernel_smp"] < 10 {
			t.Errorf("SMP share %.1f%%: the idle SMP worker should receive a real share", shares["kernel_smp"])
		}
		if shares["kernel_gpu"] < shares["kernel_smp"] {
			t.Errorf("GPU should still take the majority: %v", shares)
		}
	})
}

// TestFig5HonoursNoise: fig5 drives its own runtime, and the noise
// option must reach it as it reaches every other experiment.
func TestFig5HonoursNoise(t *testing.T) {
	rows := func(noise float64) [][]string {
		reps, err := Run([]Experiment{fig5}, Options{Seed: 7, Noise: noise})
		if err != nil {
			t.Fatal(err)
		}
		return reps[0].Rows
	}
	exact, jittered := rows(0), rows(0.3)
	if slices.EqualFunc(exact, jittered, slices.Equal) {
		t.Errorf("fig5 rows at noise 0.3 equal those at noise 0: %v", exact)
	}
}
