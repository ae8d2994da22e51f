package harness

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

func quickOpts() Options { return Options{Quick: true} }

func runExp(t *testing.T, id string) *Report {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	rep, err := e.Run(quickOpts())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return rep
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

// Figure 6 invariants that hold even at quick sizes.
func TestFig6Shape(t *testing.T) {
	rep := runExp(t, "fig6")
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
}

func TestFig7Shape(t *testing.T) {
	rep := runExp(t, "fig7")
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
}

func TestFig8Shape(t *testing.T) {
	rep := runExp(t, "fig8")
	prevSMP := -1.0
	for _, row := range rep.Rows {
		if cell(rep, row, "GPUs") != "1" {
			continue
		}
		smpShare := cellF(t, rep, row, "SMP")
		cublas := cellF(t, rep, row, "CUBLAS")
		cuda := cellF(t, rep, row, "CUDA")
		if cublas < 80 {
			t.Errorf("CUBLAS share %.1f%% should dominate", cublas)
		}
		if cuda > 5 {
			t.Errorf("hand-CUDA share %.1f%% should be a sliver", cuda)
		}
		if smpShare < prevSMP {
			t.Errorf("SMP share should grow with SMP threads: %.1f after %.1f", smpShare, prevSMP)
		}
		prevSMP = smpShare
	}
}

func TestFig9Shape(t *testing.T) {
	rep := runExp(t, "fig9")
	best := make(map[string]float64)
	for _, row := range rep.Rows {
		key := cell(rep, row, "series") + "/" + cell(rep, row, "GPUs")
		if v := cellF(t, rep, row, "GFLOP/s"); v > best[key] {
			best[key] = v
		}
	}
	for _, gpus := range []string{"1", "2"} {
		smp := best["potrf-smp-dep/"+gpus]
		gpu := best["potrf-gpu-dep/"+gpus]
		if smp >= gpu {
			t.Errorf("gpus=%s: potrf-smp (%.1f) should be worst, potrf-gpu %.1f", gpus, smp, gpu)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	rep := runExp(t, "fig11")
	for _, row := range rep.Rows {
		smp := cellF(t, rep, row, "potrf SMP")
		gpu := cellF(t, rep, row, "potrf GPU")
		if diff := smp + gpu - 100; diff > 0.5 || diff < -0.5 {
			t.Errorf("shares should sum to 100%%: %.1f + %.1f", smp, gpu)
		}
		if gpu < smp {
			t.Errorf("GPU should take most potrf work: smp=%.1f gpu=%.1f", smp, gpu)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	rep := runExp(t, "fig12")
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
}

func TestFig13Shape(t *testing.T) {
	rep := runExp(t, "fig13")
	for _, row := range rep.Rows {
		if cell(rep, row, "series") == "pbpi-smp" {
			total := cellF(t, rep, row, "Input Tx") + cellF(t, rep, row, "Output Tx") + cellF(t, rep, row, "Device Tx")
			if total != 0 {
				t.Errorf("pbpi-smp transferred %.2f GB, want 0", total)
			}
		}
	}
}

func TestFig14And15Shape(t *testing.T) {
	rep14 := runExp(t, "fig14")
	for _, row := range rep14.Rows {
		if gpu := cellF(t, rep14, row, "GPU"); gpu < 50 {
			t.Errorf("loop1 GPU share %.1f%%, paper sends loop1 mostly to the GPU", gpu)
		}
	}
	rep15 := runExp(t, "fig15")
	last := rep15.Rows[len(rep15.Rows)-1]
	if smp := cellF(t, rep15, last, "SMP"); smp < 20 {
		t.Errorf("loop2 SMP share at max threads = %.1f%%, want a substantial split", smp)
	}
}

func TestTable1Shape(t *testing.T) {
	rep := runExp(t, "table1")
	text := rep.Format()
	for _, want := range []string{"task1", "task2", "2.0 MB", "3.0 MB", "5.0 MB", "task1-v2"} {
		if !strings.Contains(text, want) {
			t.Errorf("table1 missing %q:\n%s", want, text)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	rep := runExp(t, "fig5")
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
}
