package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// goldenMixedGrid exercises every subsystem the engine refactors touch:
// all four compared schedulers, hybrid/GPU-only apps, a commutative
// workload (pbpi), a cluster machine shape, and every versioning
// extension knob, across two GPU counts and two seeds.
func goldenMixedGrid() Grid {
	return Grid{
		Apps:       []string{"matmul-hyb", "cholesky-potrf-hyb", "pbpi-hyb", "stencil", "randdag"},
		Schedulers: []string{"bf", "dep", "affinity", "versioning"},
		SMPWorkers: []int{2},
		GPUs:       []int{1, 2},
		Noise:      []float64{0.05},
		Size:       SizeTiny,
		Replicas:   2,
	}
}

// goldenKnobGrid covers the versioning extension axes and a cluster
// machine shape, which route through scheduling and transfer paths the
// plain grid never touches.
func goldenKnobGrid() Grid {
	return Grid{
		Apps:           []string{"matmul-hyb"},
		Schedulers:     []string{"versioning"},
		Machines:       []MachineSpec{MachineNode, "cluster:2x2+1g"},
		SMPWorkers:     []int{6},
		GPUs:           []int{2},
		Lambdas:        []int{0, 1},
		SizeTolerances: []float64{0, 0.5},
		EWMAAlphas:     []float64{0, 0.3},
		LocalityAware:  []bool{false, true},
		Noise:          []float64{0.1},
		Size:           SizeTiny,
		Replicas:       1,
	}
}

// goldenChaosGrid runs the mixed-grid apps and schedulers under fault
// injection: permanent and recovering GPU drops (one and two devices)
// and a throttle curve. It freezes the re-queue and busy-time-charge
// paths of the schedulers, which no fault-free cell reaches.
func goldenChaosGrid() Grid {
	g := goldenMixedGrid()
	g.GPUs = []int{2}
	g.Chaos = []string{
		"gpu0:drop@40%",
		"gpu1:drop@30%+recover@60%",
		"gpu0:drop@20%;gpu1:drop@50%+recover@80%",
		"gpu0:throttle@50%x0.5",
	}
	return g
}

// goldenBaselineGrid runs the baseline schedulers at paper size, where
// the central and per-worker ready queues build real backlogs (the tiny
// grids above barely queue anything): the GPU-main matmul and the
// hybrid-potrf Cholesky, with and without a recovering GPU dropout. On
// the 1-GPU shapes the chaos clause names no device and is inert.
func goldenBaselineGrid() Grid {
	return Grid{
		Apps:       []string{"matmul-hyb", "cholesky-potrf-hyb"},
		Schedulers: []string{"bf", "dep", "wf", "random"},
		SMPWorkers: []int{2},
		GPUs:       []int{1, 2},
		Chaos:      []string{"none", "gpu1:drop@40%+recover@70%"},
		Size:       SizeFull,
		Replicas:   1,
	}
}

// Frozen SHA-256 fingerprints of the sweep CSV for the golden grids,
// captured from the engine BEFORE the pooled/flattened hot-path rewrite
// (PR 6). The optimized engine must reproduce the pre-refactor output
// byte for byte: any change here is a simulation-behaviour change, not a
// performance change, and needs the spec-hash SimBehaviorVersion bumped
// plus a deliberate refresh of these constants.
//
// Refreshed when the chaos axis added CSV columns (chaos, requeued_mean,
// readapt_max_s): a rendering change, not a behaviour change — the
// makespan/gflops/tx values are unchanged, every no-chaos cell renders
// the new columns as empty/0, and SimBehaviorVersion stays at 1.
//
// The chaos fingerprint was captured before the map-free versioning
// and allocation-free staging rewrite, so it freezes the fault paths
// that rewrite touches.
//
// The baseline fingerprint was captured before the per-device-class
// ready queues, so it freezes the baseline policies' dispatch order.
const (
	goldenMixedCSVSHA    = "641bfc036123b1108d2c120ec1d2dc52dacaf7dd56185e08ad3c37a5120aaebb"
	goldenKnobCSVSHA     = "9615b8a3ac20558c6b3c68e5ac3c8b2dd67aa84315775fc316dc521babd267fc"
	goldenChaosCSVSHA    = "9b4286a7ea3831726aa557e455be00813157ddaf96d0bfb3afc051a886278dd1"
	goldenBaselineCSVSHA = "41e1555062a92f8348b6b72531e353188c9009588fdb4ad81d0761349098c90b"
)

func sweepCSVSHA(t *testing.T, g Grid, parallel int) string {
	t.Helper()
	res, err := runCampaign(g, nil, parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteCSV(&b, res); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestGoldenEngineFingerprint asserts the engine's observable behaviour
// is frozen across the hot-path optimization work: the sweep CSV over
// the mixed golden grids must hash to the pre-refactor values, at more
// than one pool width.
func TestGoldenEngineFingerprint(t *testing.T) {
	if got := sweepCSVSHA(t, goldenMixedGrid(), 1); got != goldenMixedCSVSHA {
		t.Errorf("mixed-grid CSV fingerprint changed:\n got %s\nwant %s", got, goldenMixedCSVSHA)
	}
	if got := sweepCSVSHA(t, goldenMixedGrid(), 4); got != goldenMixedCSVSHA {
		t.Errorf("mixed-grid CSV fingerprint changed at -parallel 4:\n got %s\nwant %s", got, goldenMixedCSVSHA)
	}
	if got := sweepCSVSHA(t, goldenKnobGrid(), 2); got != goldenKnobCSVSHA {
		t.Errorf("knob-grid CSV fingerprint changed:\n got %s\nwant %s", got, goldenKnobCSVSHA)
	}
	if got := sweepCSVSHA(t, goldenChaosGrid(), 2); got != goldenChaosCSVSHA {
		t.Errorf("chaos-grid CSV fingerprint changed:\n got %s\nwant %s", got, goldenChaosCSVSHA)
	}
	if got := sweepCSVSHA(t, goldenBaselineGrid(), 2); got != goldenBaselineCSVSHA {
		t.Errorf("baseline-grid CSV fingerprint changed:\n got %s\nwant %s", got, goldenBaselineCSVSHA)
	}
}
