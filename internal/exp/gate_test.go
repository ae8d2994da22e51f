package exp

import (
	"strings"
	"testing"
)

// TestOneSpecGate: every entry point rejects a bad spec before the first
// simulation, with an error naming the cause. A Campaign over a grid or
// an explicit spec list fails without calling its runner even when the
// bad cell is not the first, and Grid.Validate, NewWatcher and a bare
// Run agree with it.
func TestOneSpecGate(t *testing.T) {
	good := RunSpec{App: "pbpi-smp", Scheduler: "bf", SMPWorkers: 2, Seed: 1}
	bogusChaos, badAlpha := good, good
	bogusChaos.Chaos = "bogus"
	badAlpha.EWMAAlpha = 7
	cases := []struct {
		name  string
		grid  Grid      // a grid campaign when specs is nil
		specs []RunSpec // an explicit-spec campaign; the last one is bad
		want  string
	}{
		{name: "grid GPU axis 0 under a GPU-main app",
			grid: Grid{Apps: []string{"pbpi-smp", "matmul-hyb"}, Schedulers: []string{"bf"},
				SMPWorkers: []int{2}, GPUs: []int{0}},
			want: "needs at least 1 GPU"},
		{name: "grid chaos axis that does not parse",
			grid: Grid{Apps: []string{"pbpi-smp"}, Schedulers: []string{"bf"},
				SMPWorkers: []int{2}, GPUs: []int{0}, Chaos: []string{"none", "bogus"}},
			want: `"bogus"`},
		{name: "spec chaos that does not parse", specs: []RunSpec{good, bogusChaos}, want: `"bogus"`},
		{name: "spec EWMA alpha outside [0, 1]", specs: []RunSpec{good, badAlpha}, want: "EWMA alpha 7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: err = %v, want one naming %s", what, err, tc.want)
				}
			}
			runs := 0
			c := &Campaign{Grid: tc.grid, Specs: tc.specs, Parallel: 1,
				run: func(s RunSpec) (RunResult, error) { runs++; return fakeRun(s) }}
			_, _, err := c.Execute()
			check("Campaign", err)
			if runs != 0 {
				t.Errorf("Campaign simulated %d cell(s) before failing, want 0", runs)
			}
			if tc.specs != nil {
				_, err := Run(tc.specs[len(tc.specs)-1])
				check("Run", err)
				return
			}
			check("Grid.Validate", tc.grid.Validate())
			_, err = NewWatcher(nil, tc.grid)
			check("NewWatcher", err)
		})
	}
}
