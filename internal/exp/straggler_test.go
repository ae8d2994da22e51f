//go:build unix

package exp

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"
)

// The straggler battery reproduces the ROADMAP issue — claim order was
// expansion order, so a fleet could serialize on the biggest cell drawn
// last — and proves the cost planner fixes it: a claim worker with a
// warm cost map claims most-expensive-first, so the last-claimed cell is
// no longer the biggest one.

// stragglerGrid expands, in order, to one cell each of matmul (cheap),
// stencil (medium) and cholesky (expensive, per the warmed cost map):
// under expansion order the expensive cell is claimed last.
func stragglerGrid() Grid {
	return Grid{
		Apps:       []string{"matmul-hyb", "stencil", "cholesky-potrf-hyb"},
		Schedulers: []string{"bf"},
		SMPWorkers: []int{2},
		GPUs:       []int{1},
		Noise:      []float64{0},
		Replicas:   1,
	} // 3 runs
}

// stragglerCosts is the warm cost map: wall seconds per app, recorded
// under a seed outside the grid so the grid's own cells stay uncached.
var stragglerCosts = map[string]float64{
	"matmul-hyb":         0.01,
	"stencil":            1.0,
	"cholesky-potrf-hyb": 5.0,
}

// stragglerWorkerMain is the subprocess body (see TestMain): one serial
// claim worker over the shared cache, planning with the named planner,
// printing "claimed <hash>" to stdout at every lease acquisition.
func stragglerWorkerMain(dir, plan string) int {
	cache, err := OpenDirStore(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	planner, err := NewPlanner(plan, cache)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	camp := Campaign{
		Grid:     stragglerGrid(),
		Store:    cache,
		Parallel: 1, // serial: the claim order is exactly the plan order
		Planner:  planner,
		Claim:    &ClaimOptions{Owner: "straggler-worker"},
		Observer: ObserverFunc(func(ev Event) {
			if lc, ok := ev.(LeaseClaimed); ok {
				fmt.Printf("claimed %s\n", lc.Hash)
			}
		}),
		run: fakeRun,
	}
	if _, _, err := camp.Execute(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// warmStragglerCosts stores one cost-bearing cell per app (seed 999,
// outside the grid) so the worker's CostModel has an exact-key estimate
// for every grid cell without any grid cell being cached.
func warmStragglerCosts(t *testing.T, dir string) {
	t.Helper()
	cache, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for app, cost := range stragglerCosts {
		spec := RunSpec{App: app, Scheduler: "bf", SMPWorkers: 2, GPUs: 1, Seed: 999}
		rr, err := fakeRun(spec)
		if err != nil {
			t.Fatal(err)
		}
		rr.Wall = time.Duration(cost * float64(time.Second))
		if err := cache.StoreCell(rr); err != nil {
			t.Fatal(err)
		}
	}
}

// claimOrder runs one straggler worker subprocess under the given plan
// and returns the apps in lease-claim order.
func claimOrder(t *testing.T, plan string) []string {
	t.Helper()
	dir := t.TempDir()
	warmStragglerCosts(t, dir)

	byHash := map[string]string{}
	for _, s := range stragglerGrid().Runs() {
		s.fillDefaults()
		byHash[s.Hash()] = s.App
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(), stragglerWorkerEnv+"="+dir, stragglerPlanEnv+"="+plan)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("straggler worker (plan=%s): %v", plan, err)
	}

	var apps []string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		var hash string
		if _, err := fmt.Sscanf(sc.Text(), "claimed %s", &hash); err != nil {
			t.Fatalf("unparsable worker line %q", sc.Text())
		}
		app, ok := byHash[hash]
		if !ok {
			t.Fatalf("worker claimed a hash outside the grid: %s", hash)
		}
		apps = append(apps, app)
	}
	if len(apps) != 3 {
		t.Fatalf("worker claimed %d cells (%v), want 3", len(apps), apps)
	}
	return apps
}

// TestStragglerClaimOrder is the satellite acceptance test: under
// expansion order the most expensive cell is claimed last (the
// straggler); under -plan cost with a warm cost map it is claimed first,
// and the last-claimed cell is one of the cheap ones.
func TestStragglerClaimOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	const expensive = "cholesky-potrf-hyb"

	order := claimOrder(t, "order")
	if got := order[len(order)-1]; got != expensive {
		t.Fatalf("expansion order should leave the expensive cell last, got %v", order)
	}

	cost := claimOrder(t, "cost")
	if got := cost[0]; got != expensive {
		t.Errorf("cost plan should claim the expensive cell first, got %v", cost)
	}
	if got := cost[len(cost)-1]; got == expensive {
		t.Errorf("cost plan still claims the expensive cell last: %v", cost)
	}
}
