// Chaos — the versioning scheduler re-adapting to a mid-run GPU
// dropout. PBPI (the paper's third workload) runs hybrid under
// versioning while a deterministic fault plan drops gpu0 at 40% of the
// no-chaos makespan: its in-flight tasks fail, are re-queued, and
// complete exactly once on the surviving devices while the per-task
// profiles re-learn the new machine.
//
// Everything is simulated in virtual time, so the same spec string
// produces byte-identical faults on every run — chaos specs are
// campaign axes, not randomness.
//
// Run: go run ./examples/chaos
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/ompss"
)

// run simulates the workload under a chaos spec. Percent-relative
// points ("drop@40%") are anchored to horizon, the no-chaos makespan of
// the same configuration: the clean run's Elapsed, since the simulation
// is deterministic.
func run(spec string, horizon time.Duration) ompss.Result {
	r, err := ompss.NewRuntime(ompss.Config{
		Scheduler:  "versioning",
		SMPWorkers: 8,
		GPUs:       2,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := apps.BuildPBPI(r, apps.PBPIConfig{Generations: 40, Variant: apps.PBPIHybrid}); err != nil {
		log.Fatal(err)
	}
	plan, err := chaos.Parse(spec)
	if err != nil {
		log.Fatal(err)
	}
	if err := plan.Arm(r.Runtime, horizon); err != nil {
		log.Fatal(err)
	}
	return r.Execute()
}

func main() {
	fmt.Println("PBPI hybrid, versioning scheduler, 8 SMP threads + 2 GPUs")
	fmt.Println()

	clean := run("", 0)
	drop := run("gpu0:drop@40%", clean.Elapsed)
	blip := run("gpu0:drop@40%+recover@70%", clean.Elapsed)

	for _, row := range []struct {
		label string
		res   ompss.Result
	}{
		{"no chaos                 ", clean},
		{"gpu0 dropped at 40%      ", drop},
		{"gpu0 out from 40% to 70% ", blip},
	} {
		fmt.Printf("%s %6.2f s   faults=%d requeued=%d readapt=%.3fs\n",
			row.label, row.res.Elapsed.Seconds(),
			row.res.FaultsInjected, row.res.TasksRequeued, row.res.ReadaptSec)
	}

	fmt.Println()
	fmt.Printf("loop-1 split, no chaos:    %v\n", clean.VersionCounts[apps.PBPILoop1Type])
	fmt.Printf("loop-1 split, gpu0 down:   %v\n", drop.VersionCounts[apps.PBPILoop1Type])

	// Determinism check: rerunning the same chaos spec reproduces the
	// run byte-for-byte — same makespan, same fault and requeue counts.
	again := run("gpu0:drop@40%", clean.Elapsed)
	if again.Elapsed != drop.Elapsed || again.TasksRequeued != drop.TasksRequeued {
		log.Fatalf("chaos run not deterministic: %v/%d vs %v/%d",
			again.Elapsed, again.TasksRequeued, drop.Elapsed, drop.TasksRequeued)
	}
	fmt.Printf("\ndeterminism: identical makespan (%.6fs) and requeue count (%d) on re-run\n",
		drop.Elapsed.Seconds(), drop.TasksRequeued)
}
