// Command ompss-bench regenerates the paper's tables and figures: it
// resolves the selected experiment definitions in internal/harness —
// every figure's runs through one deduplicated campaign — and prints the
// same rows/series the paper reports.
//
// Usage:
//
//	ompss-bench                      # run every experiment at paper sizes
//	ompss-bench -experiment fig6     # one experiment
//	ompss-bench -quick               # reduced sizes (CI-friendly)
//	ompss-bench -seed 7 -noise 0.03  # jittered execution times
//	ompss-bench -list                # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/harness"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment ID to run (default: all)")
		quick      = flag.Bool("quick", false, "reduced problem sizes")
		seed       = flag.Int64("seed", 0, "jitter RNG seed")
		noise      = flag.Float64("noise", 0, "log-normal execution-time jitter sigma")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(harness.IDs(), "\n"))
		return
	}
	exps := harness.All()
	if *experiment != "" {
		e, ok := harness.ByID(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "ompss-bench: unknown experiment %q (have %v)\n", *experiment, harness.IDs())
			os.Exit(2)
		}
		exps = []harness.Experiment{e}
	}
	reps, err := harness.Run(exps, harness.Options{Quick: *quick, Seed: *seed, Noise: *noise})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ompss-bench: %v\n", err)
		os.Exit(1)
	}
	for _, rep := range reps {
		fmt.Println(rep.Format())
	}
}
