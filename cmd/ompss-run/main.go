// Command ompss-run executes one application configuration and prints its
// result summary, per-version statistics and (optionally) the profiling
// store and a Chrome trace. It honours the NX_* environment variables
// (NX_SCHEDULE, NX_SMP_WORKERS, NX_GPUS, ...), mirroring how OmpSs runs
// are configured without recompiling.
//
// Usage:
//
//	ompss-run -app matmul -variant hyb -sched versioning -smp 8 -gpus 2
//	ompss-run -app cholesky -variant potrf-hyb -profile
//	ompss-run -app pbpi -variant gpu -sched dep -trace /tmp/run.json
//	ompss-run -app pbpi -sched versioning -chaos 'gpu0:drop@40%'
//	NX_SCHEDULE=affinity ompss-run -app matmul -variant gpu
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/stats"
	"repro/ompss"
)

func main() {
	var (
		app     = flag.String("app", "matmul", "application: matmul | cholesky | pbpi | stencil | nbody")
		variant = flag.String("variant", "", "application variant (matmul: gpu|hyb; cholesky: potrf-smp|potrf-gpu|potrf-hyb; pbpi: smp|gpu|hyb; stencil: gpu|smp|hyb; nbody: gpu|hyb)")
		schedF  = flag.String("sched", "versioning", "scheduler: versioning | dep | affinity | bf | wf | random")
		smp     = flag.Int("smp", 4, "SMP worker threads")
		gpus    = flag.Int("gpus", 2, "GPU workers")
		n       = flag.Int("n", 0, "problem size (elements; 0 = paper size)")
		gens    = flag.Int("generations", 60, "PBPI generations")
		seed    = flag.Int64("seed", 0, "jitter RNG seed")
		noise   = flag.Float64("noise", 0, "execution-time jitter sigma")
		lambda  = flag.Int("lambda", 0, "versioning learning threshold (0 = default)")
		hintsF  = flag.String("hints", "", "versioning XML hints file (loaded if present, saved after the run)")
		chaosF  = flag.String("chaos", "", "chaos fault-injection spec, e.g. 'gpu0:drop@40%;gpu1:stragglex0.5' (see internal/chaos; percent points trigger a no-chaos baseline pre-run)")
		profile = flag.Bool("profile", false, "print the profiling store (Table I) after the run")
		traceF  = flag.String("trace", "", "write a Chrome trace-event JSON file")
		statsF  = flag.Bool("stats", false, "print per-worker utilization and per-type timing breakdown")
		verify  = flag.Bool("verify", false, "run real computations at a small size and check the numerics")
	)
	flag.Parse()

	cfg, err := ompss.FromEnv(ompss.Config{
		Scheduler:   *schedF,
		SMPWorkers:  *smp,
		GPUs:        *gpus,
		Seed:        *seed,
		NoiseSigma:  *noise,
		Lambda:      *lambda,
		HintsFile:   *hintsF,
		RealCompute: *verify,
	})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := chaos.Parse(*chaosF)
	if err != nil {
		log.Fatal(err)
	}
	r, err := ompss.NewRuntime(cfg)
	if err != nil {
		log.Fatal(err)
	}

	build := func(r *ompss.Runtime) func() error {
		var check func() error
		switch *app {
		case "matmul":
			c := apps.MatmulConfig{N: *n, Variant: apps.MatmulVariant(defStr(*variant, "hyb")), Verify: *verify}
			if *verify && *n == 0 {
				c.N, c.BS = 128, 32
			}
			a, err := apps.BuildMatmul(r, c)
			if err != nil {
				log.Fatal(err)
			}
			check = a.Check
		case "cholesky":
			c := apps.CholeskyConfig{N: *n, Variant: apps.CholeskyVariant(defStr(*variant, "potrf-hyb")), Verify: *verify}
			if *verify && *n == 0 {
				c.N, c.BS = 128, 32
			}
			a, err := apps.BuildCholesky(r, c)
			if err != nil {
				log.Fatal(err)
			}
			check = a.Check
		case "pbpi":
			c := apps.PBPIConfig{Elements: *n, Generations: *gens, Variant: apps.PBPIVariant(defStr(*variant, "hyb")), Verify: *verify}
			if *verify && *n == 0 {
				c.Elements, c.Segments, c.Loop2Chunks, c.Generations = 1024, 4, 4, 6
			}
			a, err := apps.BuildPBPI(r, c)
			if err != nil {
				log.Fatal(err)
			}
			check = func() error {
				fmt.Printf("final log-likelihood: %.6f\n", a.LogLik)
				return nil
			}
		case "stencil":
			c := apps.StencilConfig{N: *n, Variant: apps.StencilVariant(defStr(*variant, "hyb")), Verify: *verify}
			if *verify && *n == 0 {
				c.N, c.BS, c.Sweeps = 64, 16, 4
			}
			a, err := apps.BuildStencil(r, c)
			if err != nil {
				log.Fatal(err)
			}
			check = a.Check
		case "nbody":
			c := apps.NBodyConfig{N: *n, Variant: apps.NBodyVariant(defStr(*variant, "hyb")), Verify: *verify}
			if *verify && *n == 0 {
				c.N, c.BS, c.Steps = 64, 16, 2
			}
			a, err := apps.BuildNBody(r, c)
			if err != nil {
				log.Fatal(err)
			}
			check = a.Check
		default:
			log.Fatalf("unknown app %q", *app)
		}
		return check
	}
	check := build(r)

	if !plan.Empty() {
		var horizon time.Duration
		if plan.NeedsHorizonOn(r.Runtime) {
			// Percent points are fractions of the no-chaos makespan, so
			// resolve them against a deterministic baseline pre-run of the
			// exact same configuration (same seed, same noise, no faults).
			base, err := ompss.NewRuntime(cfg)
			if err != nil {
				log.Fatal(err)
			}
			build(base)
			horizon = execute(base).Elapsed
		}
		if err := plan.Arm(r.Runtime, horizon); err != nil {
			log.Fatal(err)
		}
	}

	res := execute(r)
	fmt.Println(res)
	if res.FaultsInjected > 0 {
		fmt.Printf("faults: injected=%d requeued=%d readapt=%.6fs\n",
			res.FaultsInjected, res.TasksRequeued, res.ReadaptSec)
	}
	// Emit in sorted task-type order: VersionCounts is a map, and map
	// order would shuffle these lines between otherwise identical runs.
	taskTypes := make([]string, 0, len(res.VersionCounts))
	for taskType := range res.VersionCounts {
		taskTypes = append(taskTypes, taskType)
	}
	sort.Strings(taskTypes)
	for _, taskType := range taskTypes {
		fmt.Printf("  %s: %v\n", taskType, res.VersionCounts[taskType])
	}
	if *verify {
		if err := check(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("numeric verification passed")
	}
	if *profile {
		fmt.Println()
		fmt.Print(r.ProfileTable())
	}
	if *statsF {
		fmt.Println()
		fmt.Print(stats.Summarize(r.Tracer()).Format())
	}
	if *hintsF != "" && r.ProfileStore() != nil {
		if err := r.SaveHints(*hintsF); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("profiles saved to %s\n", *hintsF)
	}
	if *traceF != "" {
		f, err := os.Create(*traceF)
		if err != nil {
			log.Fatal(err)
		}
		if err := r.Tracer().WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (open in chrome://tracing)\n", *traceF)
	}
}

// execute runs the simulation. A run that faults stranded — a chaos
// drop took every device able to run some queued task — exits 1 with the
// one-line StrandedError naming those task types and the down devices.
func execute(r *ompss.Runtime) ompss.Result {
	defer func() {
		if p := recover(); p != nil {
			if se, ok := p.(*ompss.StrandedError); ok {
				log.Fatal(se)
			}
			panic(p)
		}
	}()
	return r.Execute()
}

func defStr(v, def string) string {
	if v == "" {
		return def
	}
	return v
}
