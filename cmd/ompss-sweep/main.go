// Command ompss-sweep runs parallel experiment campaigns: it expands a
// declarative grid (apps x schedulers x machine shapes x worker counts x
// extension knobs x noise x seed replicas) into independent simulation
// runs, executes them across a bounded worker pool, and writes per-cell
// percentile/CI summaries as CSV, JSON and a text table.
//
// Each run's simulation engine is single-threaded and deterministic, so
// the CSV/JSON outputs are byte-identical at any -parallel value.
//
// The CLI is a thin shell over internal/exp's Campaign engine; every
// mode below composes the same three extension points:
//
//   - Planner (-plan order|cost): execution order of uncached cells.
//     "cost" prefers expensive cells using wall costs recorded in the
//     cache, so claim fleets stop serializing on a late big cell.
//   - Observer: drives the progress line, and — for every cached
//     campaign — streams the event history to the campaign journal
//     (<cache>/journal/<owner>.jsonl, one append-only JSONL file per
//     claimant) that powers the live -watch dashboard.
//   - ArtifactSink (-trace-dir DIR, -chrome-trace-dir DIR): one Paraver
//     .prv/.pcf pair and/or one Chrome trace-event .trace.json per
//     freshly simulated run. Cached cells are not re-simulated and so
//     emit no artifacts (use a fresh cache directory to re-export).
//
// -budget D bounds a cached campaign's estimated spend: uncached cells
// are claimed most-expensive-first (the cost plan) while cost-model
// estimates fit the budget; the rest are skipped and reported, never
// simulated. Skipped cells stay uncached, so a later run without
// -budget completes the grid byte-identically to a never-budgeted
// campaign — the budget decides which cells run, never their bytes.
//
// With -store URL campaigns are resumable: every completed run is stored
// as a cell named by its spec's content hash (with its wall cost), and
// later sweeps — including grown grids — only simulate cells whose hash
// the store has never seen. Cached cells reproduce their fresh output
// byte for byte. Two store schemes exist: dir:///path (a directory,
// also reachable as a bare path or via the historical -cache DIR alias)
// and http://host:port (an ompss-sweepd coordinator serving such a
// directory over the network).
//
// The store is also a coordination substrate: -procs N spawns N claim
// workers that partition one grid through atomically-granted leases,
// and -claim runs one such worker directly — launch several by hand on
// hosts sharing a filesystem (dir://) or on any hosts that can reach an
// ompss-sweepd coordinator (http://) to fan a campaign out across
// machines. Either way the merged output is byte-identical to a
// single-process -parallel 1 run. `-watch URL` tails such a campaign
// from any host: cells done, leases outstanding with owner, process and
// heartbeat age (flagged "stale?" past 3/4 of the TTL), plus — whenever
// the claimants journaled — live rates per claimant and a cost-model
// ETA over the uncached rest.
//
// After the campaign, `-replay URL` dissects it from the journals
// alone: per-claimant busy timelines, lease contention, reclaim
// storms, the wall-cost histogram, and an exactly-once audit — all
// deterministic, so two invocations render byte-identical text, CSV
// (-csv) and JSON (-json). -what-if-plan/-what-if-procs/-budget
// re-plan the recorded campaign with its journaled wall costs and
// report the projected makespan delta without running a single
// simulation. Long campaigns bound their journal with -journal-rotate:
// each claimant spills a closed segment at the byte threshold and
// folds the directory's segments into a checkpoint right away (one
// compactor at a time across the fleet, through a lock file), which
// leaves every journal reader's output unchanged.
//
// Usage:
//
//	ompss-sweep                              # default 96-run campaign
//	ompss-sweep -parallel 8 -csv out.csv     # 8 workers, CSV to a file
//	ompss-sweep -apps matmul-hyb,pbpi-hyb -schedulers dep,versioning \
//	            -smp 1,2,4 -gpus 1,2 -noise 0.02,0.1 -replicas 5
//	ompss-sweep -machines node,cluster:2x4+1g -smp 12 -gpus 2
//	ompss-sweep -cache .sweep-cache -csv out.csv   # resumable campaign
//	ompss-sweep -cache .sweep-cache -trace-dir traces/  # per-run Paraver
//	ompss-sweep -cache .sweep-cache -plan cost     # expensive cells first
//	ompss-sweep -cache .sweep-cache -budget 90s    # stop at estimated spend
//	ompss-sweep -cache .sweep-cache -chrome-trace-dir chrome/  # per-run Chrome traces
//	ompss-sweep -cache /shared/c -procs 4 -csv out.csv  # 4-process fan-out
//	ompss-sweep -cache /shared/c -claim      # one worker, e.g. per host
//	ompss-sweep -store http://coord:8427 -claim  # join a fleet over the network
//	ompss-sweep -watch /shared/c             # tail a campaign from anywhere
//	ompss-sweep -watch http://coord:8427     # same, via the coordinator
//	ompss-sweep -replay /shared/c            # post-mortem forensics timeline
//	ompss-sweep -replay /shared/c -what-if-plan cost -what-if-procs 8
//	ompss-sweep -cache /shared/c -procs 4 -journal-rotate 1048576  # bounded, self-compacting journal
//	ompss-sweep -cost-csv costs.csv -cache .sweep-cache  # per-run wall costs
//	ompss-sweep -list-apps                   # registered applications
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/sweepd"
)

func main() {
	var (
		appsFlag    = flag.String("apps", strings.Join(exp.DefaultApps(), ","), "comma-separated app names")
		schedFlag   = flag.String("schedulers", strings.Join(exp.DefaultSchedulers(), ","), "comma-separated scheduler names")
		machineFlag = flag.String("machines", "", "comma-separated machine shapes: node, cluster:RxC, cluster:RxC+Gg (default node)")
		smpFlag     = flag.String("smp", "2,4", "comma-separated SMP worker counts")
		gpuFlag     = flag.String("gpus", "1,2", "comma-separated GPU counts")
		lambdaFlag  = flag.String("lambdas", "", "comma-separated versioning learning thresholds (0 = paper default 3)")
		tolFlag     = flag.String("size-tolerances", "", "comma-separated size-grouping tolerances (0 = exact matching)")
		ewmaFlag    = flag.String("ewma-alphas", "", "comma-separated EWMA alphas in [0,1] (0 = arithmetic mean)")
		localFlag   = flag.String("locality", "", "comma-separated bools for the locality-aware extension (default false)")
		chaosFlag   = flag.String("chaos", "", "comma-separated chaos fault-injection specs, e.g. 'none,gpu1:drop@40%' (clauses inside one spec join with ';'; none = no faults; default no chaos axis)")
		noiseFlag   = flag.String("noise", "0.05", "comma-separated jitter sigmas")
		replicas    = flag.Int("replicas", 3, "seed replicas per cell")
		seed        = flag.Int64("seed", 1, "base seed for the replica seeds (0 = default 1)")
		sizeFlag    = flag.String("size", "tiny", "problem size tier: tiny, quick or full")
		parallel    = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size (1 = serial)")
		storeURL    = flag.String("store", "", "campaign store URL: dir:///path or http://host:port (an ompss-sweepd coordinator); skip runs the store has seen, store new ones")
		cachePath   = flag.String("cache", "", "campaign cache directory (alias for -store dir://DIR)")
		planFlag    = flag.String("plan", "order", "uncached-cell execution order: order (grid expansion) or cost (most expensive first, from costs recorded in -cache)")
		budgetFlag  = flag.Duration("budget", 0, "stop claiming new cells once cost-model estimates of the admitted work would exceed this many simulation-seconds (requires -cache; implies -plan cost; skipped cells are reported and left for an unbudgeted resume)")
		traceDir    = flag.String("trace-dir", "", "write one Paraver .prv/.pcf pair per freshly simulated run into this directory")
		chromeDir   = flag.String("chrome-trace-dir", "", "write one Chrome trace-event .trace.json per freshly simulated run into this directory")
		procs       = flag.Int("procs", 1, "spawn this many claim-worker processes over -cache and merge their results")
		claim       = flag.Bool("claim", false, "run as one claim worker: lease uncached cells of -cache, simulate, store, exit when the grid is fully cached")
		leaseTTL    = flag.Duration("lease-ttl", exp.DefaultLeaseTTL, "claim-mode lease staleness threshold (crashed workers' cells are reclaimed after this)")
		watchDir    = flag.String("watch", "", "tail this campaign store — a directory, dir:// URL or http:// coordinator — (cells done, leases outstanding) instead of sweeping; uses the grid flags for the total")
		watchEvery  = flag.Duration("watch-interval", time.Second, "poll interval for -watch")
		replayDir   = flag.String("replay", "", "render this campaign store's forensics timeline from its journals (per-claimant Gantt, contention, reclaim storms, cost histogram, exactly-once audit) and exit; -csv/-json write the per-cell table / full report")
		whatIfPlan  = flag.String("what-if-plan", "", "with -replay: re-plan the recorded campaign under this planner (order or cost) using journaled wall costs and report the projected wall-time delta — zero simulations")
		whatIfProcs = flag.Int("what-if-procs", 0, "with -replay: what-if claimant count (0 = the recorded claimant count); -budget replays the admission rule too")
		rotateBytes = flag.Int64("journal-rotate", 0, "rotate this process's campaign journal file once it would exceed `bytes`, folding the closed segments into a checkpoint (0 = never; dir stores only — http claimants journal at the coordinator, see ompss-sweepd -journal-rotate)")
		csvPath     = flag.String("csv", "", "write per-cell CSV to this file (- for stdout)")
		jsonPath    = flag.String("json", "", "write per-cell JSON to this file (- for stdout)")
		costCSV     = flag.String("cost-csv", "", "write per-run wall-clock cost CSV to this file (- for stdout; execution facts, not deterministic)")
		costJSON    = flag.String("cost-json", "", "write per-run wall-clock cost JSON to this file (- for stdout)")
		quiet       = flag.Bool("quiet", false, "suppress the progress and cache-stats lines")
		noSummary   = flag.Bool("no-summary", false, "suppress the text summary table")
		listApps    = flag.Bool("list-apps", false, "list registered applications and exit")
	)
	flag.Parse()

	if *listApps {
		fmt.Println(strings.Join(exp.AppNames(), "\n"))
		return
	}

	// The size default is decided here, visibly, not inside ParseSize:
	// an explicitly empty -size is an error, absence means tiny (the
	// flag's default value).
	size, err := exp.ParseSize(*sizeFlag)
	if err != nil {
		fatal(err)
	}
	grid := exp.Grid{
		Apps:           splitList(*appsFlag),
		Schedulers:     splitList(*schedFlag),
		Machines:       mustMachines(*machineFlag),
		SMPWorkers:     mustInts(*smpFlag),
		GPUs:           mustInts(*gpuFlag),
		Lambdas:        mustInts(*lambdaFlag),
		SizeTolerances: mustFloats(*tolFlag),
		EWMAAlphas:     mustFloats(*ewmaFlag),
		LocalityAware:  mustBools(*localFlag),
		Chaos:          splitList(*chaosFlag),
		Noise:          mustFloats(*noiseFlag),
		Size:           size,
		Replicas:       *replicas,
		BaseSeed:       *seed,
	}
	if err := grid.Validate(); err != nil {
		fatal(err)
	}

	if *watchDir != "" {
		if *claim || *procs > 1 {
			fatal(fmt.Errorf("-watch is an observer, not a worker: drop -claim/-procs"))
		}
		if *replayDir != "" {
			fatal(fmt.Errorf("-watch tails a live campaign, -replay dissects a finished one; pass one"))
		}
		if *watchEvery < 100*time.Millisecond {
			// The watch directory is typically a shared filesystem; a
			// zero/negative interval would busy-loop ReadDir+Stat against
			// it, degrading it for the actual workers.
			fatal(fmt.Errorf("-watch-interval %v is below the 100ms minimum", *watchEvery))
		}
		watch(*watchDir, grid, *watchEvery, *leaseTTL)
		return
	}

	if *replayDir != "" {
		if *claim || *procs > 1 {
			fatal(fmt.Errorf("-replay is a reader, not a worker: drop -claim/-procs"))
		}
		replay(*replayDir, replayOptions{
			csvPath:   *csvPath,
			jsonPath:  *jsonPath,
			plan:      *whatIfPlan,
			workers:   *whatIfProcs,
			budget:    *budgetFlag,
			noSummary: *noSummary,
		})
		return
	}

	// -cache DIR is the historical spelling of -store dir://DIR; exactly
	// one of the two may name the store.
	target := *storeURL
	if *cachePath != "" {
		if target != "" {
			fatal(fmt.Errorf("-store and -cache name the same thing; pass one (got -store %s -cache %s)", *storeURL, *cachePath))
		}
		target = *cachePath // bare paths open as dir stores
	}
	var store exp.CellStore
	if target != "" {
		store, err = sweepd.OpenStore(target)
		if err != nil {
			fatal(err)
		}
		defer store.Close()
	}
	if *rotateBytes != 0 {
		if *rotateBytes < 0 {
			fatal(fmt.Errorf("-journal-rotate must be non-negative, got %d", *rotateBytes))
		}
		if store == nil {
			fatal(fmt.Errorf("-journal-rotate requires -store (or -cache): the journal lives in the store"))
		}
		// Only dir stores rotate locally; an http claimant's journal is
		// written (and rotated) by the coordinator, which has its own
		// -journal-rotate flag. The flag is still forwarded to -procs
		// workers, so every fleet member rotates at the same threshold.
		if ds, ok := store.(*exp.DirStore); ok {
			ds.SetJournalRotateBytes(*rotateBytes)
		}
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	switch {
	case *claim && *procs != 1:
		fatal(fmt.Errorf("-claim and -procs are mutually exclusive (a worker never spawns workers)"))
	case *claim && store == nil:
		fatal(fmt.Errorf("-claim requires -store (or -cache): the shared store is the claim substrate"))
	case *procs < 1:
		fatal(fmt.Errorf("-procs must be at least 1, got %d", *procs))
	case *procs > 1 && store == nil:
		fatal(fmt.Errorf("-procs requires -store (or -cache): workers partition the grid through the shared store"))
	case (*claim || *procs > 1) && *leaseTTL < time.Second:
		// Library callers may pick shorter TTLs (tests do); at the CLI a
		// sub-second TTL only manufactures spurious reclaims on any real
		// filesystem, so reject it rather than default it silently.
		fatal(fmt.Errorf("-lease-ttl %v is below the 1s minimum", *leaseTTL))
	case *budgetFlag < 0:
		fatal(fmt.Errorf("-budget must be non-negative, got %v", *budgetFlag))
	case *budgetFlag > 0 && store == nil:
		fatal(fmt.Errorf("-budget requires -store (or -cache): the store records the wall costs the estimates come from"))
	case *budgetFlag > 0 && explicit["plan"] && *planFlag != "cost":
		fatal(fmt.Errorf("-budget campaigns claim in cost order; drop -plan %s", *planFlag))
	}
	if *budgetFlag > 0 {
		// Budgeted campaigns always run the cost plan: admitting cells
		// most-expensive-first is what makes a budget buy the most
		// valuable work. Set through the flag so claim workers inherit it.
		if err := flag.Set("plan", "cost"); err != nil {
			fatal(err)
		}
	}

	var (
		planner exp.Planner
		budget  *exp.BudgetOptions
	)
	if *budgetFlag > 0 {
		// One cost model, built once, shared by the planner and the
		// budget, so what the plan prefers and what the budget charges
		// can never disagree.
		model, err := exp.LoadCostModel(store)
		if err != nil {
			fatal(err)
		}
		planner = exp.CostPlanner{Model: model}
		budget = &exp.BudgetOptions{Limit: *budgetFlag, Model: model}
	} else {
		planner, err = exp.NewPlanner(*planFlag, store)
		if err != nil {
			fatal(err)
		}
	}
	camp := exp.Campaign{
		Grid:     grid,
		Store:    store,
		Parallel: *parallel,
		Planner:  planner,
		Budget:   budget,
	}
	var sinks []exp.ArtifactSink
	if *traceDir != "" {
		sink, err := exp.NewTraceDirSink(*traceDir)
		if err != nil {
			fatal(err)
		}
		sinks = append(sinks, sink)
	}
	if *chromeDir != "" {
		sink, err := exp.NewChromeTraceSink(*chromeDir)
		if err != nil {
			fatal(err)
		}
		sinks = append(sinks, sink)
	}
	camp.Sink = exp.MultiSink(sinks...)
	var progress exp.Observer
	if !*quiet {
		fmt.Fprintf(os.Stderr, "ompss-sweep: %d runs (%d cells x %d replicas), %d workers, plan=%s\n",
			grid.NumRuns(), grid.NumCells(), *replicas, *parallel, planner.Name())
		progress = progressRenderer(os.Stderr, grid.NumRuns())
	}
	// Every cached campaign journals its event history — the persistent
	// record behind the -watch rates/ETA — whatever mode runs it: the
	// in-process pool, a -claim worker, and each -procs fleet member all
	// write their own <cache>/journal/<owner>.jsonl.
	var journalRec *exp.JournalRecorder
	if store != nil {
		// The recorder opens its file lazily, on the first event worth
		// keeping, and never fails the campaign: a warm render from a
		// read-only shared cache journals nothing and keeps working (an
		// unwritable journal surfaces as the warning below).
		journalRec = exp.NewJournalRecorder(store, exp.DefaultOwner())
		camp.Observer = exp.MultiObserver(progress, journalRec)
	} else {
		camp.Observer = progress
	}

	var res *exp.SweepResult
	if *claim {
		camp.Claim = &exp.ClaimOptions{TTL: *leaseTTL}
		var stats exp.ClaimStats
		res, stats, err = camp.Execute()
		if !*quiet {
			fmt.Fprintln(os.Stderr)
		}
		if err != nil {
			fatal(err)
		}
		// The claim accounting prints even under -quiet: it is the
		// protocol evidence — CI sums simulated= across a worker fleet to
		// assert every cell was simulated exactly once.
		fmt.Fprintf(os.Stderr, "ompss-sweep: claim: %v store=%s\n", stats, store.Description())
	} else {
		cachedBeforeFleet := -1
		if *procs > 1 {
			if camp.Budget != nil {
				// Snapshot how much of the grid predates the fleet, so the
				// coordinator's skip report can state how many cells the
				// fleet actually admitted (grid - pre-existing - skipped).
				w, err := exp.NewWatcher(store, grid)
				if err != nil {
					fatal(err)
				}
				st, err := w.Status()
				if err != nil {
					fatal(err)
				}
				cachedBeforeFleet = st.Done
			}
			// Fan out: N claim workers partition the grid via cache
			// leases, each exiting once the grid is fully cached (or, under
			// -budget, once its admitted share is). The campaign below then
			// renders entirely from cache hits, so the output is
			// byte-identical to a single-process run.
			if err := spawnClaimWorkers(*procs, claimWorkerArgs(flag.CommandLine)); err != nil {
				fatal(err)
			}
			if camp.Budget != nil {
				// The fleet spent the budget; the coordinator must render,
				// not simulate. A zero limit admits nothing, so every cell
				// the workers skipped is reported here as skipped instead
				// of quietly run locally (the fleet's cost model moved when
				// its cells landed, so re-deciding admission would not be
				// the workers' decision). The report still prints -budget.
				camp.Budget.Limit = 0
			}
		}
		res, _, err = camp.Execute()
		if !*quiet {
			fmt.Fprintln(os.Stderr)
		}
		if err != nil {
			fatal(err)
		}
		if cachedBeforeFleet >= 0 {
			// The coordinator itself admitted nothing (zero limit);
			// report the fleet's admission decision instead, so the one
			// report the coordinator prints matches what actually ran.
			res.BudgetAdmitted = grid.NumRuns() - cachedBeforeFleet - len(res.Skipped)
		}
		if store != nil && !*quiet {
			// Machine-greppable resume accounting; CI asserts simulated=0
			// on a fully warm re-run and after a -procs fan-out. The
			// "cache:" prefix is part of the stable format; requeued=
			// appears only when this process's own simulations saw fault
			// injection, and preruns= only when some of them had to
			// pre-run their no-chaos baseline (a warm render or a -procs
			// coordinator shows neither — the workers report their own).
			extra := ""
			if res.Requeued > 0 {
				extra += fmt.Sprintf(" requeued=%d", res.Requeued)
			}
			if res.PreRuns > 0 {
				extra += fmt.Sprintf(" preruns=%d", res.PreRuns)
			}
			fmt.Fprintf(os.Stderr, "ompss-sweep: cache: simulated=%d cached=%d%s store=%s\n",
				res.Simulated, res.CacheHits, extra, store.Description())
		}
	}
	if camp.Budget != nil {
		// The skip report prints even under -quiet: like the claim stats
		// it is protocol evidence — CI greps it, and a budgeted campaign
		// that skipped silently would look complete.
		if err := exp.WriteSkipReport(prefixWriter(os.Stderr, "ompss-sweep: "), res, *budgetFlag); err != nil {
			fatal(err)
		}
	}
	if journalRec != nil {
		if jerr := journalRec.Err(); jerr != nil {
			fmt.Fprintf(os.Stderr, "ompss-sweep: warning: campaign journal incomplete: %v\n", jerr)
		}
		// A failed compaction pass never fails the append it rode on;
		// closing the journal is where it surfaces.
		if cerr := journalRec.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "ompss-sweep: warning: %v\n", cerr)
		}
	}

	for _, out := range []struct {
		path  string
		write func(io.Writer, *exp.SweepResult) error
	}{
		{*csvPath, exp.WriteCSV},
		{*jsonPath, exp.WriteJSON},
		{*costCSV, exp.WriteCostCSV},
		{*costJSON, exp.WriteCostJSON},
	} {
		if out.path != "" {
			if err := writeTo(out.path, func(w io.Writer) error { return out.write(w, res) }); err != nil {
				fatal(err)
			}
		}
	}
	if !*noSummary {
		fmt.Print(exp.FormatSummary(res))
	}
}

// progressRenderer consumes the campaign event stream and redraws the
// one-line progress display; lease reclaims get their own line (they
// are rare and worth an operator's attention). Budget skips count
// toward the displayed total — a skipped cell is settled, just not
// simulated — so a budgeted campaign's progress still ends at N/N.
// Events are delivered serialized, so the closure needs no lock.
func progressRenderer(w io.Writer, total int) exp.Observer {
	done := 0
	line := func(spec exp.RunSpec, tag string) {
		done++
		// \x1b[K clears the remnants of a longer previous line; the
		// terminating newline comes after the campaign returns.
		fmt.Fprintf(w, "\r\x1b[K[%d/%d] %v%s", done, total, spec, tag)
	}
	return exp.ObserverFunc(func(ev exp.Event) {
		switch ev := ev.(type) {
		case exp.CellDone:
			line(ev.Result.Spec, "")
		case exp.CellCached:
			line(ev.Result.Spec, " (cached)")
		case exp.CellSkipped:
			line(ev.Spec, " (skipped: over budget)")
		case exp.LeaseReclaimed:
			fmt.Fprintf(w, "\r\x1b[Kreclaimed stale lease %.12s...\n", ev.Hash)
		}
	})
}

// prefixWriter prefixes every output line with the CLI's tag, so
// multi-line reports (the budget skip report) stay greppable.
func prefixWriter(w io.Writer, prefix string) io.Writer {
	return &linePrefixer{w: w, prefix: prefix, atStart: true}
}

type linePrefixer struct {
	w       io.Writer
	prefix  string
	atStart bool
}

func (p *linePrefixer) Write(data []byte) (int, error) {
	written := 0
	for len(data) > 0 {
		if p.atStart {
			if _, err := io.WriteString(p.w, p.prefix); err != nil {
				return written, err
			}
			p.atStart = false
		}
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			n, err := p.w.Write(data)
			return written + n, err
		}
		n, err := p.w.Write(data[:i+1])
		written += n
		if err != nil {
			return written, err
		}
		p.atStart = true
		data = data[i+1:]
	}
	return written, nil
}

// watch tails a shared campaign store — a directory, dir:// URL or
// http:// coordinator: one status line per poll (cells done out of the
// grid the flags describe, leases outstanding with owner, process and
// heartbeat age), exiting once the campaign is complete and the leases
// have drained. Campaigns whose claimants journaled get a second line
// per poll — completion rate, per-claimant rates, and a cost-model ETA
// over the uncached remainder. Run it from any host that sees the
// filesystem or can reach the coordinator; it never writes, claims or
// simulates.
func watch(target string, grid exp.Grid, interval, ttl time.Duration) {
	store := openExisting("watch", target)
	defer store.Close()
	// The Watcher precomputes the grid's spec hashes once; each poll is
	// then grid-size map lookups over the store's manifest snapshot plus
	// a lease listing (and, with a journal, an incremental journal tail)
	// — never a cell read.
	watcher, err := exp.NewWatcher(store, grid)
	if err != nil {
		fatal(err)
	}
	watcher.TTL = ttl
	for {
		st, err := watcher.Status()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ompss-sweep: watch: %v\n", st)
		js, err := watcher.JournalStatus()
		if err != nil {
			fatal(err)
		}
		if js != nil {
			fmt.Printf("ompss-sweep: watch: %v\n", js)
			if owners := js.OwnersLine(); owners != "" {
				fmt.Printf("ompss-sweep: watch: claimants: %s\n", owners)
			}
		}
		if st.Done == st.Runs && len(st.Leases) == 0 {
			return
		}
		time.Sleep(interval)
	}
}

// replayOptions carries the -replay mode's rendering and what-if
// knobs (the -csv/-json flags are reused for the forensics outputs).
type replayOptions struct {
	csvPath, jsonPath string
	plan              string
	workers           int
	budget            time.Duration
	noSummary         bool
}

// replay renders a campaign's forensics report from its journals alone
// — no cell reads, no clock reads, no simulation — so the same store
// produces byte-identical output on every invocation, from any host.
// With what-if options it also re-plans the recorded campaign under a
// different planner/worker-count/budget, priced with the journaled
// wall costs.
func replay(target string, opt replayOptions) {
	store := openExisting("replay", target)
	defer store.Close()
	recs, stats, err := store.PollJournal()
	if err != nil {
		fatal(err)
	}
	if stats.Files == 0 {
		fatal(fmt.Errorf("-replay %s: no campaign journal to replay (only store-backed campaigns journal)", target))
	}
	rep := exp.NewReplayReport(store.Description(), recs, stats)
	if opt.plan != "" || opt.workers > 0 || opt.budget > 0 {
		wi, err := exp.ComputeWhatIf(rep.Timeline, exp.WhatIfOptions{
			Plan: opt.plan, Workers: opt.workers, Budget: opt.budget,
		})
		if err != nil {
			fatal(err)
		}
		rep.WhatIf = wi
	}
	if opt.csvPath != "" {
		if err := writeTo(opt.csvPath, rep.WriteCSV); err != nil {
			fatal(err)
		}
	}
	if opt.jsonPath != "" {
		if err := writeTo(opt.jsonPath, rep.WriteJSON); err != nil {
			fatal(err)
		}
	}
	if !opt.noSummary {
		if err := rep.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// openExisting opens the store a reader mode (-watch, -replay) names.
// A bare path names a directory; unlike a sweep, a reader must not
// create (and then happily read) an empty store on a typo.
func openExisting(mode, target string) exp.CellStore {
	if !strings.Contains(target, "://") {
		if _, err := os.Stat(target); err != nil {
			fatal(fmt.Errorf("-%s %s: %w", mode, target, err))
		}
	}
	store, err := sweepd.OpenStore(target)
	if err != nil {
		fatal(err)
	}
	return store
}

// writeTo runs write against the named file, or stdout for "-".
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// claimWorkerArgs reproduces the coordinator's grid-defining flags for a
// worker process, forcing claim mode and muting per-worker rendering
// (the coordinator renders once, from the merged cache). Every flag is
// passed explicitly — defaults included — so a worker can never drift
// from the coordinator's grid. -plan and -trace-dir are deliberately
// forwarded: workers claim in the planned order and write the trace
// artifacts for the cells they simulate.
func claimWorkerArgs(fl *flag.FlagSet) []string {
	skip := map[string]bool{
		"procs": true, "claim": true, "csv": true, "json": true,
		"cost-csv": true, "cost-json": true,
		"watch": true, "watch-interval": true,
		"replay": true, "what-if-plan": true, "what-if-procs": true,
		// -journal-rotate is deliberately forwarded: every fleet member
		// rotates its own journal file at the coordinator's threshold.
		"quiet": true, "no-summary": true, "list-apps": true,
	}
	args := []string{"-claim", "-quiet", "-no-summary"}
	fl.VisitAll(func(f *flag.Flag) {
		if !skip[f.Name] {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	return args
}

// spawnClaimWorkers re-execs this binary n times in claim mode and waits
// for the whole fleet. Without -budget a worker exits 0 only once the
// entire grid is cached, so a clean fleet implies a complete cache.
// Under -budget (forwarded to every worker) each worker exits once its
// *admitted* share is settled, so the cache is complete only up to the
// skipped cells — which is why the coordinator then marks its own
// budget spent and reports, rather than simulates, the remainder.
func spawnClaimWorkers(n int, args []string) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("resolving own binary for -procs: %w", err)
	}
	cmds := make([]*exec.Cmd, 0, n)
	for i := 0; i < n; i++ {
		c := exec.Command(exe, args...)
		// Workers write stats to stderr and render nothing; route their
		// stdout to stderr too so nothing can pollute a `-csv -` stream.
		c.Stdout = os.Stderr
		c.Stderr = os.Stderr
		if err := c.Start(); err != nil {
			for _, prev := range cmds {
				prev.Process.Kill()
				prev.Wait()
			}
			return fmt.Errorf("starting claim worker %d/%d: %w", i+1, n, err)
		}
		cmds = append(cmds, c)
	}
	var firstErr error
	for i, c := range cmds {
		if err := c.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("claim worker %d/%d: %w", i+1, n, err)
		}
	}
	return firstErr
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func mustInts(s string) []int {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			fatal(fmt.Errorf("bad integer %q: %w", p, err))
		}
		out = append(out, v)
	}
	return out
}

func mustFloats(s string) []float64 {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			fatal(fmt.Errorf("bad float %q: %w", p, err))
		}
		out = append(out, v)
	}
	return out
}

func mustBools(s string) []bool {
	var out []bool
	for _, p := range splitList(s) {
		v, err := strconv.ParseBool(p)
		if err != nil {
			fatal(fmt.Errorf("bad bool %q: %w", p, err))
		}
		out = append(out, v)
	}
	return out
}

func mustMachines(s string) []exp.MachineSpec {
	var out []exp.MachineSpec
	for _, p := range splitList(s) {
		m, err := exp.ParseMachineSpec(p)
		if err != nil {
			fatal(err)
		}
		out = append(out, m)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ompss-sweep: %v\n", err)
	os.Exit(1)
}
