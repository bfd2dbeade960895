// Command cisim reproduces the evaluation of "A Study of Control
// Independence in Superscalar Processors" (Rotenberg, Jacobson, Smith;
// HPCA 1999).
//
// Usage:
//
//	cisim list                     list experiments and workloads
//	cisim run [flags] all          run every experiment
//	cisim run [flags] <id>         run one experiment (e.g. fig5, table2)
//
// Run flags: -quick (small inputs), -jobs N (concurrent workload jobs,
// 0 = GOMAXPROCS), -events FILE (JSONL run-event stream), -json, -plot.
// Experiment work is decomposed into (experiment, workload) jobs executed
// by a bounded worker pool over a shared content-addressed artifact
// cache; results are merged in paper order, so output is identical at
// any -jobs value. A run summary (wall clock, instructions simulated,
// cache hit rates) is printed to stderr.
//
// Resilience flags, for long full-fidelity campaigns (DESIGN.md §8):
// -timeout D bounds each job's lifetime (a stalled job is reported and
// abandoned); -retries N re-runs transiently-failed jobs with capped
// jitter-free backoff; -journal FILE appends each completed job to a
// crash-consistent fsync'd JSONL file and -resume replays it, so an
// interrupted campaign restarts where it died; SIGINT or SIGTERM drains
// in-flight jobs, prints the completed experiments with explicit holes
// for the rest, and exits non-zero. -faults SPEC (or CISIM_FAULTS) arms
// the deterministic fault-injection points (internal/faults) that make
// every one of those recovery paths testable on demand.
//
// Observability flags (DESIGN.md §9, §14): -metrics collects
// deterministic per-workload counter/histogram snapshots (in -json
// output and as `metrics` events); -spans FILE writes a deterministic-ID
// span trace of the whole run (sweep → jobs → pipeline stages →
// persistent-store traffic) that `cisim spans` analyzes offline —
// critical path, per-stage time, queue and lock waits — and exports for
// Chrome/Perfetto; -cpuprofile/-memprofile/-exectrace wrap the run in
// the Go profilers. `cisim sim -pipetrace FILE` writes a cycle-level
// pipeline trace (Konata-compatible Kanata or JSONL), and `cisim
// events` summarizes an -events or -journal file offline.
//
//	cisim sim [flags] <workload>   one detailed simulation with stats
//	cisim ideal [flags] <workload> one idealized-model simulation
//	cisim disasm <workload>        disassemble a program
//	cisim analyze <workload>       CFG and reconvergent-point report
//	cisim trace [flags] <workload> dump the annotated dynamic trace
//	cisim pipe [flags] <workload>  per-instruction pipeline timeline
//	cisim compare <old> <new>      diff two 'run -json' result files
//	cisim events <file|url>        analyze a run-event stream or journal
//
// `cisim serve` runs the same sweeps as an HTTP daemon (DESIGN.md §11):
// versioned JSON requests on a bounded queue (full -> 429 + Retry-After),
// job status and result endpoints, live event streaming (SSE or JSONL),
// and SIGTERM graceful drain. `cisim version` prints build and API
// version info. The CLI and the daemon are thin frontends over the same
// embeddable engine (internal/api), so an HTTP result is byte-identical
// to `cisim run -json` for the same request.
//
// Experiment ids follow the paper's tables and figures: table1, fig3,
// fig5, fig6, table2, table3, table4, fig8, fig9, fig10, fig12, fig13,
// fig14, fig17.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"syscall"
	"time"

	"cisim/internal/api"
	"cisim/internal/cache"
	"cisim/internal/exp"
	"cisim/internal/faults"
	"cisim/internal/ideal"
	"cisim/internal/metrics"
	"cisim/internal/ooo"
	"cisim/internal/runner"
	"cisim/internal/stats"
	"cisim/internal/telemetry"
	"cisim/internal/trace"
	"cisim/internal/workloads"
)

func main() {
	// The simulator is a short-lived batch process that allocates one
	// dyn per fetched instruction; at the default GOGC the collector
	// runs constantly against a small live set. Trade heap headroom for
	// throughput unless the user asked for something specific.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(600)
	}
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(os.Args[2:])
	case "sim":
		err = cmdSim(os.Args[2:])
	case "ideal":
		err = cmdIdeal(os.Args[2:])
	case "disasm":
		err = cmdDisasm(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "pipe":
		err = cmdPipe(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "events":
		err = cmdEvents(os.Args[2:])
	case "spans":
		err = cmdSpans(os.Args[2:])
	case "promcheck":
		err = cmdPromcheck(os.Args[2:])
	case "cache":
		err = cmdCache(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "version", "-version", "--version":
		err = cmdVersion()
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cisim:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  cisim list                      list experiments and workloads
  cisim run [flags] all           run every experiment (-quick -jobs N -events FILE -json -plot)
  cisim run [flags] <id>          run one experiment (fig5, table2, ...)
                                  resilience: -timeout D -retries N -journal FILE -resume -faults SPEC
                                  observability: -spans FILE -metrics (DESIGN.md §14)
  cisim sim [flags] <workload>    one detailed simulation
  cisim ideal [flags] <workload>  one idealized-model simulation
  cisim disasm <workload>         disassemble a workload (-file for a source file)
  cisim analyze <workload>        CFG + reconvergent-point report
  cisim trace [flags] <workload>  dump the annotated dynamic trace
  cisim pipe [flags] <workload>   per-instruction pipeline timeline
  cisim compare <old> <new>       diff two 'run -json' result files
  cisim events <file|url>         summarize a run-event stream, journal, or serve stream (-top N)
  cisim spans <file|url>          analyze a span trace from 'run -spans FILE' or serve's /spans (-top N -chrome FILE)
  cisim promcheck <file|url>      validate a Prometheus text exposition, e.g. serve's /metrics (-require a,b,c)
  cisim cache <stats|verify|gc>   inspect or bound a persistent artifact store (-cache-dir)
  cisim check [files...]          statically verify programs (default: all workloads)
  cisim serve [flags]             HTTP sweep daemon (-addr -queue -jobs -journal-dir -cache-dir; DESIGN.md §11)
  cisim version                   print build, toolchain, and API version`)
}

func cmdList() error {
	fmt.Println("experiments:")
	for _, e := range exp.All() {
		fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		fmt.Printf("           paper: %s\n", e.Paper)
	}
	fmt.Println("\nworkloads:")
	for _, w := range workloads.All() {
		fmt.Printf("  %-10s stands in for %-8s  %s\n", w.Name, w.Paper, w.Description)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	quick := fs.Bool("quick", false, "smaller runs (noisier, much faster)")
	plotFlag := fs.Bool("plot", false, "render figure experiments as ASCII charts too")
	jsonFlag := fs.Bool("json", false, "emit machine-readable JSON (for 'cisim compare') instead of text")
	jobs := fs.Int("jobs", 0, "concurrent (experiment, workload) jobs (0 = GOMAXPROCS; output stays in paper order)")
	fs.IntVar(jobs, "j", 0, "alias for -jobs")
	events := fs.String("events", "", "write a JSONL run-event stream (job and cache activity) to this file")
	spansPath := fs.String("spans", "", "write a deterministic-ID span trace (JSONL) to this file; analyze with 'cisim spans'")
	timeout := fs.Duration("timeout", 0, "per-job deadline (0 = none); a stalled job is reported and abandoned")
	retries := fs.Int("retries", 0, "re-run a transiently-failed job up to N times with capped backoff")
	journalPath := fs.String("journal", "", "append completed jobs to this crash-consistent JSONL file")
	resumeFlag := fs.Bool("resume", false, "replay the -journal file and run only the jobs it is missing")
	faultsSpec := fs.String("faults", "", "arm deterministic fault injection, e.g. 'cache-corrupt@2,job-transient' (see DESIGN.md §8; also CISIM_FAULTS)")
	cacheDir := fs.String("cache-dir", "", "persistent artifact store shared across runs and processes (also CISIM_CACHE_DIR; DESIGN.md §13)")
	metricsFlag := fs.Bool("metrics", false, "collect per-workload metrics snapshots (rides in -json output and -events stream)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	exectrace := fs.String("exectrace", "", "write a Go execution trace of the run to this file (go tool trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := startProfiles(*cpuprofile, *memprofile, *exectrace)
	if err != nil {
		return err
	}
	defer stopProf()
	if fs.NArg() != 1 {
		return fmt.Errorf("run needs an experiment id or 'all'")
	}
	if *resumeFlag && *journalPath == "" {
		return fmt.Errorf("run -resume needs -journal FILE (the journal to replay)")
	}
	spec := *faultsSpec
	if spec == "" {
		spec = os.Getenv("CISIM_FAULTS")
	}
	if spec != "" {
		plan, err := faults.Parse(spec)
		if err != nil {
			return err
		}
		faults.Set(plan)
		defer faults.Clear()
	}
	// The persistent store (if configured) mounts behind the shared
	// artifact cache for exactly this run; results computed here are
	// written through for the next process, and vice versa.
	detachStore, err := attachStore(*cacheDir)
	if err != nil {
		return err
	}
	defer detachStore()
	// Span tracing is a side channel with the same determinism contract
	// as -events: run results are byte-identical with it on or off. The
	// trace is written even when the run fails or aborts — that is when
	// the timing evidence matters most.
	if *spansPath != "" {
		col := telemetry.NewCollector(telemetry.TraceID("cisim run", fs.Arg(0)))
		telemetry.Enable(col)
		defer func() {
			telemetry.Disable()
			if werr := writeSpans(*spansPath, col.Records()); werr != nil {
				fmt.Fprintf(os.Stderr, "cisim: spans write failed (run results are unaffected): %v\n", werr)
			}
		}()
	}
	// The flag surface maps 1:1 onto the versioned sweep request, so the
	// CLI and the HTTP daemon validate and execute identically.
	req := &api.SweepRequest{V: api.Version, Experiments: []string{fs.Arg(0)},
		Quick: *quick, Metrics: *metricsFlag, Jobs: *jobs,
		TimeoutMs: timeout.Milliseconds(), Retries: *retries}
	exps, err := exp.Resolve(req.Experiments)
	if err != nil {
		return err
	}

	var sink runner.Sink
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			return err
		}
		defer f.Close()
		// The engine carries the sink in the sweep's own scope, down to
		// every job and cache lookup.
		sink = runner.NewJSONLSink(f)
	}

	// The journal replays completed jobs from a prior interrupted
	// campaign; without -resume a -journal file starts fresh.
	var jrn *runner.Journal
	journaled := map[string]json.RawMessage{}
	if *journalPath != "" {
		if !*resumeFlag {
			if err := os.Remove(*journalPath); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		j, entries, dropped, err := runner.OpenJournal(*journalPath)
		if err != nil {
			return err
		}
		defer j.Close()
		jrn = j
		if *resumeFlag {
			journaled = entries
			if dropped > 0 {
				fmt.Fprintf(os.Stderr, "cisim: journal %s: dropped %d torn/corrupt record(s); the affected jobs will recompute\n",
					*journalPath, dropped)
			}
		}
	}

	// SIGINT or SIGTERM cancels the engine's context: in-flight jobs
	// drain, the rest are skipped, and the run reports its holes and
	// exits non-zero. SIGTERM takes the identical path so process
	// managers stopping a long campaign lose nothing either.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The engine (shared with `cisim serve`) decomposes the sweep into
	// (experiment, workload) jobs, replays the journal, runs the pool,
	// and merges partials in paper order.
	out, err := api.Run(ctx, req, api.RunOptions{
		Sink: sink, Journal: jrn, Replayed: journaled,
		JournalWarn: func(jerr error) {
			fmt.Fprintf(os.Stderr, "cisim: journal write failed (run continues unjournaled): %v\n", jerr)
		}})
	if err != nil {
		return err
	}

	renderErr := renderOutcomes(exps, out.Outcomes, *jsonFlag, *plotFlag)

	fmt.Fprintf(os.Stderr, "%s", out.Summary.Table())
	if out.Aborted {
		abortErr := fmt.Errorf("run aborted before completion (re-run with -journal/-resume to pick up where it stopped)")
		if renderErr != nil {
			return fmt.Errorf("%v\n%v", renderErr, abortErr)
		}
		return abortErr
	}
	return renderErr
}

// startProfiles arms the requested Go profiling hooks and returns the
// function that stops them and writes the end-of-run artifacts. The
// hooks observe the harness process only; simulation results are
// identical with or without them.
func startProfiles(cpu, mem, exec string) (func(), error) {
	var stops []func()
	cleanup := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if exec != "" {
		f, err := os.Create(exec)
		if err != nil {
			cleanup()
			return nil, err
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			cleanup()
			return nil, err
		}
		stops = append(stops, func() { rtrace.Stop(); f.Close() })
	}
	if mem != "" {
		stops = append(stops, func() {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cisim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cisim: memprofile:", err)
			}
		})
	}
	return cleanup, nil
}

// renderOutcomes prints every healthy experiment (text or JSON) and
// returns an error aggregating every failure, so one broken experiment
// neither hides the others' output nor lets the run exit zero. Aborted
// experiments print an explicit hole in text mode and are absent from
// JSON output; the caller turns the abort itself into a non-zero exit.
func renderOutcomes(exps []*exp.Experiment, outcomes []api.Outcome, jsonMode, plotMode bool) error {
	var errs []string
	var jsonResults []exp.JSONResult
	for i, e := range exps {
		o := outcomes[i]
		if o.Err != nil {
			errs = append(errs, o.Err.Error())
			continue
		}
		if o.Aborted {
			if !jsonMode {
				fmt.Printf("%s\npaper: %s\n\n  [not run: aborted before completion]\n\n", e.Title, e.Paper)
			}
			continue
		}
		if jsonMode {
			jsonResults = append(jsonResults, exp.ToJSON(e, o.Result))
			continue
		}
		fmt.Printf("%s\npaper: %s\n\n%s", e.Title, e.Paper, o.Result)
		if plotMode {
			for _, p := range o.Result.Plots {
				fmt.Println(p.Render())
			}
		}
		fmt.Printf("(%s)\n\n", o.Elapsed.Round(time.Millisecond))
	}
	if jsonMode {
		if err := exp.WriteJSON(os.Stdout, jsonResults); err != nil {
			return err
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("%d of %d experiments failed:\n  %s",
			len(errs), len(exps), strings.Join(errs, "\n  "))
	}
	return nil
}

// cmdCompare diffs two result sets written by `cisim run -json`,
// reporting every numeric cell that moved by more than the tolerance —
// the simulator's own regression harness.
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	tol := fs.Float64("tol", 1.0, "relative tolerance in percent")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare needs two result files (from 'cisim run -json all > results.json')")
	}
	load := func(path string) ([]exp.JSONResult, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return exp.ReadJSON(f)
	}
	prev, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := load(fs.Arg(1))
	if err != nil {
		return err
	}
	diffs := exp.Compare(prev, cur, *tol)
	if len(diffs) == 0 {
		fmt.Printf("no differences beyond %.1f%%\n", *tol)
		return nil
	}
	for _, d := range diffs {
		fmt.Println(d)
	}
	return fmt.Errorf("%d cells differ beyond %.1f%%", len(diffs), *tol)
}

func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	machine := fs.String("machine", "CI", "BASE, CI, or CI-I")
	window := fs.Int("window", 256, "reorder buffer entries")
	segment := fs.Int("segment", 1, "ROB segment size (1, 4, 16)")
	iters := fs.Int("iters", 0, "workload iterations (0 = default)")
	completion := fs.String("completion", "spec-C", "non-spec, spec-D, spec-C, spec")
	reconv := fs.String("reconv", "postdom", "postdom, return, loop, ltb, assoc, or combinations like return/loop/ltb")
	confDelay := fs.Bool("confidence-delay", false, "hold high-confidence branches with speculative operands (§A.2.2)")
	fetchTaken := fs.Int("fetch-taken", 0, "taken control transfers followed per fetch cycle (0 = ideal, the paper's §4.1 front end)")
	consLoads := fs.Bool("conservative-loads", false, "disable speculative memory disambiguation (loads wait for all older stores)")
	icache := fs.Bool("icache", false, "model a 64KB instruction cache (the paper assumes ideal instruction supply)")
	pipetrace := fs.String("pipetrace", "", "write a cycle-level pipeline trace of every fetched instruction to this file")
	pipeFormat := fs.String("pipetrace-format", "kanata", "pipetrace format: kanata (Konata-compatible) or jsonl")
	metricsFlag := fs.Bool("metrics", false, "collect and print deterministic counters and cycle histograms")
	cacheDir := fs.String("cache-dir", "", "persistent artifact store shared across runs and processes (also CISIM_CACHE_DIR)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("sim needs a workload name")
	}
	w, ok := workloads.Get(fs.Arg(0))
	if !ok {
		return fmt.Errorf("unknown workload %q (try 'cisim list')", fs.Arg(0))
	}
	cfg := ooo.Config{WindowSize: *window, SegmentSize: *segment, ConfidenceDelay: *confDelay,
		FetchTakenLimit: *fetchTaken, ConservativeLoads: *consLoads}
	if *icache {
		cfg.ICache = cache.DefaultDetailed()
	}
	for _, part := range strings.Split(*reconv, "/") {
		switch part {
		case "postdom":
			cfg.Reconv.PostDom = true
		case "return":
			cfg.Reconv.Return = true
		case "loop":
			cfg.Reconv.Loop = true
		case "ltb":
			cfg.Reconv.Ltb = true
		case "assoc":
			cfg.Reconv.Assoc = true
		case "":
		default:
			return fmt.Errorf("unknown reconvergence source %q", part)
		}
	}
	switch *machine {
	case "BASE":
		cfg.Machine = ooo.Base
	case "CI":
		cfg.Machine = ooo.CI
	case "CI-I":
		cfg.Machine = ooo.CIInstant
	default:
		return fmt.Errorf("unknown machine %q", *machine)
	}
	switch *completion {
	case "non-spec":
		cfg.Completion = ooo.NonSpec
	case "spec-D":
		cfg.Completion = ooo.SpecD
	case "spec-C":
		cfg.Completion = ooo.SpecC
	case "spec":
		cfg.Completion = ooo.Spec
	default:
		return fmt.Errorf("unknown completion model %q", *completion)
	}

	cfg.CollectMetrics = *metricsFlag
	var flushTrace func() error
	if *pipetrace != "" {
		f, err := os.Create(*pipetrace)
		if err != nil {
			return err
		}
		defer f.Close()
		switch *pipeFormat {
		case "kanata":
			tr := ooo.NewKanataTracer(f)
			cfg.Tracer, flushTrace = tr, tr.Flush
		case "jsonl":
			tr := ooo.NewJSONLTracer(f)
			cfg.Tracer, flushTrace = tr, tr.Flush
		default:
			return fmt.Errorf("unknown pipetrace format %q (want kanata or jsonl)", *pipeFormat)
		}
	}

	// Route through the shared artifact cache (and the persistent store
	// behind it, when configured): a sim of a config a previous run
	// already computed is served instead of re-simulated. Configs with a
	// pipetrace attached are never memoized — the tracer is a side
	// effect — but still share the cached program and prep artifacts.
	detachStore, err := attachStore(*cacheDir)
	if err != nil {
		return err
	}
	defer detachStore()
	start := time.Now()
	r, _, err := runner.Artifacts.Detailed(w, *iters, cfg)
	if err != nil {
		return err
	}
	if flushTrace != nil {
		if err := flushTrace(); err != nil {
			return fmt.Errorf("writing pipetrace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "cisim: pipetrace (%s) written to %s\n", *pipeFormat, *pipetrace)
	}
	s := &r.Stats
	t := stats.NewTable(fmt.Sprintf("%s on %s (window %d, segment %d, %s)",
		cfg.Machine, w.Name, *window, *segment, *completion), "metric", "value")
	t.AddRow("retired instructions", int(s.Retired))
	t.AddRow("cycles", int(s.Cycles))
	t.AddRow("IPC", s.IPC())
	t.AddRow("conditional branches", int(s.CondBranches))
	t.AddRow("recoveries serviced", int(s.Recoveries))
	t.AddRow("  reconverged", int(s.Reconverged))
	t.AddRow("  complete squashes", int(s.FullSquashes))
	t.AddRow("  false mispredictions", int(s.FalseMisp))
	t.AddRow("avg removed CD / restart", stats.Ratio(s.RemovedCD, s.Reconverged))
	t.AddRow("avg inserted CD / restart", stats.Ratio(s.InsertedCD, s.Reconverged))
	t.AddRow("avg CI instructions / restart", stats.Ratio(s.CIInstructions, s.Reconverged))
	t.AddRow("issues per retired instruction", s.IssuesPerRetired())
	t.AddRow("memory-order violations", int(s.MemViolations))
	t.AddRow("register rename repairs", int(s.RegViolations))
	t.AddRow("fetch saved (Table 3)", stats.Percent(100*stats.Ratio(s.FetchSaved, s.Retired)))
	t.AddRow("work saved (Table 3)", stats.Percent(100*stats.Ratio(s.WorkSaved, s.Retired)))
	t.AddRow("data cache miss rate", stats.Percent(100*stats.Ratio(s.CacheMisses, s.CacheAccesses)))
	t.AddRow("avg window occupancy", s.AvgOccupancy())
	if s.ICacheAccesses > 0 {
		t.AddRow("instruction cache miss rate", stats.Percent(100*stats.Ratio(s.ICacheMisses, s.ICacheAccesses)))
	}
	fmt.Printf("%s\n(%s)\n", t, time.Since(start).Round(time.Millisecond))
	if r.Metrics != nil {
		printMetrics(r.Metrics)
	}
	return nil
}

// printMetrics renders a metrics snapshot as counter and histogram
// tables. Snapshot slices are pre-sorted by name, so the output is
// deterministic.
func printMetrics(s *metrics.Snapshot) {
	ct := stats.NewTable("metrics: counters", "name", "value")
	for _, c := range s.Counters {
		ct.AddRow(c.Name, int(c.Value))
	}
	ht := stats.NewTable("metrics: histograms", "name", "count", "mean", "p50", "p99", "max")
	for _, h := range s.Histograms {
		ht.AddRow(h.Name, int(h.Count), h.Mean(), int(h.Quantile(0.5)), int(h.Quantile(0.99)), int(h.Max))
	}
	fmt.Printf("\n%s\n%s", ct, ht)
}

func cmdIdeal(args []string) error {
	fs := flag.NewFlagSet("ideal", flag.ExitOnError)
	model := fs.String("model", "WR-FD", "oracle, base, nWR-nFD, nWR-FD, WR-nFD, WR-FD")
	window := fs.Int("window", 256, "instruction window size")
	iters := fs.Int("iters", 0, "workload iterations (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("ideal needs a workload name")
	}
	w, ok := workloads.Get(fs.Arg(0))
	if !ok {
		return fmt.Errorf("unknown workload %q", fs.Arg(0))
	}
	var m ideal.Model
	found := false
	for _, cand := range ideal.Models() {
		if cand.String() == *model {
			m, found = cand, true
		}
	}
	if !found {
		return fmt.Errorf("unknown model %q", *model)
	}
	p, err := w.Assemble(*iters)
	if err != nil {
		return err
	}
	tr, err := trace.Generate(p, trace.Options{})
	if err != nil {
		return err
	}
	r, err := ideal.Run(tr, ideal.Config{Model: m, WindowSize: *window})
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s: window=%d retired=%d cycles=%d IPC=%.2f (mispredict rate %.2f%%)\n",
		m, w.Name, *window, r.Retired, r.Cycles, r.IPC, 100*tr.Stats.MispRate())
	return nil
}
