// Command perfbench is cisim's repository benchmark. It drives the
// simulator from outside, through the public functions of its internal
// packages and the HTTP API of a real `cisim serve` process, checks every
// sweep it times against committed result digests, and prints its
// metrics by name, ending with one JSON line:
//
//	perfbench -workload cold-sweep -seed 1 -seconds 15 -trace 0 -cisim .bench_build/cisim -work .bench_build
//
// With -trace 0 it reports the end-to-end metrics of one workload; with
// -trace 1 it runs the per-layer ladder instead. run.sh builds it and
// cisim from source. README.md describes the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"cisim/internal/api"
)

//go:embed digests.json
var digestsJSON []byte

// endToEnd and perLayer are the metric names BENCHMARK.json declares; a
// run must report exactly one of the two sets.
var endToEnd = []string{"setup_s", "sweep_ms", "peak_rss_mb"}

var perLayer = []string{
	"ooo.ns_per_instr.BASE", "ooo.ns_per_instr.CI", "ooo.ns_per_instr.CI-I", "ooo.prepare_ms", "ooo.alloc_kb_per_run",
	"ideal.ns_per_instr.oracle", "ideal.ns_per_instr.nWR-nFD", "ideal.ns_per_instr.nWR-FD",
	"ideal.ns_per_instr.WR-nFD", "ideal.ns_per_instr.WR-FD", "ideal.ns_per_instr.base", "ideal.prepare_ms",
	"trace.generate_ns_per_instr", "trace.wrongpath_per_instr", "emu.ns_per_instr",
	"workloads.assemble_ms",
	"store.put_ms", "store.get_us_per_kb", "store.hits", "store.puts", "store.bytes_read", "store.bytes_written",
	"runner.cache_hit_us", "runner.pool_util", "runner.cache_hit_rate", "runner.jobs", "runner.instrs",
	"exp.merge_us", "exp.write_json_us", "api.run_warm_ms",
	"serve.http_rtt_ms", "serve.submit_ms", "serve.exec_ms", "serve.queue_ms", "serve.result_ms", "serve.rejected",
	"span.stage_sim_ms", "span.stage_trace_ms", "span.stage_prep_ms", "span.stage_program_ms",
	"span.store_get_ms", "span.store_put_ms", "span.store_lock_ms", "span.merge_ms", "span.pool_queue_ms",
	"span.job_self_ms", "telemetry.overhead_frac",
}

var workloadNames = []string{"cold-sweep", "warm-store", "serve-mix"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run: its settings, the operations it checked,
// and the metrics it measured.
type bench struct {
	seed     int64
	seconds  time.Duration
	work     string // scratch directory for stores and daemon files, removed at exit
	results  string // directory result records and span traces are written to
	cisim    string // cisim binary serve-mix starts
	digests  map[string]string
	mu       sync.Mutex
	attempts int               // guarded by mu
	failures int               // guarded by mu
	seen     map[string]string // guarded by mu; digest of each request label checked
	metrics  map[string]metric
	// report holds every printed line, metrics and report-only figures
	// alike, in measurement order.
	report  []string
	cleanup []func()
}

// set records a metric of the JSON result and prints it.
func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
	b.note(name, v, unit, "")
}

// note prints a report-only figure, one that is not part of the JSON
// result (it applies to one workload only, or it is a check).
func (b *bench) note(name string, v float64, unit, detail string) {
	line := fmt.Sprintf("%-30s %14.6g %-6s", name, v, unit)
	if detail != "" {
		line += "  " + detail
	}
	b.text(line)
}

// text prints one report line.
func (b *bench) text(line string) {
	b.report = append(b.report, line)
	fmt.Println(line)
}

// check counts one verified operation and reports err as its failure.
func (b *bench) check(what string, err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempts++
	if err != nil {
		b.failures++
		if b.failures <= 20 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		}
		return false
	}
	return true
}

// checkDigest verifies a result body against the committed digests and
// remembers the digest it saw, for the report.
func (b *bench) checkDigest(label string, body []byte) error {
	got, err := verifyDigest(b.digests, label, body)
	b.mu.Lock()
	b.seen[label] = got
	b.mu.Unlock()
	return err
}

func main() {
	// Sweep in process under the collector setting `cisim` itself uses
	// (cmd/cisim's main), so in-process sweeps cost what the CLI's do.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(600)
	}
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed for the serve-mix request sequence")
	seconds := flag.Int("seconds", 15, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end workload")
	cisim := flag.String("cisim", "", "cisim binary to start for the daemon (serve-mix and the ladder)")
	work := flag.String("work", ".bench_build", "scratch directory for stores, daemon files, spans and result files")
	writeDigests := flag.String("write-digests", "", "write the result digests of this build to the file and exit")
	flag.Parse()

	if *writeDigests != "" {
		if err := recordDigests(*writeDigests); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if !slices.Contains(workloadNames, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) || *cisim == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload <"+strings.Join(workloadNames, "|")+"> -seed N -seconds N -trace 0|1 -cisim <binary>")
		return 2
	}
	b := &bench{seed: *seed, seconds: time.Duration(*seconds) * time.Second, cisim: *cisim, metrics: map[string]metric{}, seen: map[string]string{}}
	if err := json.Unmarshal(digestsJSON, &b.digests); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: digests.json:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.work, b.results = dir, filepath.Join(*work, "results")
	defer os.RemoveAll(dir)
	defer func() {
		for i := len(b.cleanup) - 1; i >= 0; i-- {
			b.cleanup[i]()
		}
	}()

	host := hostStamp(*workload, *seed, *seconds, *trace)
	stamp, _ := json.Marshal(host)
	fmt.Printf("host %s\n", stamp)

	want := endToEnd
	var runErr error
	if *trace == 1 {
		want = perLayer
		runErr = b.ladder()
	} else {
		switch *workload {
		case "cold-sweep":
			runErr = b.sweepWorkload(false)
		case "warm-store":
			runErr = b.sweepWorkload(true)
		case "serve-mix":
			runErr = b.serveMix()
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
		return 1
	}
	if diff := metricDiff(b.metrics, want); diff != "" {
		fmt.Fprintln(os.Stderr, "perfbench: reported metrics differ from BENCHMARK.json:", diff)
		return 1
	}
	labels := make([]string, 0, len(b.seen))
	for label := range b.seen {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		b.text(fmt.Sprintf("digest %-24s %s", label, b.seen[label]))
	}
	res := result{Correct: b.failures == 0, Attempted: b.attempts, Failed: b.failures, Metrics: b.metrics}
	b.note("error_rate", float64(b.failures)/float64(max(b.attempts, 1)), "ratio",
		fmt.Sprintf("%d of %d operations failed", b.failures, b.attempts))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := saveResult(b.results, host, b.report, line); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving result:", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// hostStamp records where and how a run was made, so results from
// different hosts or builds are never compared unknowingly.
func hostStamp(workload string, seed int64, seconds, trace int) map[string]interface{} {
	v := api.Build()
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(val)
				break
			}
		}
	}
	return map[string]interface{}{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "revision": v.Revision, "modified": v.Modified,
		"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
		"time": time.Now().UTC().Format(time.RFC3339),
	}
}

// saveResult writes the run's stamped record into dir.
func saveResult(dir string, host map[string]interface{}, report []string, line []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec, err := json.MarshalIndent(map[string]interface{}{
		"host": host, "report": report, "result": json.RawMessage(line)}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", host["workload"], host["seed"], host["trace"], time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(rec, '\n'), 0o644)
}

// metricDiff names the metrics missing from got and those it has
// beyond want; "" when the two sets are equal.
func metricDiff(got map[string]metric, want []string) string {
	var diff []string
	for _, name := range want {
		if _, ok := got[name]; !ok {
			diff = append(diff, "missing "+name)
		}
	}
	for name := range got {
		if !slices.Contains(want, name) {
			diff = append(diff, "extra "+name)
		}
	}
	sort.Strings(diff)
	return strings.Join(diff, ", ")
}
