package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cisim/internal/api"
	"cisim/internal/emu"
	"cisim/internal/exp"
	"cisim/internal/ideal"
	"cisim/internal/ooo"
	"cisim/internal/prog"
	"cisim/internal/runner"
	"cisim/internal/store"
	"cisim/internal/telemetry"
	"cisim/internal/trace"
	"cisim/internal/workloads"
)

const (
	// ladderRounds is how often each direct layer call repeats; a layer
	// reports the median round.
	ladderRounds = 3
	// ladderWindow is the window size of the ideal and detailed runs,
	// the paper's main configuration.
	ladderWindow = 256
	// quickTraceInstrs is the quick-scale correct-path budget of traces
	// (exp.Options.Quick).
	quickTraceInstrs = 80_000
	// cacheHits is how many warm Cache.Detailed lookups one span times.
	cacheHits = 2000
	// ladderServeTime is how long the ladder drives the daemon.
	ladderServeTime = 3 * time.Second
)

// quickIters is the iteration count exp.Options.Quick gives a workload.
func quickIters(w *workloads.Workload) int {
	return max(w.DefaultIters/10, 50)
}

// ladder is the traced run. Its own spans wrap direct calls into each
// layer; the program's spans come from one traced cold sweep.
type ladder struct {
	b     *bench
	own   *telemetry.Collector
	round int
	// work is the units of work (instructions, runs, kilobytes) one
	// round of a span name covers.
	work map[string]float64
}

// span times f as a span of the benchmark's own collector.
func (l *ladder) span(name, key string, f func() error) error {
	sp := l.own.Start(name)
	sp.Key, sp.Attempt = key, l.round+1
	err := f()
	if err != nil {
		sp.Err = err.Error()
	}
	sp.End()
	if err != nil {
		return fmt.Errorf("%s %s: %w", name, key, err)
	}
	return nil
}

// count adds units of work to a span name; every round does the same
// work, so only the first is counted.
func (l *ladder) count(name string, units float64) {
	if l.round == 0 {
		l.work[name] += units
	}
}

// roundNs is the median over rounds of a span name's summed duration,
// in nanoseconds.
func (l *ladder) roundNs(name string) float64 {
	rounds := make([]float64, ladderRounds)
	for _, r := range l.own.Records() {
		if r.Name == name && r.Attempt >= 1 && r.Attempt <= ladderRounds {
			rounds[r.Attempt-1] += r.DurUs * 1e3
		}
	}
	return median(rounds)
}

// perUnit is roundNs per unit of the span name's work.
func (l *ladder) perUnit(name string) float64 { return l.roundNs(name) / l.work[name] }

func (b *bench) ladder() error {
	l := &ladder{b: b, work: map[string]float64{},
		own: telemetry.NewCollector(telemetry.TraceID("perfbench", strconv.FormatInt(b.seed, 10)))}
	program, err := l.sweeps()
	if err != nil {
		return err
	}
	for _, step := range []func() error{l.layers, l.runnerAndExp, l.serveLayer} {
		if err := step(); err != nil {
			return err
		}
	}
	return writeSpans(filepath.Join(b.results, fmt.Sprintf("spans-seed%d-%d.jsonl", b.seed, time.Now().UnixNano())),
		append(program, l.own.Records()...))
}

func writeSpans(path string, recs []telemetry.Record) error {
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, recs); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// sweeps runs an untraced and a traced cold sweep, for the tracing
// overhead, the program's own stage spans and the runner's counters,
// then a traced warm sweep and direct store calls over the store the
// warm-up filled. It returns the program's span records.
func (l *ladder) sweeps() ([]telemetry.Record, error) {
	b := l.b
	filled, closeFilled, err := b.fillStore()
	if err != nil {
		return nil, err
	}
	defer closeFilled()

	// cold returns the sweep, the bytes it wrote to its store, and its
	// span records when traced.
	cold := func(traced bool) (*sweep, int64, []telemetry.Record, error) {
		st, closeStore, err := b.openStore()
		if err != nil {
			return nil, 0, nil, err
		}
		defer closeStore()
		var col *telemetry.Collector
		if traced {
			col = telemetry.NewCollector(telemetry.TraceID("perfbench", "cold-sweep"))
			telemetry.Enable(col)
			defer telemetry.Disable()
		}
		req := quickAll()
		s, err := runSweep(req, st)
		if err == nil {
			err = b.verify(req, s, checkColdTraffic)
		}
		if !b.check("ladder cold sweep", err) {
			return nil, 0, nil, err
		}
		written := st.Session().BytesWritten
		if col != nil {
			return s, written, col.Records(), nil
		}
		return s, written, nil, nil
	}
	plain, _, _, err := cold(false)
	if err != nil {
		return nil, err
	}
	traced, written, recs, err := cold(true)
	if err != nil {
		return nil, err
	}
	sum := plain.out.Summary
	b.set("runner.pool_util", sum.Busy.Seconds()/(sum.Wall.Seconds()*float64(sum.Workers)), "ratio")
	b.set("runner.cache_hit_rate", sum.Cache.HitRate(), "ratio")
	b.set("runner.jobs", float64(sum.Jobs), "count")
	b.set("runner.instrs", float64(sum.Instrs), "count")
	b.set("store.puts", float64(traced.out.Summary.Cache.StorePuts), "count")
	b.set("store.bytes_written", float64(written), "bytes")
	b.set("telemetry.overhead_frac", traced.wall.Seconds()/plain.wall.Seconds()-1, "ratio")
	b.spanMetrics(recs, traced.out.Summary.Busy)

	read0 := filled.Session().BytesRead
	col := telemetry.NewCollector(telemetry.TraceID("perfbench", "warm-store"))
	telemetry.Enable(col)
	req := quickAll()
	warm, err := runSweep(req, filled)
	telemetry.Disable()
	if err == nil {
		err = b.verify(req, warm, checkWarmTraffic)
	}
	if !b.check("ladder warm sweep", err) {
		return nil, err
	}
	b.set("store.hits", float64(warm.out.Summary.Cache.StoreHits), "count")
	b.set("store.bytes_read", float64(filled.Session().BytesRead-read0), "bytes")
	if err := l.storeCalls(filled); err != nil {
		return nil, err
	}
	return append(recs, col.Records()...), nil
}

// spanMetrics reports the program's span totals for one traced sweep as
// self time, a span's duration minus its children's, so the stage and
// store totals plus span.job_self_ms add up to the summed job time.
func (b *bench) spanMetrics(recs []telemetry.Record, busy time.Duration) {
	children := map[string]float64{}
	for _, r := range recs {
		children[r.Parent] += r.DurUs
	}
	self := map[string]float64{}
	var jobs, queue float64
	for _, r := range recs {
		self[r.Name] += r.DurUs - children[r.Span]
		if r.Name == "job" {
			jobs += r.DurUs
			queue += r.QueueUs
		}
	}
	for _, name := range []string{"stage:sim", "stage:trace", "stage:prep", "stage:program",
		"store:get", "store:put", "store:lock_wait", "merge"} {
		metric := "span." + strings.NewReplacer(":", "_", "lock_wait", "lock").Replace(name) + "_ms"
		b.set(metric, self[name]/1e3, "ms")
	}
	b.set("span.pool_queue_ms", queue/1e3, "ms")
	b.set("span.job_self_ms", self["job"]/1e3, "ms")
	var accounted float64
	for name, us := range self {
		if name == "job" || strings.HasPrefix(name, "stage:") || strings.HasPrefix(name, "store:") {
			accounted += us
		}
	}
	b.note("span.job_ms", jobs/1e3, "ms", fmt.Sprintf("runner job time %.1f ms; stage+store+job_self cover %.4f of it",
		ms(busy), accounted/1e3/ms(busy)))
}

// storeCalls times Put and Get directly, with the payloads a sweep
// stored, against a fresh store each round.
func (l *ladder) storeCalls(filled *store.Store) error {
	blobs, err := filled.Scan()
	if err != nil {
		return err
	}
	type blob struct {
		kind, addr string
		payload    []byte
		fp         uint64
	}
	var payloads []blob
	for _, bi := range blobs {
		p, fp, found, err := filled.Get(bi.Kind, bi.Addr)
		if err != nil || !found {
			return fmt.Errorf("reading stored blob %s: found=%v: %v", bi.Addr, found, err)
		}
		payloads = append(payloads, blob{bi.Kind, bi.Addr, p, fp})
	}
	for l.round = 0; l.round < ladderRounds; l.round++ {
		st, closeStore, err := l.b.openStore()
		if err != nil {
			return err
		}
		for _, p := range payloads {
			err = l.span("store.put", p.addr, func() error { _, err := st.Put(p.kind, p.addr, p.payload, p.fp); return err })
			if err == nil {
				err = l.span("store.get", p.addr, func() error {
					got, _, found, err := st.Get(p.kind, p.addr)
					if err == nil && (!found || !bytes.Equal(got, p.payload)) {
						err = errors.New("store returned a different payload")
					}
					return err
				})
			}
			if !l.b.check("store put/get", err) {
				closeStore()
				return err
			}
			l.count("store.put", 1)
			l.count("store.get", float64(len(p.payload))/1024)
		}
		closeStore()
	}
	l.b.set("store.put_ms", l.perUnit("store.put")/1e6, "ms")
	l.b.set("store.get_us_per_kb", l.perUnit("store.get")/1e3, "us/KB")
	return nil
}

// layers times each simulation layer directly over the five workloads
// at quick scale: assembly, emulation, trace generation, the six ideal
// models and the three detailed machines.
func (l *ladder) layers() error {
	var allocs, runs uint64
	var wrong, entries float64
	for l.round = 0; l.round < ladderRounds; l.round++ {
		for _, w := range workloads.All() {
			var p *prog.Program
			err := l.span("workloads.assemble", w.Name, func() (err error) {
				p, err = w.Assemble(quickIters(w))
				return err
			})
			if err != nil {
				return err
			}
			var n uint64
			err = l.span("emu.run", w.Name, func() (err error) {
				n, err = emu.New(p).Run(quickTraceInstrs)
				if errors.Is(err, emu.ErrLimit) {
					err = nil
				}
				return err
			})
			if err != nil {
				return err
			}
			l.count("emu.run", float64(n))
			var tr *trace.Trace
			err = l.span("trace.generate", w.Name, func() (err error) {
				tr, err = trace.Generate(p, trace.Options{MaxInstrs: quickTraceInstrs})
				return err
			})
			if err != nil {
				return err
			}
			l.count("trace.generate", float64(len(tr.Entries)))
			if l.round == 0 {
				for i := range tr.Entries {
					if wp := tr.Entries[i].Wrong; wp != nil {
						wrong += float64(wp.Len)
					}
				}
				entries += float64(len(tr.Entries))
			}

			var ip *ideal.Prep
			l.span("ideal.prepare", w.Name, func() error { ip = ideal.Prepare(tr); return nil })
			for _, m := range ideal.Models() {
				var res ideal.Result
				err = l.span("ideal.run."+m.String(), w.Name, func() (err error) {
					res, err = ideal.RunPrepared(ip, ideal.Config{Model: m, WindowSize: ladderWindow})
					return err
				})
				if err != nil {
					return err
				}
				l.count("ideal.run."+m.String(), float64(res.Retired))
			}

			var op *ooo.Prep
			err = l.span("ooo.prepare", w.Name, func() (err error) {
				op, err = ooo.Prepare(p, 0)
				return err
			})
			if err != nil {
				return err
			}
			for _, m := range []ooo.Machine{ooo.Base, ooo.CI, ooo.CIInstant} {
				var res *ooo.Result
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				err = l.span("ooo.run."+m.String(), w.Name, func() (err error) {
					res, err = ooo.RunPrepared(p, ooo.Config{Machine: m, WindowSize: ladderWindow}, op)
					return err
				})
				runtime.ReadMemStats(&m1)
				if err != nil {
					return err
				}
				allocs += m1.TotalAlloc - m0.TotalAlloc
				runs++
				l.count("ooo.run."+m.String(), float64(res.Stats.Retired))
			}
		}
	}
	b := l.b
	for _, m := range []ooo.Machine{ooo.Base, ooo.CI, ooo.CIInstant} {
		b.set("ooo.ns_per_instr."+m.String(), l.perUnit("ooo.run."+m.String()), "ns")
	}
	b.set("ooo.prepare_ms", l.roundNs("ooo.prepare")/1e6, "ms")
	b.set("ooo.alloc_kb_per_run", float64(allocs)/float64(runs)/1024, "KB")
	for _, m := range ideal.Models() {
		b.set("ideal.ns_per_instr."+m.String(), l.perUnit("ideal.run."+m.String()), "ns")
	}
	b.set("ideal.prepare_ms", l.roundNs("ideal.prepare")/1e6, "ms")
	b.set("trace.generate_ns_per_instr", l.perUnit("trace.generate"), "ns")
	b.set("trace.wrongpath_per_instr", wrong/entries, "ratio")
	b.set("emu.ns_per_instr", l.perUnit("emu.run"), "ns")
	b.set("workloads.assemble_ms", l.roundNs("workloads.assemble")/1e6, "ms")
	return nil
}

// runnerAndExp times a warm artifact-cache hit, the merge and JSON
// encoding of a whole sweep's experiments, and fully cache-hit sweeps
// through api.Run. It relies on the artifact cache the ladder's last
// sweep left warm.
func (l *ladder) runnerAndExp() error {
	b := l.b
	c := runner.NewCache()
	w := workloads.All()[0]
	cfg := ooo.Config{Machine: ooo.CI, WindowSize: ladderWindow}
	if _, _, err := c.Detailed(w, quickIters(w), cfg); err != nil {
		return err
	}
	opt := exp.Options{Quick: true}
	exps := exp.All()
	parts := make([][]*exp.Partial, len(exps))
	for i, e := range exps {
		for _, w := range workloads.All() {
			p, err := e.RunWorkload(w, opt)
			if err != nil {
				return fmt.Errorf("%s %s: %w", e.ID, w.Name, err)
			}
			parts[i] = append(parts[i], p)
		}
	}
	var buf bytes.Buffer
	for l.round = 0; l.round < ladderRounds; l.round++ {
		err := l.span("runner.cache_hit", w.Name, func() error {
			for i := 0; i < cacheHits; i++ {
				if _, hit, err := c.Detailed(w, quickIters(w), cfg); err != nil || !hit {
					return fmt.Errorf("warm lookup: hit=%v: %v", hit, err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		l.count("runner.cache_hit", cacheHits)

		var rs []exp.JSONResult
		err = l.span("exp.merge", "all", func() error {
			for i, e := range exps {
				r, err := e.Merge(opt, parts[i])
				if err != nil {
					return err
				}
				rs = append(rs, exp.ToJSON(e, r))
			}
			return nil
		})
		if err != nil {
			return err
		}
		buf.Reset()
		if err := l.span("exp.write_json", "all", func() error { return exp.WriteJSON(&buf, rs) }); err != nil {
			return err
		}
		if err := b.checkDigest("all", buf.Bytes()); !b.check("merged sweep", err) {
			return err
		}

		for _, id := range detailedExps {
			req := api.SweepRequest{V: api.Version, Experiments: []string{id}, Quick: true, Jobs: 2}
			var out *api.Output
			if err := l.span("api.run_warm", id, func() (err error) {
				out, err = api.Run(context.Background(), &req, api.RunOptions{})
				return err
			}); err != nil {
				return err
			}
			err := sweepError(out)
			if err == nil && out.Summary.Instrs != 0 {
				err = fmt.Errorf("warm sweep %s simulated %d instructions", id, out.Summary.Instrs)
			}
			if !b.check("warm api sweep", err) {
				return err
			}
			l.count("api.run_warm", 1)
		}
	}
	b.set("runner.cache_hit_us", l.perUnit("runner.cache_hit")/1e3, "us")
	b.set("exp.merge_us", l.roundNs("exp.merge")/1e3, "us")
	b.set("exp.write_json_us", l.roundNs("exp.write_json")/1e3, "us")
	b.set("api.run_warm_ms", l.perUnit("api.run_warm")/1e6, "ms")
	return nil
}

// serveLayer measures the daemon's HTTP hop, submission, queueing,
// execution and result fetch under the serve-mix load.
func (l *ladder) serveLayer() error {
	b := l.b
	d, err := b.warmDaemon()
	if err != nil {
		return err
	}
	defer func() {
		select {
		case <-d.exited:
		default:
			d.kill()
		}
	}()
	var rtts []float64
	for i := 0; i < 50; i++ {
		start := time.Now()
		var h api.Health
		if err := d.get("/healthz", &h); err != nil {
			return err
		}
		rtts = append(rtts, ms(time.Since(start)))
	}
	// The daemon's histograms give queue wait and execution time (the
	// JobInfo.ms figure, which it truncates to whole milliseconds) as
	// sums over the sweeps the load submitted.
	series := []string{"cisim_sweep_queue_wait_seconds_sum", "cisim_sweep_queue_wait_seconds_count",
		"cisim_sweep_duration_seconds_sum", "cisim_sweep_duration_seconds_count"}
	before, err := d.series(series)
	if err != nil {
		return err
	}
	load, _ := b.drive(d, ladderServeTime)
	after, err := d.series(series)
	if err != nil {
		return err
	}
	if len(load.latencies) == 0 {
		return errors.New("no ladder serve sweep succeeded")
	}
	b.check("daemon drain", d.stop())
	delta := func(i int) float64 { return after[i] - before[i] }
	b.set("serve.http_rtt_ms", median(rtts), "ms")
	b.set("serve.submit_ms", median(load.submits), "ms")
	b.set("serve.exec_ms", delta(2)/delta(3)*1e3, "ms")
	b.set("serve.queue_ms", delta(0)/delta(1)*1e3, "ms")
	b.set("serve.result_ms", median(load.results), "ms")
	b.set("serve.rejected", float64(load.rejected), "count")
	return nil
}
