// Package runner orchestrates experiment execution: a bounded worker
// pool over (experiment, workload) jobs, a content-addressed artifact
// cache that collapses redundant assembly, trace generation, and
// detailed simulation across experiments, and a structured JSONL event
// stream for observing a run.
//
// The package is deliberately ignorant of the experiment registry: jobs
// are opaque closures tagged with display identity, so the scheduler
// stays reusable for any decomposition. Determinism is structural —
// Pool.Run returns results indexed by submission order, so callers merge
// partial results in a fixed order no matter how completion interleaves.
//
// The pool is also the harness's resilience layer (DESIGN.md §8): jobs
// carry an optional deadline enforced by a watchdog, transient failures
// retry with capped jitter-free exponential backoff, panics keep their
// stacks, and a context cancellation drains in-flight jobs while marking
// the undispatched remainder as skipped. Every recovery path is
// exercisable on demand through the deterministic fault points this
// package registers with internal/faults.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"cisim/internal/faults"
	"cisim/internal/stats"
	"cisim/internal/telemetry"
)

// Fault points registered by the pool (see internal/faults for the
// activation grammar). They simulate the failure modes a long simulation
// campaign meets in practice, at the exact layer the recovery machinery
// guards.
var (
	// FaultJobHang makes a picked-up job block until its context is
	// done, exercising the deadline watchdog (job_stall) path.
	FaultJobHang = faults.Register("job-hang", "job blocks until its deadline or the run aborts")
	// FaultJobTransient makes a job fail with a retryable error,
	// exercising the backoff/retry (job_retry) path.
	FaultJobTransient = faults.Register("job-transient", "job fails with a transient (retryable) error")
	// FaultJobPermanent makes a job fail with a permanent error: no
	// retry, the failure surfaces in the merged report.
	FaultJobPermanent = faults.Register("job-permanent", "job fails with a permanent error")
	// FaultJobPanic makes a job panic, exercising stack capture.
	FaultJobPanic = faults.Register("job-panic", "job panics mid-run")
	// FaultRunAbort cancels the run at a job pickup, exercising the
	// graceful drain / partial-report (run_abort) path.
	FaultRunAbort = faults.Register("run-abort", "run aborts at a job pickup, as if interrupted")
)

// Job is one schedulable unit of work: typically one workload of one
// experiment. Run returns the job's value, the number of instructions it
// actually simulated (artifact-cache hits contribute zero), and an
// error. The context is done when the job's deadline expires or the run
// aborts; compute-bound jobs that cannot observe it mid-simulation are
// abandoned by the watchdog instead.
type Job struct {
	Exp string // owning experiment id, for events and error reports
	Key string // sub-unit label, typically the workload name
	Run func(ctx context.Context) (val interface{}, instrs uint64, err error)
}

// JobResult is one job's outcome, delivered at the job's submission
// index regardless of completion order.
type JobResult struct {
	Val     interface{}
	Err     error
	Elapsed time.Duration
	Instrs  uint64
	// Attempts counts executions of the job: 1 normally, more when
	// transient failures were retried, 0 when the job never ran.
	Attempts int
	// Skipped marks a job that never executed because the run aborted
	// first; Err is ErrAborted.
	Skipped bool
}

// Pool executes jobs with bounded concurrency.
type Pool struct {
	// Workers bounds concurrent jobs; 0 means GOMAXPROCS.
	Workers int
	// Timeout is the per-attempt job deadline; 0 means none. A job that
	// outlives it fails with ErrTimeout after a job_stall event.
	Timeout time.Duration
	// Retries is how many times a transiently-failed job is re-run
	// (so a job executes at most Retries+1 times).
	Retries int
	// RetryBase is the first backoff delay; it doubles per retry and is
	// capped at retryCap. 0 means 100ms. Backoff is jitter-free so a
	// fault-injected run replays identically.
	RetryBase time.Duration
}

const (
	defaultRetryBase = 100 * time.Millisecond
	// retryCap bounds the exponential backoff.
	retryCap = 5 * time.Second
	// stallGrace is how long the watchdog waits after the deadline for
	// the job to notice its context before abandoning it.
	stallGrace = 50 * time.Millisecond
)

// NumWorkers resolves the effective worker count for a run of njobs
// jobs: Workers when positive (GOMAXPROCS otherwise), never more than
// the jobs available.
func (p *Pool) NumWorkers(njobs int) int {
	n := p.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > njobs && njobs > 0 {
		n = njobs
	}
	return n
}

// Run executes the jobs and returns their results in submission order.
// It always runs every job: per-job failures are reported in the
// result slice, not short-circuited, so one broken experiment cannot
// silently suppress the others.
func (p *Pool) Run(jobs []Job) []JobResult {
	return p.RunContext(context.Background(), jobs)
}

// RunContext is Run under a context. The context's Scope receives the
// job_start/job_end/job_retry/job_stall/run_abort events, and its span
// parents each job span; each job runs under its job span's context.
// When the context is canceled — SIGINT/SIGTERM at the CLI, a cancel or
// graceful drain at the serve daemon, or the run-abort fault point — the
// pool stops dispatching, lets in-flight jobs drain, marks the remainder
// skipped (Err == ErrAborted), emits one run_abort event, and returns
// every slot filled. Results stay indexed by submission order.
func (p *Pool) RunContext(parent context.Context, jobs []Job) []JobResult {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	n := p.NumWorkers(len(jobs))
	results := make([]JobResult, len(jobs))
	idx := make(chan int)
	// poolStart anchors each job's queue-wait attribution: the gap from
	// here to a job's first attempt is pool dispatch latency.
	poolStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		// Workers are numbered from 1 in events; 0 means "unattributed"
		// and is omitted from JSON.
		worker := w + 1
		go func() {
			defer wg.Done()
			for i := range idx {
				if faults.Fire(FaultRunAbort) {
					cancel()
				}
				results[i] = p.runOne(ctx, jobs[i], worker, poolStart)
			}
		}()
	}
	dispatched := len(jobs)
dispatch:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			dispatched = i
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	for i := dispatched; i < len(jobs); i++ {
		results[i] = JobResult{Err: ErrAborted, Skipped: true}
	}
	if ctx.Err() != nil {
		skipped := 0
		for _, r := range results {
			if r.Skipped {
				skipped++
			}
		}
		scopeOf(ctx).Emit(Event{Ev: "run_abort", Jobs: len(jobs), Skipped: skipped})
	}
	return results
}

// runOne executes one job to its final outcome: attempts separated by
// backoff while the error stays transient and the budget lasts.
func (p *Pool) runOne(ctx context.Context, j Job, worker int, poolStart time.Time) JobResult {
	if ctx.Err() != nil {
		return JobResult{Err: ErrAborted, Skipped: true}
	}
	maxAttempts := p.Retries + 1
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var res JobResult
	for attempt := 1; ; attempt++ {
		res = p.attempt(ctx, j, attempt, worker, poolStart)
		res.Attempts = attempt
		if res.Err == nil || !IsTransient(res.Err) || attempt >= maxAttempts || ctx.Err() != nil {
			return res
		}
		delay := backoffDelay(p.RetryBase, attempt)
		scopeOf(ctx).Emit(Event{Ev: "job_retry", Exp: j.Exp, Key: j.Key, Worker: worker,
			Attempt: attempt, DelayMs: round2(delay.Seconds() * 1000), Err: res.Err.Error()})
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return res
		}
	}
}

// backoffDelay returns the jitter-free delay before retry number
// attempt+1: base, 2*base, 4*base, ... capped at retryCap.
func backoffDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = defaultRetryBase
	}
	d := base << (attempt - 1)
	if d <= 0 || d > retryCap {
		d = retryCap
	}
	return d
}

// attempt runs the job once under the pool's deadline, with a watchdog
// that reports and abandons a job that outlives it. An abandoned job's
// goroutine keeps running (a simulation cannot be preempted) but the
// worker moves on, so one hung job cannot stall the campaign.
func (p *Pool) attempt(ctx context.Context, j Job, attempt, worker int, poolStart time.Time) JobResult {
	jctx := ctx
	cancel := func() {}
	if p.Timeout > 0 {
		jctx, cancel = context.WithTimeout(ctx, p.Timeout)
	}
	defer cancel()
	sc := scopeOf(ctx)
	ev := Event{Ev: "job_start", Exp: j.Exp, Key: j.Key, Worker: worker}
	if attempt > 1 {
		ev.Attempt = attempt
	}
	sc.Emit(ev)
	start := time.Now()
	done := make(chan JobResult, 1)
	go func() {
		// The job runs under its span's context, so the stage and store
		// spans of its cache lookups nest under the job. A watchdog-
		// abandoned job ends its span late or never; that record is
		// simply absent from the export, like its job_end event.
		sp, sctx := telemetry.StartSpan(jctx, "job")
		if sp != nil {
			sp.Exp, sp.Key, sp.Worker = j.Exp, j.Key, worker
			if attempt > 1 {
				sp.Attempt = attempt
			} else {
				sp.QueueUs = telemetry.Us(start.Sub(poolStart))
			}
		}
		var r JobResult
		r.Val, r.Instrs, r.Err = runJob(sctx, j)
		if sp != nil && r.Err != nil {
			sp.Err = r.Err.Error()
		}
		sp.End()
		done <- r
	}()
	var res JobResult
	select {
	case res = <-done:
	case <-jctx.Done():
		if errors.Is(jctx.Err(), context.DeadlineExceeded) {
			sc.Emit(Event{Ev: "job_stall", Exp: j.Exp, Key: j.Key, Worker: worker,
				Ms: round2(time.Since(start).Seconds() * 1000)})
			// Grace window: a job that observes its context exits here;
			// a compute-bound one is abandoned.
			select {
			case res = <-done:
			case <-time.After(stallGrace):
				res = JobResult{Err: jctx.Err()}
			}
		} else {
			// Run aborted: drain — in-flight work completes and its
			// result is kept (and journaled by the caller).
			res = <-done
		}
	}
	if errors.Is(res.Err, context.DeadlineExceeded) {
		res.Err = fmt.Errorf("job %s/%s: %w (deadline %s)", j.Exp, j.Key, ErrTimeout, p.Timeout)
	}
	res.Elapsed = time.Since(start)
	end := Event{Ev: "job_end", Exp: j.Exp, Key: j.Key, Worker: worker,
		Ms: round2(res.Elapsed.Seconds() * 1000), Instrs: res.Instrs}
	if attempt > 1 {
		end.Attempt = attempt
	}
	if sec := res.Elapsed.Seconds(); sec > 0 && res.Instrs > 0 {
		end.Rate = round2(float64(res.Instrs) / sec)
	}
	if res.Err != nil {
		var pe *PanicError
		if errors.As(res.Err, &pe) {
			// Keep the event line readable: the message names the panic,
			// the stack rides in its own field.
			end.Err = fmt.Sprintf("panicked: %v", pe.Value)
			end.Stack = string(pe.Stack)
		} else {
			end.Err = res.Err.Error()
		}
	}
	sc.Emit(end)
	return res
}

// runJob isolates a job panic into an error so one crashing job cannot
// take down the whole run; the stack is captured at the recovery site so
// the crash stays diagnosable from the JSONL stream alone.
func runJob(ctx context.Context, j Job) (val interface{}, instrs uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job %s/%s panicked: %w", j.Exp, j.Key,
				&PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	if faults.Fire(FaultJobHang) {
		<-ctx.Done()
		return nil, 0, ctx.Err()
	}
	if faults.Fire(FaultJobTransient) {
		return nil, 0, Transient(errors.New("faults: injected transient job failure"))
	}
	if faults.Fire(FaultJobPermanent) {
		return nil, 0, errors.New("faults: injected permanent job failure")
	}
	if faults.Fire(FaultJobPanic) {
		panic("faults: injected job panic")
	}
	return j.Run(ctx)
}

// Summary aggregates a finished run for the footer table and the
// run_end event.
type Summary struct {
	Jobs    int
	Workers int
	Wall    time.Duration
	// Busy is the summed job time across workers (≥ Wall under
	// parallelism).
	Busy   time.Duration
	Instrs uint64
	Cache  CacheStats
	// Skipped counts jobs that never ran (resume replay or abort);
	// Retries counts extra executions beyond each job's first.
	Skipped int
	Retries int
}

// Summarize folds job results and cache statistics into a Summary.
func Summarize(jobs []JobResult, workers int, wall time.Duration, cs CacheStats) Summary {
	s := Summary{Jobs: len(jobs), Workers: workers, Wall: wall, Cache: cs}
	for _, r := range jobs {
		s.Busy += r.Elapsed
		s.Instrs += r.Instrs
		if r.Skipped {
			s.Skipped++
		}
		if r.Attempts > 1 {
			s.Retries += r.Attempts - 1
		}
	}
	return s
}

// Table renders the summary as the run footer.
func (s Summary) Table() *stats.Table {
	t := stats.NewTable("run summary", "metric", "value")
	t.AddRow("jobs", s.Jobs)
	t.AddRow("workers", s.Workers)
	t.AddRow("wall clock", s.Wall.Round(time.Millisecond).String())
	t.AddRow("job time (summed)", s.Busy.Round(time.Millisecond).String())
	t.AddRow("instructions simulated", int(s.Instrs))
	// The rate row is omitted for a run that simulated nothing (fully
	// warm cache, or every job skipped): "0 instrs/sec" would misread as
	// a performance collapse rather than an idle denominator.
	if sec := s.Wall.Seconds(); sec > 0 && s.Instrs > 0 {
		t.AddRow("sim rate (instrs/sec)", fmt.Sprintf("%.0f", float64(s.Instrs)/sec))
	}
	if s.Skipped > 0 {
		t.AddRow("jobs skipped", s.Skipped)
	}
	if s.Retries > 0 {
		t.AddRow("job retries", s.Retries)
	}
	c := s.Cache
	t.AddRow("cache hits / misses", fmt.Sprintf("%d / %d", c.Hits(), c.Misses()))
	t.AddRow("  programs", fmt.Sprintf("%d / %d", c.ProgramHits, c.ProgramMisses))
	t.AddRow("  traces", fmt.Sprintf("%d / %d", c.TraceHits, c.TraceMisses))
	t.AddRow("  sim preps", fmt.Sprintf("%d / %d", c.PrepHits, c.PrepMisses))
	t.AddRow("  detailed results", fmt.Sprintf("%d / %d", c.ResultHits, c.ResultMisses))
	t.AddRow("cache hit rate", stats.Percent(100*c.HitRate()))
	if c.Healed > 0 {
		t.AddRow("cache corruptions healed", int(c.Healed))
	}
	// Persistent-store rows appear only when a store was attached (any
	// traffic at all); a storeless run's footer is unchanged.
	if c.StoreHits+c.StorePuts+c.StoreEvictions+c.StoreHealed > 0 {
		t.AddRow("store hits / puts", fmt.Sprintf("%d / %d", c.StoreHits, c.StorePuts))
		if c.StoreEvictions > 0 {
			t.AddRow("store evictions", int(c.StoreEvictions))
		}
		if c.StoreHealed > 0 {
			t.AddRow("store blobs healed", int(c.StoreHealed))
		}
	}
	return t
}

// RunEndEvent builds the run_end event for a summary, stamped with a Go
// runtime snapshot (live heap, GC work, goroutine count) so a slow or
// memory-hungry run is diagnosable from its event log alone. The
// snapshot describes the harness process; nothing simulation-facing
// reads the wall clock or the runtime.
func (s Summary) RunEndEvent() Event {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Event{Ev: "run_end", Jobs: s.Jobs, Workers: s.Workers,
		Ms: round2(s.Wall.Seconds() * 1000), Instrs: s.Instrs,
		CacheHits: s.Cache.Hits(), CacheMisses: s.Cache.Misses(),
		Skipped: s.Skipped, Healed: s.Cache.Healed,
		HeapBytes:  ms.HeapAlloc,
		GCCycles:   ms.NumGC,
		GCPauseMs:  round2(float64(ms.PauseTotalNs) / 1e6),
		Goroutines: runtime.NumGoroutine()}
}
