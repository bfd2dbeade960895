package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cisim/internal/faults"
)

// TestPoolOrder: results land at submission indices no matter how
// completion interleaves (younger jobs finish first here).
func TestPoolOrder(t *testing.T) {
	const n = 24
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{Exp: "e", Key: fmt.Sprint(i), Run: func(ctx context.Context) (interface{}, uint64, error) {
			time.Sleep(time.Duration(n-i) * time.Millisecond / 4)
			return i, uint64(i), nil
		}}
	}
	results := (&Pool{Workers: 8}).Run(jobs)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if r.Val.(int) != i {
			t.Errorf("result %d holds value %v", i, r.Val)
		}
		if r.Instrs != uint64(i) {
			t.Errorf("result %d instrs = %d", i, r.Instrs)
		}
		if r.Attempts != 1 {
			t.Errorf("result %d attempts = %d", i, r.Attempts)
		}
	}
}

// TestPoolNoShortCircuit: failures and panics are delivered in their
// slots; every other job still runs.
func TestPoolNoShortCircuit(t *testing.T) {
	var ran atomic.Int32
	jobs := []Job{
		{Exp: "a", Key: "ok", Run: func(ctx context.Context) (interface{}, uint64, error) { ran.Add(1); return "fine", 0, nil }},
		{Exp: "b", Key: "bad", Run: func(ctx context.Context) (interface{}, uint64, error) { ran.Add(1); return nil, 0, errors.New("boom") }},
		{Exp: "c", Key: "panics", Run: func(ctx context.Context) (interface{}, uint64, error) { ran.Add(1); panic("kaboom") }},
		{Exp: "d", Key: "ok2", Run: func(ctx context.Context) (interface{}, uint64, error) { ran.Add(1); return "also fine", 0, nil }},
	}
	results := (&Pool{Workers: 2}).Run(jobs)
	if got := ran.Load(); got != 4 {
		t.Fatalf("ran %d jobs, want 4", got)
	}
	if results[0].Err != nil || results[0].Val != "fine" {
		t.Errorf("job 0: %+v", results[0])
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "boom") {
		t.Errorf("job 1 error = %v", results[1].Err)
	}
	if results[2].Err == nil || !strings.Contains(results[2].Err.Error(), "c/panics panicked: kaboom") {
		t.Errorf("job 2 error = %v", results[2].Err)
	}
	// The recovered panic must carry the goroutine stack of the panic
	// site, not just the message (satellite: lost-stack bugfix).
	var pe *PanicError
	if !errors.As(results[2].Err, &pe) {
		t.Fatalf("job 2 error does not wrap PanicError: %v", results[2].Err)
	}
	if !strings.Contains(string(pe.Stack), "goroutine") {
		t.Errorf("PanicError.Stack does not look like a stack trace: %q", pe.Stack)
	}
	if results[3].Err != nil || results[3].Val != "also fine" {
		t.Errorf("job 3: %+v", results[3])
	}
}

// TestPoolConcurrency: the pool genuinely overlaps jobs up to the worker
// bound, and never beyond it.
func TestPoolConcurrency(t *testing.T) {
	var cur, peak atomic.Int32
	barrier := make(chan struct{})
	jobs := make([]Job, 8)
	for i := range jobs {
		first := i < 4
		jobs[i] = Job{Exp: "e", Key: fmt.Sprint(i), Run: func(ctx context.Context) (interface{}, uint64, error) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			if first {
				// The first four jobs meet at a barrier: reaching it
				// proves four workers ran at once.
				barrier <- struct{}{}
			}
			cur.Add(-1)
			return nil, 0, nil
		}}
	}
	done := make(chan []JobResult)
	go func() { done <- (&Pool{Workers: 4}).Run(jobs) }()
	for i := 0; i < 4; i++ {
		select {
		case <-barrier:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 4 workers reached the barrier", i)
		}
	}
	<-done
	if p := peak.Load(); p > 4 {
		t.Errorf("observed %d concurrent jobs with 4 workers", p)
	}
}

func TestNumWorkers(t *testing.T) {
	if got := (&Pool{Workers: 3}).NumWorkers(10); got != 3 {
		t.Errorf("explicit workers: got %d", got)
	}
	if got := (&Pool{Workers: 8}).NumWorkers(2); got != 2 {
		t.Errorf("clamp to jobs: got %d", got)
	}
	if got := (&Pool{}).NumWorkers(1000); got < 1 {
		t.Errorf("default workers: got %d", got)
	}
}

func TestSummarize(t *testing.T) {
	results := []JobResult{
		{Elapsed: 2 * time.Second, Instrs: 100},
		{Elapsed: 3 * time.Second, Instrs: 200, Attempts: 3},
	}
	cs := CacheStats{TraceHits: 3, TraceMisses: 1, ResultHits: 2, ResultMisses: 2}
	s := Summarize(results, 2, 4*time.Second, cs)
	if s.Jobs != 2 || s.Workers != 2 || s.Busy != 5*time.Second || s.Instrs != 300 {
		t.Errorf("summary = %+v", s)
	}
	if s.Retries != 2 {
		t.Errorf("retries = %d, want 2", s.Retries)
	}
	tab := s.Table().String()
	for _, want := range []string{"jobs", "wall clock", "cache hit rate", "62.5%", "instructions simulated", "job retries"} {
		if !strings.Contains(tab, want) {
			t.Errorf("summary table missing %q:\n%s", want, tab)
		}
	}
	ev := s.RunEndEvent()
	if ev.Ev != "run_end" || ev.CacheHits != 5 || ev.CacheMisses != 3 || ev.Instrs != 300 {
		t.Errorf("run_end event = %+v", ev)
	}
}

// TestSummaryTableNoRate: a run that simulated zero instructions (fully
// warm cache) must not report a sim rate of 0 instrs/sec.
func TestSummaryTableNoRate(t *testing.T) {
	s := Summarize([]JobResult{{Elapsed: time.Second}}, 1, time.Second, CacheStats{})
	tab := s.Table().String()
	if strings.Contains(tab, "sim rate") {
		t.Errorf("summary table reports a sim rate with zero instructions:\n%s", tab)
	}
	s.Instrs = 100
	if tab := s.Table().String(); !strings.Contains(tab, "sim rate") {
		t.Errorf("summary table lost its sim rate row:\n%s", tab)
	}
}

// TestPoolEvents: job_start/job_end arrive for every job, with errors
// recorded on the failing one.
func TestPoolEvents(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	sink := sinkFunc(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	jobs := []Job{
		{Exp: "x", Key: "a", Run: func(ctx context.Context) (interface{}, uint64, error) { return nil, 7, nil }},
		{Exp: "x", Key: "b", Run: func(ctx context.Context) (interface{}, uint64, error) { return nil, 0, errors.New("nope") }},
	}
	(&Pool{Workers: 2}).RunContext(sinkCtx(sink), jobs)
	var starts, ends, failed int
	for _, e := range events {
		switch e.Ev {
		case "job_start":
			starts++
		case "job_end":
			ends++
			if e.Key == "b" && e.Err == "nope" {
				failed++
			}
		}
	}
	if starts != 2 || ends != 2 || failed != 1 {
		t.Errorf("starts=%d ends=%d failed=%d; events=%+v", starts, ends, failed, events)
	}
}

// TestPoolRetryTransient: a transiently-failing job is re-run with
// backoff until it succeeds, emitting job_retry events along the way;
// a permanently-failing job is not retried.
func TestPoolRetryTransient(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	sink := sinkFunc(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	var flakyRuns, permRuns atomic.Int32
	jobs := []Job{
		{Exp: "x", Key: "flaky", Run: func(ctx context.Context) (interface{}, uint64, error) {
			if flakyRuns.Add(1) < 3 {
				return nil, 0, Transient(errors.New("blip"))
			}
			return "ok", 5, nil
		}},
		{Exp: "x", Key: "perm", Run: func(ctx context.Context) (interface{}, uint64, error) {
			permRuns.Add(1)
			return nil, 0, errors.New("broken for good")
		}},
	}
	results := (&Pool{Workers: 2, Retries: 3, RetryBase: time.Millisecond}).RunContext(sinkCtx(sink), jobs)
	if results[0].Err != nil || results[0].Val != "ok" || results[0].Attempts != 3 {
		t.Errorf("flaky job: %+v", results[0])
	}
	if results[1].Err == nil || results[1].Attempts != 1 || permRuns.Load() != 1 {
		t.Errorf("permanent job was retried: %+v (runs=%d)", results[1], permRuns.Load())
	}
	var retries int
	for _, e := range events {
		if e.Ev == "job_retry" {
			retries++
			if e.Key != "flaky" || e.Err == "" || e.DelayMs <= 0 {
				t.Errorf("bad job_retry event: %+v", e)
			}
		}
	}
	if retries != 2 {
		t.Errorf("job_retry events = %d, want 2", retries)
	}
}

// TestPoolRetryBudget: a job that never stops failing transiently gives
// up after Retries+1 attempts and surfaces the final error.
func TestPoolRetryBudget(t *testing.T) {
	var runs atomic.Int32
	jobs := []Job{{Exp: "x", Key: "k", Run: func(ctx context.Context) (interface{}, uint64, error) {
		runs.Add(1)
		return nil, 0, Transient(errors.New("always"))
	}}}
	results := (&Pool{Workers: 1, Retries: 2, RetryBase: time.Millisecond}).Run(jobs)
	if runs.Load() != 3 || results[0].Attempts != 3 {
		t.Errorf("runs=%d attempts=%d, want 3/3", runs.Load(), results[0].Attempts)
	}
	if !IsTransient(results[0].Err) {
		t.Errorf("final error lost its class: %v", results[0].Err)
	}
}

// TestBackoffDelay: jitter-free doubling, capped.
func TestBackoffDelay(t *testing.T) {
	base := 100 * time.Millisecond
	for _, tc := range []struct {
		attempt int
		want    time.Duration
	}{{1, 100 * time.Millisecond}, {2, 200 * time.Millisecond}, {3, 400 * time.Millisecond}, {7, retryCap}, {40, retryCap}} {
		if got := backoffDelay(base, tc.attempt); got != tc.want {
			t.Errorf("backoffDelay(%v, %d) = %v, want %v", base, tc.attempt, got, tc.want)
		}
	}
	if got := backoffDelay(0, 1); got != defaultRetryBase {
		t.Errorf("zero base: got %v", got)
	}
}

// TestPoolTimeout: a job that outlives its deadline fails with
// ErrTimeout after a job_stall event, and the worker moves on to run the
// remaining jobs.
func TestPoolTimeout(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	sink := sinkFunc(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	jobs := []Job{
		{Exp: "x", Key: "hang", Run: func(ctx context.Context) (interface{}, uint64, error) {
			<-ctx.Done()
			return nil, 0, ctx.Err()
		}},
		{Exp: "x", Key: "after", Run: func(ctx context.Context) (interface{}, uint64, error) {
			return "ran", 0, nil
		}},
	}
	results := (&Pool{Workers: 1, Timeout: 20 * time.Millisecond}).RunContext(sinkCtx(sink), jobs)
	if !errors.Is(results[0].Err, ErrTimeout) {
		t.Errorf("hung job error = %v, want ErrTimeout", results[0].Err)
	}
	if results[1].Err != nil || results[1].Val != "ran" {
		t.Errorf("job after the hang: %+v", results[1])
	}
	var stalls int
	for _, e := range events {
		if e.Ev == "job_stall" && e.Key == "hang" {
			stalls++
		}
	}
	if stalls != 1 {
		t.Errorf("job_stall events = %d, want 1", stalls)
	}
}

// TestPoolAbort: canceling the run context stops dispatch, drains the
// in-flight job (its result is kept), marks the rest skipped with
// ErrAborted, and emits run_abort.
func TestPoolAbort(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	sink := sinkFunc(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	ctx, cancel := context.WithCancel(sinkCtx(sink))
	started := make(chan struct{})
	release := make(chan struct{})
	jobs := []Job{
		{Exp: "x", Key: "inflight", Run: func(jctx context.Context) (interface{}, uint64, error) {
			close(started)
			<-release
			return "drained", 3, nil
		}},
		{Exp: "x", Key: "never1", Run: func(jctx context.Context) (interface{}, uint64, error) { return nil, 0, nil }},
		{Exp: "x", Key: "never2", Run: func(jctx context.Context) (interface{}, uint64, error) { return nil, 0, nil }},
	}
	done := make(chan []JobResult)
	go func() { done <- (&Pool{Workers: 1}).RunContext(ctx, jobs) }()
	<-started
	cancel()
	// Give the dispatcher a beat to observe the cancellation before the
	// in-flight job is released; drain means its result is still kept.
	time.Sleep(10 * time.Millisecond)
	close(release)
	results := <-done
	if results[0].Err != nil || results[0].Val != "drained" || results[0].Instrs != 3 {
		t.Errorf("in-flight job was not drained: %+v", results[0])
	}
	skipped := 0
	for _, r := range results[1:] {
		if r.Skipped && errors.Is(r.Err, ErrAborted) {
			skipped++
		}
	}
	if skipped != 2 {
		t.Errorf("skipped = %d, want 2; results=%+v", skipped, results)
	}
	var aborts int
	for _, e := range events {
		if e.Ev == "run_abort" {
			aborts++
			if e.Skipped != 2 {
				t.Errorf("run_abort skipped = %d, want 2", e.Skipped)
			}
		}
	}
	if aborts != 1 {
		t.Errorf("run_abort events = %d, want 1", aborts)
	}
}

// TestPoolFaultRunAbort: the run-abort fault point cancels the pool from
// within, as if the campaign were interrupted at that job pickup.
func TestPoolFaultRunAbort(t *testing.T) {
	plan, err := faults.Parse(FaultRunAbort + "@2")
	if err != nil {
		t.Fatal(err)
	}
	faults.Set(plan)
	defer faults.Clear()
	var ran atomic.Int32
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{Exp: "x", Key: fmt.Sprint(i), Run: func(ctx context.Context) (interface{}, uint64, error) {
			ran.Add(1)
			return nil, 0, nil
		}}
	}
	results := (&Pool{Workers: 1}).Run(jobs)
	skipped := 0
	for _, r := range results {
		if r.Skipped {
			skipped++
		}
	}
	if skipped == 0 {
		t.Errorf("run-abort fault skipped no jobs (ran=%d)", ran.Load())
	}
	if int(ran.Load())+skipped > len(jobs) {
		t.Errorf("ran=%d + skipped=%d exceeds %d jobs", ran.Load(), skipped, len(jobs))
	}
}

// TestPoolConcurrentRetries: many flaky jobs retrying at once under an
// events sink — primarily a data-race canary for `go test -race`.
func TestPoolConcurrentRetries(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	sink := sinkFunc(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	const n = 16
	var firstTries [n]atomic.Bool
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{Exp: "x", Key: fmt.Sprint(i), Run: func(ctx context.Context) (interface{}, uint64, error) {
			if firstTries[i].CompareAndSwap(false, true) {
				return nil, 0, Transient(errors.New("first try always fails"))
			}
			return i, 1, nil
		}}
	}
	results := (&Pool{Workers: 8, Retries: 1, RetryBase: time.Microsecond}).RunContext(sinkCtx(sink), jobs)
	for i, r := range results {
		if r.Err != nil || r.Val.(int) != i || r.Attempts != 2 {
			t.Errorf("job %d: %+v", i, r)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	var retries int
	for _, e := range events {
		if e.Ev == "job_retry" {
			retries++
		}
	}
	if retries != n {
		t.Errorf("job_retry events = %d, want %d", retries, n)
	}
}

type sinkFunc func(Event)

func (f sinkFunc) Emit(e Event) { f(e) }

// sinkCtx returns a context whose scope emits to sink.
func sinkCtx(sink Sink) context.Context {
	ctx, _ := scoped(sink)
	return ctx
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(Event{Ev: "job_start", Exp: "fig5", Key: "xgo"})
	s.Emit(Event{Ev: "cache", Kind: KindTrace, Key: "xgo", Hit: boolp(true)})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	var ev struct {
		Ev  string  `json:"ev"`
		T   float64 `json:"t_ms"`
		Exp string  `json:"exp"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Ev != "job_start" || ev.Exp != "fig5" || ev.T < 0 {
		t.Errorf("decoded event = %+v", ev)
	}
	if !strings.Contains(lines[1], `"hit":true`) {
		t.Errorf("cache event line missing hit flag: %s", lines[1])
	}
}

// TestTransientClassification: the transient marker survives %w wrapping.
func TestTransientClassification(t *testing.T) {
	base := Transient(errors.New("io hiccup"))
	wrapped := fmt.Errorf("job fig5/xgo: %w", base)
	if !IsTransient(base) || !IsTransient(wrapped) {
		t.Error("transient class lost through wrapping")
	}
	if IsTransient(errors.New("plain")) || IsTransient(nil) {
		t.Error("non-transient misclassified")
	}
}
