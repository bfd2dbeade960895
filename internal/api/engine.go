package api

// The sweep engine: everything `cisim run` used to do between flag
// parsing and rendering, factored out so the HTTP daemon executes the
// exact same path. One job per (experiment, workload) on the bounded
// runner pool, journal replay and append-through, run events on an
// optional sink, deterministic merge in paper order. The frontends keep
// only their own concerns: flags, signals, files, and rendering for the
// CLI; HTTP, queueing, and streaming for the daemon.

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"cisim/internal/exp"
	"cisim/internal/runner"
	"cisim/internal/telemetry"
	"cisim/internal/workloads"
)

// RunOptions carries the frontend-provided machinery around a sweep:
// an event sink, an open journal to append completed jobs to, payloads
// replayed from a prior journal, and a hook for journal-write failures.
type RunOptions struct {
	// Sink, when non-nil, receives the full run-event stream
	// (run_start, job_*, cache, store_*, metrics, run_end). It rides the
	// sweep's own runner.Scope, so concurrent sweeps in one process keep
	// disjoint streams.
	Sink runner.Sink
	// Journal, when non-nil, records each completed job fsync'd, so an
	// interrupted sweep resumes instead of recomputing.
	Journal *runner.Journal
	// Replayed maps job content addresses to journaled payloads from a
	// prior run; matching jobs are skipped and their partials reused.
	Replayed map[string]json.RawMessage
	// JournalWarn is called at most once with the first journal write
	// failure; the sweep continues unjournaled. Nil means ignore.
	JournalWarn func(error)
}

// Outcome is one experiment's merged result or first failure, plus the
// summed simulation time of its workload jobs. Aborted marks an
// experiment whose jobs were skipped by a run abort: a hole, not a
// failure.
type Outcome struct {
	Exp     *exp.Experiment
	Result  *exp.Result
	Err     error
	Elapsed time.Duration
	Aborted bool
}

// Output is a finished sweep: per-experiment outcomes in request order,
// the run summary, and whether the sweep was aborted (context cancelled
// — SIGINT/SIGTERM at the CLI, cancel or drain at the daemon — with
// in-flight jobs drained and the rest skipped).
type Output struct {
	Outcomes []Outcome
	Summary  runner.Summary
	Aborted  bool
}

// JSONResults converts the healthy outcomes to the machine-readable
// result form, exactly as `cisim run -json` emits them: failed and
// aborted experiments are absent, order is preserved. Both frontends
// serialize this slice with exp.WriteJSON, which is what makes an HTTP
// result byte-identical to the CLI's.
func (o *Output) JSONResults() []exp.JSONResult {
	var rs []exp.JSONResult
	for _, oc := range o.Outcomes {
		if oc.Err != nil || oc.Aborted || oc.Result == nil {
			continue
		}
		rs = append(rs, exp.ToJSON(oc.Exp, oc.Result))
	}
	return rs
}

// Run executes a validated sweep request to completion under ctx.
// Cancelling ctx is the graceful-drain path: the pool stops dispatching,
// in-flight jobs complete (and are journaled), the remainder is skipped,
// and Output.Aborted is set. The returned error covers request
// validation only; execution failures ride in the outcomes so one broken
// experiment cannot hide the others.
//
// The sweep's runner.Scope and its sweep span ride ctx down to every
// job and cache lookup, so its events, spans and Summary.Cache cover
// exactly its own work; sweeps may run concurrently in one process. The
// sweep span is a child of the span ctx carries, if any.
func Run(ctx context.Context, req *SweepRequest, opts RunOptions) (*Output, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	exps, err := exp.Resolve(req.Experiments)
	if err != nil {
		return nil, err
	}
	opt := exp.Options{Quick: req.Quick, Metrics: req.Metrics}

	// One job per (experiment, workload): finer than whole experiments,
	// so the pool can overlap slow workloads of one experiment with
	// another's, and cache-hit jobs drain in microseconds. parts is
	// indexed by global slot (experiment-major); journal replays fill
	// their slots up front and the pool fills the rest.
	ws := workloads.All()
	total := len(exps) * len(ws)
	parts := make([]*exp.Partial, total)
	executed := make([]runner.JobResult, total)
	ran := make([]bool, total)
	jobList := make([]runner.Job, 0, total)
	slotOf := make([]int, 0, total) // jobList index -> global slot
	type skip struct{ exp, key string }
	var resumedSkips []skip
	var warnOnce sync.Once
	warn := func(err error) {
		if opts.JournalWarn != nil {
			warnOnce.Do(func() { opts.JournalWarn(err) })
		}
	}
	for ei, e := range exps {
		for wi, w := range ws {
			gi := ei*len(ws) + wi
			addr := exp.JobAddress(e, w, opt)
			if raw, ok := opts.Replayed[addr]; ok {
				if p, derr := exp.DecodePartial(raw); derr == nil {
					parts[gi] = p
					resumedSkips = append(resumedSkips, skip{e.ID, w.Name})
					continue
				}
				// Undecodable payload: fall through and recompute.
			}
			e, w := e, w
			jobList = append(jobList, runner.Job{Exp: e.ID, Key: w.Name,
				Run: func(ctx context.Context) (interface{}, uint64, error) {
					p, err := e.RunWorkloadContext(ctx, w, opt)
					var instrs uint64
					if p != nil {
						instrs = p.Instrs
					}
					if err == nil && opts.Journal != nil {
						payload, jerr := exp.EncodePartial(p)
						if jerr == nil {
							jerr = opts.Journal.Record(e.ID, w.Name, addr, payload)
						}
						if jerr != nil {
							// Degrade gracefully: a dying journal disk
							// costs resumability, not the run.
							warn(jerr)
						}
					}
					return p, instrs, err
				}})
			slotOf = append(slotOf, gi)
		}
	}

	scope := runner.NewScope(opts.Sink)
	ctx = runner.WithScope(ctx, scope)
	pool := &runner.Pool{Workers: req.Jobs, Timeout: req.Timeout(), Retries: req.Retries}
	nw := pool.NumWorkers(len(jobList))
	scope.Emit(runner.Event{Ev: "run_start", Jobs: len(jobList), Workers: nw, Skipped: len(resumedSkips)})
	for _, s := range resumedSkips {
		scope.Emit(runner.Event{Ev: "job_skip", Exp: s.exp, Key: s.key})
	}
	// The sweep span brackets exactly the pool interval the footer's
	// wall-clock row reports, so `cisim spans` critical-path totals are
	// comparable to the run summary. Its context parents the job spans.
	sweepSp, sweepCtx := telemetry.StartSpan(ctx, "sweep")
	start := time.Now()
	results := pool.RunContext(sweepCtx, jobList)
	wall := time.Since(start)
	if sweepSp != nil && ctx.Err() != nil {
		sweepSp.Err = ctx.Err().Error()
	}
	sweepSp.End()

	aborted := ctx.Err() != nil
	for k, jr := range results {
		gi := slotOf[k]
		executed[gi] = jr
		ran[gi] = true
		if jr.Skipped {
			aborted = true
		}
		if p, ok := jr.Val.(*exp.Partial); ok && jr.Err == nil {
			parts[gi] = p
		}
	}

	// Merge per-workload partials back into whole experiments, in
	// request order. An experiment with a skipped job is a hole, not a
	// failure.
	outcomes := make([]Outcome, len(exps))
	for i, e := range exps {
		o := Outcome{Exp: e}
		for wi := range ws {
			gi := i*len(ws) + wi
			if !ran[gi] {
				continue // journal replay
			}
			jr := executed[gi]
			o.Elapsed += jr.Elapsed
			if jr.Skipped {
				o.Aborted = true
				continue
			}
			if jr.Err != nil && o.Err == nil {
				o.Err = jr.Err
			}
		}
		if o.Err == nil && !o.Aborted {
			// Merges run after the pool interval; their spans parent to
			// the (ended) sweep span, which is fine — parentage is
			// logical, not lifetime-nested.
			mergeSp, _ := telemetry.StartSpan(sweepCtx, "merge")
			if mergeSp != nil {
				mergeSp.Exp = e.ID
			}
			o.Result, o.Err = e.Merge(opt, parts[i*len(ws):(i+1)*len(ws)])
			if mergeSp != nil && o.Err != nil {
				mergeSp.Err = o.Err.Error()
			}
			mergeSp.End()
		}
		outcomes[i] = o
	}

	// Metrics snapshots ride the event stream too, one event per
	// (experiment, workload) in request order — deterministic because
	// they are emitted from the merged results, never from worker
	// goroutines.
	if opts.Sink != nil && req.Metrics {
		for i, e := range exps {
			if outcomes[i].Result == nil {
				continue
			}
			for _, wm := range outcomes[i].Result.Metrics {
				scope.Emit(runner.Event{Ev: "metrics", Exp: e.ID, Key: wm.Workload, Metrics: wm.Snapshot})
			}
		}
	}

	sum := runner.Summarize(results, nw, wall, scope.Stats())
	if opts.Sink != nil {
		// Guarded: the run_end runtime snapshot stops the world.
		scope.Emit(sum.RunEndEvent())
	}
	return &Output{Outcomes: outcomes, Summary: sum, Aborted: aborted}, nil
}
