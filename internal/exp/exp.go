// Package exp is the experiment harness: one generator per table and
// figure of the paper's evaluation. Each experiment runs the five
// workloads through the appropriate simulator configuration and renders
// the same rows or series the paper reports, so EXPERIMENTS.md can record
// paper-versus-measured shape comparisons.
package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"cisim/internal/ideal"
	"cisim/internal/metrics"
	"cisim/internal/ooo"
	"cisim/internal/plot"
	"cisim/internal/prog"
	"cisim/internal/runner"
	"cisim/internal/stats"
	"cisim/internal/trace"
	"cisim/internal/workloads"
)

// Options controls experiment scale.
type Options struct {
	// Quick shrinks workload lengths (and some sweeps) for tests and
	// benchmarks; results keep their shape but are noisier.
	Quick bool
	// Metrics collects deterministic counter/histogram snapshots from
	// every detailed simulation. The snapshots are part of the cached
	// result (the config key covers the flag), so metric and non-metric
	// runs never share artifacts.
	Metrics bool
}

// iters returns the workload iteration count for the current scale.
func (o Options) iters(w *workloads.Workload) int {
	if o.Quick {
		n := w.DefaultIters / 10
		if n < 50 {
			n = 50
		}
		return n
	}
	return w.DefaultIters
}

// maxTraceInstrs bounds trace generation.
func (o Options) maxTraceInstrs() uint64 {
	if o.Quick {
		return 80_000
	}
	return 600_000
}

// Result is an experiment's rendered output.
type Result struct {
	ID     string
	Tables []*stats.Table
	// Plots carries figure-style curves (per-workload IPC series) for
	// experiments that are line charts in the paper; the CLI renders
	// them with -plot.
	Plots []Plot
	// Metrics holds one merged snapshot per workload (in workloads.All()
	// order) when the experiment ran with Options.Metrics.
	Metrics []WorkloadMetrics
}

// WorkloadMetrics pairs a workload with the metrics snapshot merged over
// every detailed simulation the experiment ran for it.
type WorkloadMetrics struct {
	Workload string            `json:"workload"`
	Snapshot *metrics.Snapshot `json:"snapshot"`
}

// Plot is one renderable chart: a line chart (Series) for the
// IPC-versus-window figures, or a grouped bar chart (Groups) for the
// percent-improvement figures.
type Plot struct {
	Title  string
	Series []plot.Series
	Groups []plot.BarGroup
	Unit   string // bar value suffix, e.g. "%"
}

// Render draws the chart as ASCII.
func (p *Plot) Render() string {
	if len(p.Groups) > 0 {
		return plot.Bars(p.Title, p.Groups, 48, p.Unit)
	}
	return plot.Lines(p.Title, p.Series, 64, 16)
}

// barsFromTable derives a grouped bar chart from a rendered table: one
// group per row (labelled by the labelCols cells), one bar per valueCol.
func barsFromTable(t *stats.Table, title string, labelCols, valueCols []int, unit string) Plot {
	p := Plot{Title: title, Unit: unit}
	for _, row := range t.Rows {
		var labels []string
		for _, c := range labelCols {
			if c < len(row) {
				labels = append(labels, row[c])
			}
		}
		g := plot.BarGroup{Label: strings.Join(labels, " ")}
		for _, c := range valueCols {
			if c >= len(row) || c >= len(t.Columns) {
				continue
			}
			v, ok := parseNumeric(row[c])
			if !ok {
				continue
			}
			g.Bars = append(g.Bars, plot.Bar{Name: t.Columns[c], Value: v})
		}
		if len(g.Bars) > 0 {
			p.Groups = append(p.Groups, g)
		}
	}
	return p
}

func (r *Result) String() string {
	s := ""
	for _, t := range r.Tables {
		s += t.String() + "\n"
	}
	return s
}

// Experiment is a reproducible paper artifact. Its work decomposes into
// one job per workload: RunWorkload computes a workload's Partial and
// Merge assembles partials (in workload order) into the final Result, so
// a scheduler may execute the jobs in any order or concurrently without
// changing the output. Run is the sequential composition of the two.
type Experiment struct {
	ID    string
	Title string
	// Paper describes what the paper's version showed, for side-by-side
	// reading.
	Paper string
	// tables builds the experiment's empty output tables — titles,
	// columns, notes — for a scale.
	tables func(o Options) []*stats.Table
	// workload computes one workload's contribution to those tables.
	workload func(c *wctx) error
	// finish, when set, derives whole-experiment artifacts (bar charts
	// over the merged tables) after the partials are assembled.
	finish func(o Options, r *Result)
}

// Row is one table row's cells, in stats.Table.AddRow form.
type Row []interface{}

// Partial is one workload's contribution to an experiment: rows for
// each output table (Rows[t] belongs to the t-th table the experiment
// declares), per-workload plots, and the number of instructions actually
// simulated to produce it — artifact-cache hits contribute zero, so the
// figure reflects real simulation work.
type Partial struct {
	Rows   [][]Row
	Plots  []Plot
	Instrs uint64
	// Metrics is the union of the snapshots from every detailed run the
	// workload function requested, nil unless Options.Metrics is set.
	Metrics *metrics.Snapshot
}

// wctx is the per-workload execution context handed to an experiment's
// workload function. Its accessors route every program, trace, and
// detailed-simulation request through the shared artifact cache under
// the job's context, and accumulate the workload's Partial.
type wctx struct {
	ctx  context.Context
	w    *workloads.Workload
	o    Options
	part *Partial
}

// row appends a row to the experiment's table-th output table.
func (c *wctx) row(table int, cells ...interface{}) {
	for len(c.part.Rows) <= table {
		c.part.Rows = append(c.part.Rows, nil)
	}
	c.part.Rows[table] = append(c.part.Rows[table], Row(cells))
}

// plot records a per-workload plot.
func (c *wctx) plot(p Plot) { c.part.Plots = append(c.part.Plots, p) }

// program returns the workload's assembled program at the current scale.
func (c *wctx) program() (*prog.Program, error) {
	p, _, err := runner.Artifacts.Program(c.ctx, c.w, c.o.iters(c.w))
	return p, err
}

// trace returns the workload's annotated trace at the current scale,
// counting its generation cost once per cache fill.
func (c *wctx) trace() (*trace.Trace, error) {
	tr, hit, err := runner.Artifacts.Trace(c.ctx, c.w, c.o.iters(c.w),
		trace.Options{MaxInstrs: c.o.maxTraceInstrs()})
	if err != nil {
		return nil, err
	}
	if !hit {
		c.part.Instrs += uint64(len(tr.Entries))
	}
	return tr, nil
}

// detailed runs the workload through the detailed simulator at the
// current scale, memoized in the shared artifact cache. Under
// Options.Metrics each run's snapshot is merged into the Partial; the
// merge clones before mutating because the snapshot may be shared with
// the artifact cache.
func (c *wctx) detailed(cfg ooo.Config) (*ooo.Result, error) {
	cfg.CollectMetrics = c.o.Metrics
	r, hit, err := runner.Artifacts.DetailedContext(c.ctx, c.w, c.o.iters(c.w), cfg)
	if err != nil {
		return nil, err
	}
	if !hit {
		c.part.Instrs += r.Stats.Retired
	}
	if r.Metrics != nil {
		if c.part.Metrics == nil {
			c.part.Metrics = r.Metrics.Clone()
		} else if err := c.part.Metrics.Merge(r.Metrics); err != nil {
			return nil, fmt.Errorf("%s: merging metrics: %w", c.w.Name, err)
		}
	}
	return r, nil
}

// ideal runs the workload's trace through a Section 2 idealized model,
// over the shared prep (one golden stream and derived arrays per
// workload/scale, reused across every model and window size). Trace
// generation is charged once per cache fill, exactly as c.trace does.
func (c *wctx) ideal(cfg ideal.Config) (ideal.Result, error) {
	pre, traceHit, err := runner.Artifacts.IdealPrep(c.ctx, c.w, c.o.iters(c.w),
		trace.Options{MaxInstrs: c.o.maxTraceInstrs()})
	if err != nil {
		return ideal.Result{}, err
	}
	if !traceHit {
		c.part.Instrs += uint64(len(pre.Trace.Entries))
	}
	r, err := ideal.RunPrepared(pre, cfg)
	if err == nil {
		c.part.Instrs += r.Retired
	}
	return r, err
}

// RunWorkload is RunWorkloadContext under context.Background: no scope
// records its cache lookups and no span parents them. It serves callers
// outside any sweep, like Run and the perfbench module, which builds
// separately against this signature and computes partials through it.
func (e *Experiment) RunWorkload(w *workloads.Workload, o Options) (*Partial, error) {
	return e.RunWorkloadContext(context.Background(), w, o)
}

// RunWorkloadContext computes one workload's partial result — the unit
// of work the parallel runner schedules — with its cache lookups made
// under ctx, the job's context.
func (e *Experiment) RunWorkloadContext(ctx context.Context, w *workloads.Workload, o Options) (*Partial, error) {
	c := &wctx{ctx: ctx, w: w, o: o, part: &Partial{}}
	if err := e.workload(c); err != nil {
		return nil, fmt.Errorf("%s/%s: %w", e.ID, w.Name, err)
	}
	return c.part, nil
}

// Merge assembles per-workload partials — which must be ordered as
// workloads.All() — into the experiment's final result. The output
// depends only on the partials' order in the slice, never on the order
// they were computed in.
func (e *Experiment) Merge(o Options, parts []*Partial) (*Result, error) {
	ts := e.tables(o)
	r := &Result{ID: e.ID, Tables: ts}
	ws := workloads.All()
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("%s: missing partial result %d", e.ID, i)
		}
		for ti, rows := range p.Rows {
			if ti >= len(ts) {
				return nil, fmt.Errorf("%s: partial row for table %d of %d", e.ID, ti, len(ts))
			}
			for _, row := range rows {
				ts[ti].AddRow(row...)
			}
		}
		r.Plots = append(r.Plots, p.Plots...)
		if p.Metrics != nil && i < len(ws) {
			r.Metrics = append(r.Metrics, WorkloadMetrics{Workload: ws[i].Name, Snapshot: p.Metrics})
		}
	}
	if e.finish != nil {
		e.finish(o, r)
	}
	return r, nil
}

// Run executes the experiment's workload jobs sequentially and merges
// them. `cisim run` executes the same jobs through the parallel runner;
// both paths produce identical results.
func (e *Experiment) Run(o Options) (*Result, error) {
	ws := workloads.All()
	parts := make([]*Partial, len(ws))
	for i, w := range ws {
		p, err := e.RunWorkload(w, o)
		if err != nil {
			return nil, err
		}
		parts[i] = p
	}
	return e.Merge(o, parts)
}

var registry []*Experiment

func register(e *Experiment) { registry = append(registry, e) }

// All returns every experiment in paper order.
func All() []*Experiment {
	out := make([]*Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return order(out[i].ID) < order(out[j].ID) })
	return out
}

func order(id string) int {
	for i, k := range []string{"table1", "fig3", "fig5", "fig6", "table2", "table3", "table4",
		"fig8", "fig9", "fig10", "fig12", "fig13", "fig14", "fig17"} {
		if k == id {
			return i
		}
	}
	return 99
}

// Get returns the experiment with the given id.
func Get(id string) (*Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return nil, false
}

// Resolve expands experiment ids — where the single element "all" means
// every experiment in paper order — into registry entries, rejecting
// unknown ids, duplicates, and "all" mixed with explicit ids. It is the
// one id-validation path shared by `cisim run` and the serve API
// (internal/api), so both frontends reject the same requests with the
// same diagnostics.
func Resolve(ids []string) ([]*Experiment, error) {
	if len(ids) == 1 && ids[0] == "all" {
		ids = IDs()
	}
	out := make([]*Experiment, len(ids))
	seen := make(map[string]bool, len(ids))
	for i, id := range ids {
		if id == "all" {
			return nil, fmt.Errorf(`"all" cannot be combined with explicit experiment ids`)
		}
		if seen[id] {
			return nil, fmt.Errorf("duplicate experiment %q", id)
		}
		seen[id] = true
		e, ok := Get(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (try 'cisim list')", id)
		}
		out[i] = e
	}
	return out, nil
}

// IDs lists all experiment ids in paper order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }
