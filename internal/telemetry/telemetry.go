// Package telemetry is the harness's span-tracing subsystem: a
// deterministic-ID span model (trace ID / span ID / parent, a fixed
// attribute vocabulary, monotonic start and duration) with JSONL and
// Chrome trace-event export, so every millisecond of a sweep — queue
// wait, job execution, pipeline stages, persistent-store traffic — is
// attributable offline (DESIGN.md §14).
//
// The determinism contract mirrors the run-event stream's: spans are a
// side channel that never feeds back into simulation. IDs carry no
// randomness and no wall-clock time — the trace ID is a sha256
// derivation of caller-chosen parts (TraceID) or adopted from a client's
// traceparent header, and span IDs are a per-collector counter rendered
// as fixed-width hex, so a serial run produces byte-stable IDs and a
// parallel run produces IDs that differ only in allocation order.
// Timestamps are microseconds since the collector's epoch (monotonic,
// never absolute), so two runs of the same sweep differ only in
// durations. Simulation results are identical with tracing on or off.
//
// Instrumented code paths start spans through the context they run
// under (StartSpan): a span rides its context, so work done under that
// context — on any goroutine — nests beneath it, and the artifact cache
// and store take the context as an argument that never enters a content
// address. A context without a span roots its span on the process-global
// collector (Enable/Current); with no collector enabled every operation
// is a nil-safe no-op, which is the production default.
package telemetry

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one finished span, serialized as a JSON line. Like
// runner.Event, the shape is flat and pinned by a golden test
// (cmd/cisim/testdata/span_schema.json): a fixed field vocabulary
// instead of an open attribute map, so offline analyzers parse by name.
//
// Span names in use: sweep, job, merge, stage:program, stage:trace,
// stage:prep, stage:sim, store:get, store:put, store:lock_wait,
// serve:sweep, client:sweep.
type Record struct {
	// Trace, Span, Parent identify the span: a 32-hex trace ID shared by
	// every span of one sweep (W3C-traceparent compatible), a 16-hex
	// span ID, and the parent span's ID ("" for a root).
	Trace  string `json:"trace"`
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`

	// TUs is the span's start in microseconds since the collector's
	// epoch; DurUs is its duration. Both are monotonic-clock derived and
	// rounded to two decimals, like the event stream's t_ms.
	TUs   float64 `json:"t_us"`
	DurUs float64 `json:"dur_us"`

	// Identity attributes, mirroring the event stream's fields: the
	// owning experiment and workload (job, merge), artifact kind and
	// content address (stage:*, store:*), the 1-based pool worker, and
	// the attempt number (only stamped on retries, like job events).
	Exp     string `json:"exp,omitempty"`
	Key     string `json:"key,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Addr    string `json:"addr,omitempty"`
	Worker  int    `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`

	// QueueUs is how long the work waited before this span started: pool
	// dispatch latency on a job's first attempt, submit-to-dispatch wait
	// on a serve:sweep.
	QueueUs float64 `json:"queue_us,omitempty"`
	// Bytes is the blob size moved by store:get / store:put spans.
	Bytes int64 `json:"bytes,omitempty"`
	// Err records the span's failure, "" on success.
	Err string `json:"err,omitempty"`
}

// End returns the record's end time in microseconds since epoch.
func (r Record) End() float64 { return r.TUs + r.DurUs }

// Collector accumulates one trace's spans. All methods are safe for
// concurrent use; a collector is cheap enough to build per sweep.
type Collector struct {
	trace string
	epoch time.Time

	mu   sync.Mutex
	next uint64   // guarded by mu; span ID counter
	done []Record // guarded by mu; finished spans
}

// NewCollector returns a collector for the given 32-hex trace ID; an
// empty ID gets the deterministic default TraceID("cisim").
func NewCollector(traceID string) *Collector {
	if traceID == "" {
		traceID = TraceID("cisim")
	}
	return &Collector{trace: traceID, epoch: time.Now()}
}

// Trace returns the collector's trace ID.
func (c *Collector) Trace() string { return c.trace }

// active is the process-global collector that spans started under a
// span-less context root on; nil (the default) disables tracing. The
// CLI enables it for one traced run per process; the daemon never does —
// each of its sweeps carries its own collector's root in its context.
var active atomic.Pointer[Collector]

// Enable installs c as the process-global collector.
func Enable(c *Collector) { active.Store(c) }

// Disable removes the process-global collector.
func Disable() { active.Store(nil) }

// Current returns the process-global collector, nil when tracing is off.
func Current() *Collector { return active.Load() }

// spanKey is the context key the current span rides under.
type spanKey struct{}

// StartSpan starts a span and returns it with a context carrying it, so
// spans started under that context nest beneath it. The parent is the
// span ctx carries; a ctx without one starts a root on the process-global
// collector. With tracing off it returns nil (every Span method is
// nil-safe) and ctx unchanged. Callers that set attribute fields must
// guard: if sp != nil { sp.Exp = ... }.
func StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	var sp *Span
	if parent, _ := ctx.Value(spanKey{}).(*Span); parent != nil {
		sp = parent.c.StartWith(parent.id, name)
	} else if c := Current(); c != nil {
		sp = c.Start(name)
	}
	return sp, ContextWithSpan(ctx, sp)
}

// ContextWithSpan returns a context carrying sp as the parent of spans
// started under it — for a root started directly on a collector, like
// the daemon's serve:sweep. A nil sp returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// Span is a live, unfinished span. The attribute fields may be set by
// the owning goroutine any time before End; the handle is not safe for
// concurrent use (the Collector behind it is), except that children may
// be started under it from any goroutine.
type Span struct {
	Exp, Key   string
	Kind, Addr string
	Worker     int
	Attempt    int
	QueueUs    float64
	Bytes      int64
	Err        string

	c      *Collector
	id     string
	parent string
	name   string
	start  time.Time
	tUs    float64
	ended  bool
}

// Start begins a root span.
func (c *Collector) Start(name string) *Span { return c.StartWith("", name) }

// StartWith begins a span under an explicit parent span ID ("" for a
// root): a context span's child, or a span whose parent crossed a
// process boundary, like a client span arriving in a traceparent header.
func (c *Collector) StartWith(parent, name string) *Span {
	c.mu.Lock()
	c.next++
	id := fmt.Sprintf("%016x", c.next)
	c.mu.Unlock()
	return c.startWith(parent, id, name)
}

func (c *Collector) startWith(parent, id, name string) *Span {
	now := time.Now()
	return &Span{c: c, id: id, parent: parent, name: name,
		start: now, tUs: Us(now.Sub(c.epoch))}
}

// ID returns the span's 16-hex ID, "" on a nil span.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// End finishes the span and appends its record to the collector.
// Nil-safe and idempotent; a late End after the collector was exported
// appends a record nobody reads, which is harmless (the watchdog may
// abandon a job goroutine that ends its spans after the sweep).
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	rec := Record{
		Trace: s.c.trace, Span: s.id, Parent: s.parent, Name: s.name,
		TUs: s.tUs, DurUs: Us(time.Since(s.start)),
		Exp: s.Exp, Key: s.Key, Kind: s.Kind, Addr: s.Addr,
		Worker: s.Worker, Attempt: s.Attempt,
		QueueUs: s.QueueUs, Bytes: s.Bytes, Err: s.Err,
	}
	s.c.mu.Lock()
	s.c.done = append(s.c.done, rec)
	s.c.mu.Unlock()
}

// Records snapshots the finished spans, sorted by start time then span
// ID so export order is deterministic regardless of End interleaving.
func (c *Collector) Records() []Record {
	c.mu.Lock()
	recs := make([]Record, len(c.done))
	copy(recs, c.done)
	c.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].TUs != recs[j].TUs {
			return recs[i].TUs < recs[j].TUs
		}
		return recs[i].Span < recs[j].Span
	})
	return recs
}

// TraceID derives a 32-hex trace ID from the parts — sha256-based like
// the artifact cache's content addresses, so the same inputs name the
// same trace and no randomness or clock is involved.
func TraceID(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// Us converts a duration to microseconds rounded to two decimals, the
// resolution every Record field uses.
func Us(d time.Duration) float64 { return round2(float64(d.Nanoseconds()) / 1e3) }

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }
