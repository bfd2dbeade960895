package runner

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"cisim/internal/metrics"
)

// Event is one structured run event, serialized as a JSON line by
// JSONLSink. The stream records the life of an orchestrated run:
//
//	run_start     — once, with the job count and worker count (and the
//	                count of jobs replayed from a journal, if resuming)
//	job_start     — a worker picked up an (experiment, workload) job;
//	                attempt > 1 marks a retry execution
//	job_end       — the job finished: duration, instructions actually
//	                simulated (cache hits contribute zero), sim rate;
//	                on a panic the stack rides in its own field
//	job_retry     — a transient failure is about to be retried after a
//	                jitter-free backoff delay
//	job_stall     — the watchdog caught a job outliving its deadline
//	job_skip      — a journaled job was replayed instead of re-run
//	cache         — an artifact cache lookup: kind (program/trace/
//	                prep/result), human-readable key, content address,
//	                and hit — always serialized, true or false, so a
//	                miss line is distinguishable from a malformed one
//	cache_corrupt — an artifact failed its checksum on read and was
//	                quarantined for recomputation
//	store_hit     — a memory miss was served from the persistent
//	                artifact store (-cache-dir): kind, key, address, and
//	                the blob's size in bytes
//	store_put     — a freshly computed artifact was written through to
//	                the persistent store
//	store_evict   — the store's size/age budget evicted an entry during
//	                a put (GC evictions via `cisim cache gc` do not ride
//	                the run stream)
//	store_quarantine — a stored blob failed verification (checksum,
//	                decode, or fingerprint) and was moved to the store's
//	                quarantine for recomputation; err says which check
//	metrics       — one (experiment, workload) deterministic metrics
//	                snapshot (counters and cycle-keyed histograms),
//	                emitted when the run collects metrics
//	run_abort     — the run was interrupted (SIGINT/SIGTERM, a daemon
//	                cancel or drain, or an injected abort): in-flight
//	                jobs drained, the rest skipped
//	run_end       — once, with aggregate totals, cache statistics, and a
//	                Go runtime snapshot (heap, GC, goroutines)
//
// The stream's shape is a public interface pinned by a golden test
// (cmd/cisim/testdata/event_schema.json). It has two transports: the
// -events JSONL file, and the serve daemon's per-sweep streaming
// endpoint (internal/serve), which replays and follows the same lines
// over HTTP — `cisim events` analyzes either.
type Event struct {
	Ev string `json:"ev"`
	// T is milliseconds since the sink was created, so a log is
	// self-contained without wall-clock stamps on every line.
	T float64 `json:"t_ms"`

	// Job identity (job_start, job_end, cache when inside a job).
	Exp string `json:"exp,omitempty"`
	Key string `json:"key,omitempty"`

	// Cache lookups. Hit is a pointer so misses serialize an explicit
	// "hit":false rather than omitting the field (a bare bool under
	// omitempty vanished on misses).
	Kind string `json:"kind,omitempty"`
	Addr string `json:"addr,omitempty"`
	Hit  *bool  `json:"hit,omitempty"`
	// Bytes is the blob size carried by persistent-store events
	// (store_hit, store_put, store_evict).
	Bytes int64 `json:"bytes,omitempty"`

	// Job completion.
	Ms     float64 `json:"ms,omitempty"`
	Instrs uint64  `json:"instrs,omitempty"`
	Rate   float64 `json:"instrs_per_sec,omitempty"`
	Err    string  `json:"err,omitempty"`
	// Stack is the recovered panic stack (job_end after a panic).
	Stack string `json:"stack,omitempty"`

	// Retry bookkeeping (job_start, job_end, job_retry).
	Attempt int     `json:"attempt,omitempty"`
	DelayMs float64 `json:"delay_ms,omitempty"`

	// Worker is the 1-based pool worker that handled the job (job_start,
	// job_end, job_retry, job_stall), for per-worker utilization
	// analysis by `cisim events`.
	Worker int `json:"worker,omitempty"`

	// Run lifecycle.
	Jobs    int `json:"jobs,omitempty"`
	Workers int `json:"workers,omitempty"`
	// Skipped counts jobs not executed: journal replays on run_start,
	// abort casualties on run_abort/run_end.
	Skipped int `json:"skipped,omitempty"`
	// run_end cache totals.
	CacheHits   uint64 `json:"cache_hits,omitempty"`
	CacheMisses uint64 `json:"cache_misses,omitempty"`
	Healed      uint64 `json:"healed,omitempty"`

	// run_end Go runtime snapshot: live heap bytes, completed GC cycles,
	// total GC pause, and goroutine count at the end of the run. These
	// describe the harness process, never the simulation, so they ride
	// only on run_end — simulation-side metrics stay cycle-keyed.
	HeapBytes  uint64  `json:"heap_bytes,omitempty"`
	GCCycles   uint32  `json:"gc_cycles,omitempty"`
	GCPauseMs  float64 `json:"gc_pause_ms,omitempty"`
	Goroutines int     `json:"goroutines,omitempty"`

	// Metrics is the snapshot carried by a metrics event.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// boolp returns a pointer to b, for the explicit Hit field.
func boolp(b bool) *bool { return &b }

// Sink receives run events. Implementations must be safe for concurrent
// use; Emit is called from worker goroutines.
type Sink interface {
	Emit(Event)
}

// JSONLSink writes events as JSON lines to an io.Writer.
type JSONLSink struct {
	mu    sync.Mutex
	enc   *json.Encoder // guarded by mu (Emit is called from worker goroutines)
	start time.Time     // guarded by mu
}

// NewJSONLSink wraps w in a concurrency-safe JSONL event writer.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w), start: time.Now()}
}

// Emit writes one event line. Encoding errors are deliberately dropped:
// event logging must never fail a run.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.T = round2(time.Since(s.start).Seconds() * 1000)
	_ = s.enc.Encode(e)
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }
