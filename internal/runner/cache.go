package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"cisim/internal/faults"
	"cisim/internal/ideal"
	"cisim/internal/ooo"
	"cisim/internal/prog"
	storage "cisim/internal/store"
	"cisim/internal/telemetry"
	"cisim/internal/trace"
	"cisim/internal/workloads"
)

// Cache fault points (see internal/faults).
var (
	// FaultCacheCorrupt flips a just-stored artifact's checksum, so the
	// next read detects corruption and exercises the self-heal path.
	FaultCacheCorrupt = faults.Register("cache-corrupt", "stored artifact checksum is corrupted; next read must self-heal")
	// FaultTraceBudget makes one trace generation fail with a transient
	// error, as if the emulator's step budget was exhausted — the
	// retry path recomputes it.
	FaultTraceBudget = faults.Register("trace-budget", "trace generation fails transiently, as if the emulator step budget ran out")
)

// Artifact kinds tracked by the cache.
const (
	KindProgram = "program"
	KindTrace   = "trace"
	KindPrep    = "prep"
	KindResult  = "result"
)

// stageSpanName maps an artifact kind to its pipeline-stage span name
// (DESIGN.md §14); the result kind is the detailed simulation itself.
func stageSpanName(kind string) string {
	if kind == KindResult {
		return "stage:sim"
	}
	return "stage:" + kind
}

// Cache is a content-addressed artifact cache for the experiment
// harness. It memoizes the three expensive, deterministic artifacts the
// experiments re-derive over and over:
//
//	program — an assembled workload, addressed by the hash of its
//	          assembly source (which encodes the iteration count);
//	trace   — an annotated dynamic trace, addressed by the program
//	          address plus the trace.Options;
//	result  — a detailed ooo simulation, addressed by the program
//	          address plus the canonical ooo.Config key.
//
// Every artifact is immutable once built (programs and traces are
// read-only to the simulators, results are read-only to the renderers),
// so a single instance is safely shared across goroutines. Lookups are
// guarded by singleflight: concurrent requests for the same address
// block on one computation instead of duplicating it.
//
// Every lookup takes the caller's context: the sweep Scope it carries
// counts the lookup and receives its cache and store events, and the
// span it carries parents the lookup's stage and store spans. The
// context never enters a content address.
//
// The cache defends its own integrity (DESIGN.md §8): artifacts that
// implement Fingerprinter are checksummed at store time and re-verified
// on every hit, so an aliasing bug that mutates a shared artifact — the
// failure mode the immutability contract above forbids — is detected at
// the next read instead of silently poisoning every later consumer. A
// corrupt entry is quarantined (evicted), counted, and recomputed once;
// a second consecutive corruption of the same address is reported as an
// error rather than retried forever. Failed computations are never
// memoized, so a transient failure can be retried.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry // guarded by mu
	// disk is the optional persistent backend (SetStore); result-kind
	// misses read through it and successful computes write through.
	disk *storage.Store // guarded by mu
}

// entry's value fields are synchronized by the ready channel, not the
// cache mutex: the computing goroutine writes them before close(ready),
// waiters read them after <-ready.
type entry struct {
	ready chan struct{} // closed when val/err are set
	val   interface{}
	err   error
	// sum is the artifact's integrity checksum, captured at store time
	// when the value implements Fingerprinter (summed reports whether).
	sum    uint64
	summed bool
}

// Fingerprinter lets an artifact expose a cheap integrity checksum. The
// cache verifies it on every hit; implementations must be fast (hash a
// structural summary, not every byte) and deterministic.
type Fingerprinter interface {
	Fingerprint() uint64
}

// fingerprint returns the artifact's checksum and whether it has one.
func fingerprint(v interface{}) (uint64, bool) {
	if f, ok := v.(Fingerprinter); ok {
		return f.Fingerprint(), true
	}
	return 0, false
}

// CacheStats counts one Scope's cache traffic.
type CacheStats struct {
	ProgramHits, ProgramMisses uint64
	TraceHits, TraceMisses     uint64
	PrepHits, PrepMisses       uint64
	ResultHits, ResultMisses   uint64
	// Healed counts corrupt artifacts detected on read and recomputed.
	Healed uint64
	// Persistent-backend traffic (zero when no store is attached):
	// result-kind memory misses served from disk, artifacts written
	// through, entries evicted by the put-path budget, and blobs
	// quarantined as corrupt.
	StoreHits, StorePuts        uint64
	StoreEvictions, StoreHealed uint64
}

// Hits returns total cache hits across kinds.
func (s CacheStats) Hits() uint64 {
	return s.ProgramHits + s.TraceHits + s.PrepHits + s.ResultHits
}

// Misses returns total cache misses across kinds.
func (s CacheStats) Misses() uint64 {
	return s.ProgramMisses + s.TraceMisses + s.PrepMisses + s.ResultMisses
}

// HitRate returns the overall hit fraction in [0,1], 0 when unused.
func (s CacheStats) HitRate() float64 { return rate(s.Hits(), s.Misses()) }

// counters returns an artifact kind's hit and miss counters.
func (s *CacheStats) counters(kind string) (hits, misses *uint64) {
	switch kind {
	case KindProgram:
		return &s.ProgramHits, &s.ProgramMisses
	case KindTrace:
		return &s.TraceHits, &s.TraceMisses
	case KindPrep:
		return &s.PrepHits, &s.PrepMisses
	}
	return &s.ResultHits, &s.ResultMisses
}

// TraceHitRate returns the trace-kind hit fraction in [0,1].
func (s CacheStats) TraceHitRate() float64 { return rate(s.TraceHits, s.TraceMisses) }

func rate(h, m uint64) float64 {
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]*entry{}}
}

// Artifacts is the shared process-wide cache used by the experiment
// harness: every experiment's program, trace, prep and detailed lookups
// route through it, so one `run all` assembles and traces each workload
// once.
var Artifacts = NewCache()

// Reset drops every cached artifact. Intended for benchmarks measuring
// cold-cache behaviour; it must not race with in-flight lookups.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*entry{}
}

// addr derives the content address for an artifact description.
func addr(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Address derives a content address from the parts, with the same
// construction the cache uses internally — exported for callers that
// need stable artifact identities outside the cache, like the run
// journal's job keys.
func Address(parts ...string) string { return addr(parts...) }

// get memoizes compute under (kind, address) with singleflight: the
// first caller computes, concurrent callers block until the value is
// ready, later callers return it immediately. The bool reports whether
// the value came from the cache (including waiting on an in-flight
// computation) rather than being computed by this call.
//
// Two deliberate asymmetries against a plain memo table:
//
//   - failures are not memoized: a compute error is returned to everyone
//     already waiting, but the entry is evicted so a later caller (e.g.
//     a retried job) recomputes instead of replaying the failure;
//   - values are verified: a hit whose artifact fails its checksum is
//     quarantined and recomputed once (see Cache doc).
//
// compute runs under the miss's stage-span context, so the lookups and
// store calls it makes nest beneath that span.
func (c *Cache) get(ctx context.Context, kind, key, address string, compute func(context.Context) (interface{}, error)) (interface{}, bool, error) {
	return c.getDepth(ctx, kind, key, address, compute, 0)
}

func (c *Cache) getDepth(ctx context.Context, kind, key, address string, compute func(context.Context) (interface{}, error), depth int) (interface{}, bool, error) {
	sc := scopeOf(ctx)
	c.mu.Lock()
	if e, ok := c.entries[address]; ok {
		c.mu.Unlock()
		sc.record(Event{Ev: "cache", Kind: kind, Key: key, Addr: address, Hit: boolp(true)})
		<-e.ready
		if e.err == nil && e.summed {
			if sum, _ := fingerprint(e.val); sum != e.sum {
				return c.heal(ctx, kind, key, address, compute, depth, e)
			}
		}
		return e.val, true, e.err
	}
	e := &entry{ready: make(chan struct{})}
	c.entries[address] = e
	c.mu.Unlock()
	sc.record(Event{Ev: "cache", Kind: kind, Key: key, Addr: address, Hit: boolp(false)})

	defer func() {
		if e.err != nil {
			// Do not memoize failures: evict so a retry recomputes.
			c.mu.Lock()
			if c.entries[address] == e {
				delete(c.entries, address)
			}
			c.mu.Unlock()
		}
		close(e.ready)
	}()
	func() {
		// The stage span brackets the whole miss path — store lookup
		// included — and its context carries the compute, so store spans
		// and nested lookups nest under it. Only the computing goroutine
		// pays it; singleflight waiters attribute the wait to their own
		// job span.
		sp, sctx := telemetry.StartSpan(ctx, stageSpanName(kind))
		if sp != nil {
			sp.Kind, sp.Key, sp.Addr = kind, key, address
		}
		defer func() {
			if sp != nil && e.err != nil {
				sp.Err = e.err.Error()
			}
			sp.End()
		}()
		// A panicking compute (e.g. an assembler bug) must not leave
		// waiters blocked forever: record it as the entry's error.
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("runner: computing %s %s: panic: %w", kind, key,
					&PanicError{Value: r, Stack: debug.Stack()})
			}
		}()
		// throughDisk consults the persistent store (when one is attached
		// and the kind persists) before falling back to compute.
		e.val, e.err = c.throughDisk(sctx, kind, key, address, compute)
	}()
	if e.err == nil {
		e.sum, e.summed = fingerprint(e.val)
		if e.summed && faults.Fire(FaultCacheCorrupt) {
			// Simulate in-memory corruption of the stored artifact: the
			// checksum no longer matches, so the next read must heal.
			e.sum ^= 1
		}
		if depth >= 1 && e.summed {
			// This compute is a heal's recomputation: verify it before
			// handing it out, so corruption that strikes the replacement
			// too surfaces as an error instead of healing forever.
			if sum, _ := fingerprint(e.val); sum != e.sum {
				e.val = nil
				e.err = fmt.Errorf("runner: %s %s (%s): artifact failed its checksum again after recomputation", kind, key, address)
			}
		}
	}
	return e.val, false, e.err
}

// heal quarantines a corrupt entry and recomputes it once. Concurrent
// detectors race to evict; exactly one records the corruption (counts
// it and emits cache_corrupt), and all of them converge on the
// recomputation's singleflight entry.
func (c *Cache) heal(ctx context.Context, kind, key, address string, compute func(context.Context) (interface{}, error), depth int, bad *entry) (interface{}, bool, error) {
	if depth >= 1 {
		return nil, false, fmt.Errorf("runner: %s %s (%s): artifact failed its checksum again after recomputation", kind, key, address)
	}
	c.mu.Lock()
	evicted := c.entries[address] == bad
	if evicted {
		delete(c.entries, address)
	}
	c.mu.Unlock()
	if evicted {
		scopeOf(ctx).record(Event{Ev: "cache_corrupt", Kind: kind, Key: key, Addr: address})
	}
	return c.getDepth(ctx, kind, key, address, compute, depth+1)
}

// Program returns the assembled program for a workload at an iteration
// count, addressed by the hash of the generated assembly source. The
// bool reports a cache hit.
func (c *Cache) Program(ctx context.Context, w *workloads.Workload, iters int) (*prog.Program, bool, error) {
	src := w.Source(iters)
	key := fmt.Sprintf("%s iters=%d", w.Name, iters)
	v, hit, err := c.get(ctx, KindProgram, key, addr(KindProgram, src), func(context.Context) (interface{}, error) {
		return w.Assemble(iters)
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*prog.Program), hit, nil
}

// Trace returns the annotated dynamic trace of a workload at an
// iteration count under the given trace options, addressed by the
// program's content address plus the options. The bool reports a cache
// hit.
func (c *Cache) Trace(ctx context.Context, w *workloads.Workload, iters int, opt trace.Options) (*trace.Trace, bool, error) {
	p, _, err := c.Program(ctx, w, iters)
	if err != nil {
		return nil, false, err
	}
	src := w.Source(iters)
	key := fmt.Sprintf("%s iters=%d %+v", w.Name, iters, opt)
	v, hit, err := c.get(ctx, KindTrace, key, addr(KindTrace, src, fmt.Sprintf("%+v", opt)), func(context.Context) (interface{}, error) {
		if faults.Fire(FaultTraceBudget) {
			// Failures are not memoized, so a retried job recomputes.
			return nil, Transient(errors.New("faults: injected emulator step-budget exhaustion"))
		}
		return trace.Generate(p, opt)
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*trace.Trace), hit, nil
}

// IdealPrep returns the shared ideal-model preparation of a workload's
// trace — the golden stream plus the per-entry latency/source arrays the
// six Section 2 schedulers all derive — addressed by the program's
// content address plus the trace options. One prep serves every (model,
// window) point of a sweep. The bool reports whether the underlying
// trace was a cache hit, which is what the experiments' instruction
// accounting keys on.
func (c *Cache) IdealPrep(ctx context.Context, w *workloads.Workload, iters int, opt trace.Options) (*ideal.Prep, bool, error) {
	tr, traceHit, err := c.Trace(ctx, w, iters, opt)
	if err != nil {
		return nil, traceHit, err
	}
	src := w.Source(iters)
	key := fmt.Sprintf("%s iters=%d ideal %+v", w.Name, iters, opt)
	v, _, err := c.get(ctx, KindPrep, key, addr(KindPrep, "ideal", src, fmt.Sprintf("%+v", opt)), func(context.Context) (interface{}, error) {
		return ideal.Prepare(tr), nil
	})
	if err != nil {
		return nil, traceHit, err
	}
	return v.(*ideal.Prep), traceHit, nil
}

// prep returns the shared pre-simulation artifacts (golden stream, CFG
// post-dominator analysis) for a program, addressed by its content
// address plus the instruction budget. One prep serves every detailed
// configuration of the workload.
func (c *Cache) prep(ctx context.Context, w *workloads.Workload, iters int, p *prog.Program, maxInstrs uint64) (*ooo.Prep, error) {
	src := w.Source(iters)
	key := fmt.Sprintf("%s iters=%d max=%d", w.Name, iters, maxInstrs)
	v, _, err := c.get(ctx, KindPrep, key, addr(KindPrep, src, fmt.Sprint(maxInstrs)), func(context.Context) (interface{}, error) {
		return ooo.Prepare(p, maxInstrs)
	})
	if err != nil {
		return nil, err
	}
	return v.(*ooo.Prep), nil
}

// Detailed returns the result of running a workload through the
// detailed simulator under cfg, addressed by the program's content
// address plus the canonical configuration key (so configurations that
// only differ in spelled-out defaults share an entry). The program and
// the shared prep are looked up only when the result has to be computed,
// so a hit touches nothing but the result. Configurations carrying debug
// hooks are executed directly — uncached, though still over the shared
// prep artifacts. The bool reports a cache hit.
//
// Detailed is DetailedContext under context.Background: no scope
// records the lookups and no span parents them. It serves callers
// outside any sweep: `cisim sim`, and the perfbench module, which builds
// separately against this signature and times warm hits through it.
func (c *Cache) Detailed(w *workloads.Workload, iters int, cfg ooo.Config) (*ooo.Result, bool, error) {
	return c.DetailedContext(context.Background(), w, iters, cfg)
}

// DetailedContext is Detailed under ctx, whose Scope records the
// lookups and whose span parents their stage spans.
func (c *Cache) DetailedContext(ctx context.Context, w *workloads.Workload, iters int, cfg ooo.Config) (*ooo.Result, bool, error) {
	run := func(ctx context.Context) (*ooo.Result, error) {
		p, _, err := c.Program(ctx, w, iters)
		if err != nil {
			return nil, err
		}
		pre, err := c.prep(ctx, w, iters, p, cfg.MaxInstrs)
		if err != nil {
			return nil, err
		}
		return ooo.RunPrepared(p, cfg, pre)
	}
	ck, memoizable := cfg.Key()
	if !memoizable {
		r, err := run(ctx)
		return r, false, err
	}
	src := w.Source(iters)
	key := fmt.Sprintf("%s iters=%d %s", w.Name, iters, cfg.Machine)
	v, hit, err := c.get(ctx, KindResult, key, addr(KindResult, src, ck), func(ctx context.Context) (interface{}, error) {
		return run(ctx)
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*ooo.Result), hit, nil
}
