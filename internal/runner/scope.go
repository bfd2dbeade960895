package runner

import (
	"context"
	"sync"
)

// Scope is one sweep's record: the sink its run events go to and the
// cache statistics of its own lookups. The sweep engine makes one per
// sweep and carries it in the sweep's context (WithScope) through the
// pool and the artifact cache, so every event and count of a sweep lands
// in that sweep's record, however many goroutines or concurrent sweeps
// share the cache. A context without a scope records nothing.
type Scope struct {
	sink Sink

	mu    sync.Mutex
	stats CacheStats // guarded by mu
}

// NewScope returns a scope emitting to sink (nil for none).
func NewScope(sink Sink) *Scope { return &Scope{sink: sink} }

// scopeKey is the context key a Scope rides under.
type scopeKey struct{}

// WithScope returns a context carrying sc.
func WithScope(ctx context.Context, sc *Scope) context.Context {
	return context.WithValue(ctx, scopeKey{}, sc)
}

// scopeOf returns the scope ctx carries, nil when none.
func scopeOf(ctx context.Context) *Scope {
	sc, _ := ctx.Value(scopeKey{}).(*Scope)
	return sc
}

// Emit sends e to the scope's sink. Nil-safe.
func (s *Scope) Emit(e Event) {
	if s != nil && s.sink != nil {
		s.sink.Emit(e)
	}
}

// Stats snapshots the cache statistics of the scope's lookups.
func (s *Scope) Stats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// record counts a cache or store event in the scope's statistics and
// emits it, so a sweep's totals and its stream cannot disagree. Nil-safe.
func (s *Scope) record(e Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	switch e.Ev {
	case "cache":
		hits, misses := s.stats.counters(e.Kind)
		if *e.Hit {
			*hits++
		} else {
			*misses++
		}
	case "cache_corrupt":
		s.stats.Healed++
	case "store_hit":
		s.stats.StoreHits++
	case "store_put":
		s.stats.StorePuts++
	case "store_evict":
		s.stats.StoreEvictions++
	case "store_quarantine":
		s.stats.StoreHealed++
	}
	s.mu.Unlock()
	s.Emit(e)
}
