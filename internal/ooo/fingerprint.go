package ooo

import (
	"fmt"
	"hash/fnv"
)

// Fingerprint returns an integrity checksum of the simulation result for
// the runner's artifact cache to verify on read. It covers Stats, a flat
// struct of counters whose %+v rendering is a complete, deterministic
// serialization, plus the number of misprediction events. The events'
// contents and the Metrics snapshot are not hashed, although
// configurations that record them are memoized like any other
// (RecordMisps and CollectMetrics are in Config.Key).
func (r *Result) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v/%d", r.Stats, len(r.MispEvents))
	return h.Sum64()
}

// Fingerprint returns a structural checksum of the prepared artifacts:
// the instruction budget and the golden-stream and CFG shapes. The
// golden stream is large and re-read on every simulation sharing the
// prep, so the checksum is deliberately shallow — it catches the sharing
// bugs that matter (a truncated or regenerated stream, a swapped graph)
// without re-hashing megabytes per cache hit.
func (p *Prep) Fingerprint() uint64 {
	h := fnv.New64a()
	nodes := 0
	if p.graph != nil {
		nodes = len(p.graph.Blocks)
	}
	fmt.Fprintf(h, "%d/%d/%d", p.maxInstrs, p.golden.n, nodes)
	return h.Sum64()
}
