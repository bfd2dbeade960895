package runner

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"

	"cisim/internal/ooo"
	"cisim/internal/store"
	"cisim/internal/telemetry"
)

// Persistent backend (internal/store) integration. With a store
// attached (SetStore), the cache is write-through for detailed
// simulation results — the artifact kind that dominates cold-run time:
//
//	memory hit  → served as before, the store never consulted;
//	memory miss → the store is consulted; a verified disk blob decodes
//	              straight into the entry (store_hit), otherwise the
//	              artifact is computed and written through (store_put);
//	corruption  → a blob failing its checksum, failing to decode, or
//	              decoding to a value whose Fingerprint disagrees with
//	              the one recorded at put time is quarantined
//	              (store_quarantine) and the artifact recomputed — the
//	              same self-heal contract the in-memory cache keeps.
//
// Computes on a store miss run under the store's per-entry exclusive
// flock, making the in-process singleflight cross-process: N workers
// asking for one address do the work once, whichever process wins the
// lock. A lock that cannot be had within the store's patience (a wedged
// holder, or the injected store-lock-stale fault) degrades to computing
// without dedup — duplicate work, never a wrong answer.
//
// Programs, traces and preps are deliberately not persisted: traces and
// preps carry cyclic graph pointers and unexported state that do not
// round-trip a codec, and all three are cheap to rebuild relative to
// detailed simulation (compare perfbench's trace.generate_ns_per_instr
// and ooo.ns_per_instr.* on one host).

// SetStore attaches (or, with nil, detaches) a persistent artifact
// store behind the cache.
func (c *Cache) SetStore(st *store.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.disk = st
}

// Store returns the attached persistent store, or nil.
func (c *Cache) Store() *store.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk
}

// diskFor returns the store to consult for an artifact kind, nil when
// the kind is memory-only or no store is attached.
func (c *Cache) diskFor(kind string) *store.Store {
	if kind != KindResult {
		return nil
	}
	return c.Store()
}

// throughDisk interposes the persistent store on a memory miss. It
// preserves compute's contract exactly — same value type, same errors —
// so getDepth's fingerprinting, corruption faulting and heal logic
// apply unchanged to disk-served values. ctx is the miss's stage-span
// context; the store spans nest under it and its scope records the
// store events.
func (c *Cache) throughDisk(ctx context.Context, kind, key, address string, compute func(context.Context) (interface{}, error)) (interface{}, error) {
	d := c.diskFor(kind)
	if d == nil {
		return compute(ctx)
	}
	if v, ok := c.diskFetch(ctx, d, kind, key, address, d.Get); ok {
		return v, nil
	}
	lockSp, _ := telemetry.StartSpan(ctx, "store:lock_wait")
	if lockSp != nil {
		lockSp.Kind, lockSp.Key, lockSp.Addr = kind, key, address
	}
	unlock, ok := d.LockEntry(address)
	if lockSp != nil && !ok {
		lockSp.Err = "lock not acquired within patience; computing without dedup"
	}
	lockSp.End()
	if ok {
		defer unlock()
		// Re-check under the lock: while we waited, the previous holder
		// may have computed and stored this very entry. GetLocked, not
		// Get — a read-pin through a second descriptor would block on
		// our own exclusive hold.
		if v, ok := c.diskFetch(ctx, d, kind, key, address, d.GetLocked); ok {
			return v, nil
		}
		v, err := compute(ctx)
		if err == nil {
			c.diskPut(ctx, d, kind, key, address, v)
		}
		return v, err
	}
	// No lock: compute without cross-process dedup (correct, possibly
	// duplicated) and still write through for future readers.
	v, err := compute(ctx)
	if err == nil {
		c.diskPut(ctx, d, kind, key, address, v)
	}
	return v, err
}

// diskFetch fetches and fully verifies one artifact from the store:
// store-level checksums first (inside read), then decode, then the
// Fingerprinter check against the fingerprint recorded at put time.
// Any failure quarantines the blob and reports a miss. read is d.Get,
// or d.GetLocked for the singleflight winner, which already holds the
// entry's exclusive flock.
func (c *Cache) diskFetch(ctx context.Context, d *store.Store, kind, key, address string,
	read func(kind, addr string) ([]byte, uint64, bool, error)) (interface{}, bool) {
	sc := scopeOf(ctx)
	sp, _ := telemetry.StartSpan(ctx, "store:get")
	if sp != nil {
		sp.Kind, sp.Key, sp.Addr = kind, key, address
	}
	defer sp.End()
	payload, fp, found, err := read(kind, address)
	if err != nil {
		var ce *store.CorruptError
		if errors.As(err, &ce) {
			if sp != nil {
				sp.Err = ce.Reason
			}
			sc.record(Event{Ev: "store_quarantine", Kind: kind, Key: key, Addr: address, Err: ce.Reason})
		}
		// Read errors (permissions, transient I/O) degrade to a miss: the
		// store is an accelerator, never a point of failure.
		return nil, false
	}
	if !found {
		return nil, false
	}
	v, derr := decodeArtifact(kind, payload)
	if derr == nil {
		if sum, ok := fingerprint(v); !ok || sum != fp {
			derr = errors.New("decoded artifact fingerprint disagrees with stored fingerprint")
		}
	}
	if derr != nil {
		d.Quarantine(kind, address, derr.Error())
		if sp != nil {
			sp.Err = derr.Error()
		}
		sc.record(Event{Ev: "store_quarantine", Kind: kind, Key: key, Addr: address, Err: derr.Error()})
		return nil, false
	}
	if sp != nil {
		sp.Bytes = int64(len(payload))
	}
	sc.record(Event{Ev: "store_hit", Kind: kind, Key: key, Addr: address, Bytes: int64(len(payload))})
	return v, true
}

// diskPut writes a freshly computed artifact through to the store.
// Failures are absorbed: a store that cannot accept writes (full disk,
// injected faults) costs future misses, not the current run.
func (c *Cache) diskPut(ctx context.Context, d *store.Store, kind, key, address string, v interface{}) {
	sp, _ := telemetry.StartSpan(ctx, "store:put")
	if sp != nil {
		sp.Kind, sp.Key, sp.Addr = kind, key, address
	}
	defer sp.End()
	sum, ok := fingerprint(v)
	if !ok {
		return
	}
	payload, err := encodeArtifact(kind, v)
	if err != nil {
		return
	}
	st, err := d.Put(kind, address, payload, sum)
	if err != nil {
		if sp != nil {
			sp.Err = err.Error()
		}
		return
	}
	if sp != nil {
		sp.Bytes = st.Bytes
	}
	sc := scopeOf(ctx)
	sc.record(Event{Ev: "store_put", Kind: kind, Key: key, Addr: address, Bytes: st.Bytes})
	for _, ev := range st.Evicted {
		sc.record(Event{Ev: "store_evict", Kind: ev.Kind, Addr: ev.Addr, Bytes: ev.Bytes})
	}
}

// encodeArtifact serializes an artifact for the store. Only result
// blobs are persisted (see the package comment above); the codec is gob
// — self-describing, dependency-free, and ooo.Result is all exported
// concrete data.
func encodeArtifact(kind string, v interface{}) ([]byte, error) {
	r, ok := v.(*ooo.Result)
	if !ok || kind != KindResult {
		return nil, fmt.Errorf("runner: kind %s is not persistable", kind)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeArtifact is encodeArtifact's inverse.
func decodeArtifact(kind string, payload []byte) (interface{}, error) {
	if kind != KindResult {
		return nil, fmt.Errorf("runner: kind %s is not persistable", kind)
	}
	var r ooo.Result
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}
