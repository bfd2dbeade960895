package ooo

import (
	"testing"
)

// BenchmarkWindowCacheIterate pins the tentpole of the SoA rewrite: the
// per-cycle stage walks. "soa" is the shipped fast path — scan the dense
// flags array and only dereference the entries that survive the filter —
// and "ptr" is the retained reference path that dereferences every *dyn
// to read the same fields. The window is populated like a steady-state
// run: a quarter of the entries are tombstones and most survivors are
// done, so the filter rejects the overwhelming majority either way and
// the delta is purely the cost of the pointer chase.
func BenchmarkWindowCacheIterate(b *testing.B) {
	const n = 4096
	w := newWindow(n, 8, getRunMem())
	dyns := make([]dyn, n)
	for i := range dyns {
		d := &dyns[i]
		d.seq = uint64(i + 1)
		if !w.appendTail(d) {
			b.Fatal("window full during setup")
		}
		switch i % 4 {
		case 0: // retired tombstone
			d.retired = true
			w.dead++
			w.noteFlags(d)
		case 1:
			d.st = stDone
			w.noteFlags(d)
		case 2: // still waiting: the entry a stage walk acts on
		case 3:
			d.isCtl = true
			w.noteFlags(d)
		}
	}
	cache, flags := w.live()

	b.Run("soa", func(b *testing.B) {
		b.ReportAllocs()
		var hits int
		for i := 0; i < b.N; i++ {
			hits = 0
			for j, f := range flags {
				if f&(fDead|fStMask) != uint8(stWaiting)<<fStShift {
					continue
				}
				if cache[j].isCtl {
					continue
				}
				hits++
			}
		}
		if hits != n/4 {
			b.Fatalf("soa walk found %d candidates, want %d", hits, n/4)
		}
	})
	b.Run("ptr", func(b *testing.B) {
		b.ReportAllocs()
		var hits int
		for i := 0; i < b.N; i++ {
			hits = 0
			for _, d := range cache {
				if d.squashed || d.retired || d.st != stWaiting {
					continue
				}
				if d.isCtl {
					continue
				}
				hits++
			}
		}
		if hits != n/4 {
			b.Fatalf("ptr walk found %d candidates, want %d", hits, n/4)
		}
	})
}
