package ooo

import "fmt"

// This file holds the state that lets three per-cycle window scans cost
// what they find (DESIGN.md §17): the consumer lists that wakeConsumers
// walks instead of the window suffix after a completing producer, and
// the verified golden-path prefix goldSync resumes after. computeStability
// needs no state of its own: it stops at the youngest reader of the flag
// it computes. Each structure has a Config.Check cross-check here that
// compares it, every cycle, with the full scan it replaces.

// consNode is one entry of a producer's consumer list. Nodes live in the
// machine's cons slab and are named by index; index 0 is the empty list.
type consNode struct {
	c    *dyn
	next int32
}

// addConsumer records that c now reads p's value, so p's completion
// reissues c. It runs wherever a source pointer is set: rename at the
// tail, restart fill, and redispatch remaps. A retired or squashed
// producer never completes again and has already released its list, so
// it gets no node; a renamed-away consumer keeps its stale node, which
// wakeConsumers filters out.
func (m *machine) addConsumer(p, c *dyn) {
	if p == nil || p.retired || p.squashed {
		return
	}
	n := m.consFree
	if n != 0 {
		m.consFree = m.cons[n].next
		m.cons[n] = consNode{c: c, next: p.cons}
	} else {
		n = int32(len(m.cons))
		m.cons = append(m.cons, consNode{c: c, next: p.cons})
	}
	p.cons = n
}

// releaseConsumers returns a retired or squashed producer's list to the
// free list, so node memory stays bounded by the window.
func (m *machine) releaseConsumers(p *dyn) {
	head := p.cons
	if head == 0 {
		return
	}
	n := head
	for m.cons[n].next != 0 {
		n = m.cons[n].next
	}
	m.cons[n].next = m.consFree
	m.consFree = head
	p.cons = 0
}

// dropGoldPrefix forgets goldSync's verified prefix when d, an entry
// being squashed, redirected or inserted, lies at or before its end:
// window order or an assumed successor changed where the sync already
// looked.
func (m *machine) dropGoldPrefix(d *dyn) {
	if m.gsLast != nil && d.pos <= m.gsLast.pos {
		m.gsLast = nil
	}
}

// stageLive returns the live-order cache for one of the per-cycle stage
// scans. Those scans run from step with no walk in progress, right after
// refresh, so the cache is always usable; Config.Check panics if that
// premise ever breaks.
func (m *machine) stageLive() ([]*dyn, []uint8) {
	cache, flags, ok := m.win.live()
	if !ok && m.cfg.Check {
		panic(fmt.Sprintf("ooo: cycle %d: stage scan inside a window walk", m.cycle))
	}
	return cache, flags
}

// checkConsumers verifies the consumer lists (Config.Check): every live
// consumer of a live producer is on that producer's list and younger
// than it, dead producers hold no list, and every node is on exactly one
// list or the free list.
func (m *machine) checkConsumers() error {
	seen := make([]bool, len(m.cons))
	var err error
	mark := func(n int32, owner interface{}) bool {
		if seen[n] {
			err = fmt.Errorf("ooo: cycle %d: consumer node %d reachable twice (again from %v)", m.cycle, n, owner)
			return false
		}
		seen[n] = true
		return true
	}
	m.win.forEach(func(p *dyn) bool {
		for n := p.cons; n != 0; n = m.cons[n].next {
			if !mark(n, p) {
				return false
			}
		}
		return true
	})
	for n := m.consFree; n != 0 && err == nil; n = m.cons[n].next {
		mark(n, "the free list")
	}
	if err != nil {
		return err
	}
	for n := 1; n < len(seen); n++ {
		if !seen[n] {
			return fmt.Errorf("ooo: cycle %d: consumer node %d is on no list", m.cycle, n)
		}
	}
	m.win.forEach(func(c *dyn) bool {
		for i := 0; i < c.nsrc; i++ {
			p := c.src[i]
			if p == nil || p.retired || p.squashed {
				continue
			}
			if p.pos >= c.pos {
				err = fmt.Errorf("ooo: cycle %d: %v src%d names %v, which is not older", m.cycle, c, i, p)
				return false
			}
			listed := false
			for n := p.cons; n != 0 && !listed; n = m.cons[n].next {
				listed = m.cons[n].c == c
			}
			if !listed {
				err = fmt.Errorf("ooo: cycle %d: %v reads %v but is not on its consumer list", m.cycle, c, p)
				return false
			}
		}
		return true
	})
	return err
}

// checkStability recomputes the stability pass over the whole window
// without writing any flag, and verifies that the bounded pass agrees
// with it at every reader: each live, completed, unresolved control
// instruction (Config.Check).
func (m *machine) checkStability() {
	cache, flags := m.stageLive()
	full := make([]bool, len(cache))
	allOlderMemStable := true
	for i, f := range flags {
		if f&fDead != 0 {
			continue
		}
		d := cache[i]
		s := d.st == stDone && !d.stale
		for k := 0; s && k < d.nsrc; k++ {
			p := d.src[k]
			if p == nil || p.retired {
				continue
			}
			if p.squashed {
				s = false
				break
			}
			j := m.win.cacheIndex(m.win.liveCache, p) - m.win.lo
			if j < 0 || j >= i {
				panic(fmt.Sprintf("ooo: cycle %d: %v src%d names %v, which is not older", m.cycle, d, k, p))
			}
			s = full[j]
		}
		if s && d.isLoad && !allOlderMemStable {
			s = false
		}
		full[i] = s
		if d.isStore && !s {
			allOlderMemStable = false
		}
		const reader = fPendCtl | uint8(stDone)<<fStShift
		if f&(fPendCtl|fStMask) == reader && d.stableFlag != s {
			panic(fmt.Sprintf("ooo: cycle %d: bounded stability pass gives %v stable=%v, full pass %v",
				m.cycle, d, d.stableFlag, s))
		}
	}
}

// checkGoldSync walks the window from the head the way the full golden
// sync did and verifies that the incremental sync stopped at the same
// entry with the same next golden index (Config.Check). An entry with no
// golden index yet counts as matching: the full walk would have set it.
func (m *machine) checkGoldSync() error {
	g, limit := m.retireCur, goldSyncLimit
	var last *dyn
	m.win.forEach(func(d *dyn) bool {
		if g >= m.golden.n || limit == 0 {
			return false
		}
		limit--
		gd := m.golden.at(g)
		if d.pc != gd.pc || (d.gold >= 0 && d.gold != g) || d.assumedTarget != gd.nextPC {
			return false
		}
		g++
		last = d
		return true
	})
	if last != m.gsLast || g != m.gsNext {
		return fmt.Errorf("ooo: cycle %d: incremental golden sync stopped after %v at index %d, full walk after %v at %d",
			m.cycle, m.gsLast, m.gsNext, last, g)
	}
	return nil
}
