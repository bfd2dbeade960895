// Event-driven issue: a slot is timed once at fetch and then only when
// something it waits for happens, so no stage walks the window to find
// ready slots. A slot counts the dependences not yet timed (register and
// memory producers that have not issued, false-dependence floors whose
// misprediction has not resolved) and parks one wait node on each:
// producer lists are per trace entry, floor lists per misprediction. The
// producer's issue, or the branch's resolution, wakes the list; when a
// slot's count reaches zero its ready cycle is final and a timing wheel
// holds it until then. Each cycle the wheel's bucket joins an
// oldest-first heap, which issues up to width slots. DESIGN.md §16 gives
// the argument that these are exactly the slots an oldest-first scan of
// the window would pick.

package ideal

import "fmt"

// waitNode parks a slot on one wait list. Nodes live in the scratch's
// node pool and are addressed by index (the pool may grow); index 0 is a
// sentinel, so a zero list head or next link means "none".
type waitNode struct {
	s    *slot
	gen  uint32 // s.gen when the node was parked; stale once s is reused
	next int32
}

// parked is a slot reference held by the wheel or the ready heap. Like a
// wait node it carries the slot's generation, so an entry left behind by
// an evicted or squashed slot is recognized and dropped.
type parked struct {
	ord uint64 // the slot's key in issue order (ready heap only)
	s   *slot
	gen uint32
}

// order packs a key into one integer with the same ordering. The sub-key
// is signed (a junk slot can sort before its branch), so its sign bit is
// flipped.
func (k key) order() uint64 { return uint64(uint32(k.idx))<<32 | uint64(uint32(k.sub)^1<<31) }

// waitOn parks s on the list at head and counts the wait.
func (e *engine) waitOn(head *int32, s *slot) {
	sc := e.sc
	n := sc.freeNode
	if n != 0 {
		sc.freeNode = sc.nodes[n].next
	} else {
		n = int32(len(sc.nodes))
		sc.nodes = append(sc.nodes, waitNode{})
	}
	sc.nodes[n] = waitNode{s: s, gen: s.gen, next: *head}
	*head = n
	s.pending++
}

// wake releases every slot parked on the list at head: a producer that
// completes at cycle at (floor false) or a floor that lifts at cycle at
// (floor true). Slots whose last wait this was move to the wheel; the
// nodes return to the pool, stale ones without touching their slot.
//
//cisim:hot
func (e *engine) wake(head *int32, at int64, floor bool) {
	nodes := e.sc.nodes
	n := *head
	for n != 0 {
		nd := &nodes[n]
		if s := nd.s; s.gen == nd.gen {
			if floor {
				s.floorC = max(s.floorC, at)
			} else {
				s.readyC = max(s.readyC, at)
			}
			s.pending--
			if s.pending == 0 {
				e.schedule(s)
			}
		}
		next := nd.next
		*nd = waitNode{next: e.sc.freeNode}
		e.sc.freeNode = n
		n = next
	}
	*head = 0
}

// schedule places a slot with no pending waits on the wheel at its ready
// cycle, which always lies 1..len(wheel)-1 cycles ahead.
//
//cisim:hot
func (e *engine) schedule(s *slot) {
	at := max(s.readyC, s.floorC)
	lead := at - e.cycle
	if lead <= 0 || lead >= int64(len(e.sc.wheel)) {
		panic(fmt.Sprintf("ideal: slot (%d,%d) ready at %d, %d cycles from cycle %d; wheel holds %d",
			s.key.idx, s.key.sub, at, lead, e.cycle, len(e.sc.wheel)))
	}
	b := &e.sc.wheel[at&int64(len(e.sc.wheel)-1)]
	*b = append(*b, parked{s: s, gen: s.gen})
}

// siftUp restores the heap order after an append to h.
//
//cisim:hot
func siftUp(h []parked) {
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up].ord <= h[i].ord {
			return
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
}

// siftDown restores the heap order after h[0] was replaced.
//
//cisim:hot
func siftDown(h []parked) {
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].ord < h[c].ord {
			c++
		}
		if h[i].ord <= h[c].ord {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// newSlot takes a slot from the free list, or the arena when the list is
// empty, cleared except for its generation.
func (e *engine) newSlot() *slot {
	sc := e.sc
	s := sc.freeSlot
	if s != nil {
		sc.freeSlot = s.nextFree
	} else {
		s = e.allocSlot()
	}
	*s = slot{gen: s.gen}
	return s
}

// freeSlot recycles a slot that left the window. Bumping its generation
// turns every wheel, heap and wait-list reference to it stale.
func (e *engine) freeSlot(s *slot) {
	s.gen++
	s.nextFree = e.sc.freeSlot
	e.sc.freeSlot = s
}
