package ooo

import (
	"fmt"

	"cisim/internal/isa"
)

// refShadow is the retained pre-rewrite reference path: the map-based
// implementations of the tail rename map, the completion-event schedule,
// and the reconvergence candidate sets that dense.go replaced. When
// Config.refCheck is set (white-box tests), the machine maintains both
// representations at every mutation point and cross-checks them — the
// rename map every cycle and at every rebuild, the event schedule at
// every drain (including order), and the PC sets at every membership
// query. Any divergence panics with the cycle and the differing entry.
//
// The maps here are intentionally the original data structures, not a
// re-derivation, so the differential tests compare the rewritten machine
// against the exact pre-rewrite semantics.
type refShadow struct {
	tailRmap    map[isa.Reg]*dyn
	events      map[int64][]*dyn
	retTargets  map[uint64]bool
	loopTargets map[uint64]bool
}

func newRefShadow() *refShadow {
	return &refShadow{
		tailRmap:    make(map[isa.Reg]*dyn),
		events:      make(map[int64][]*dyn),
		retTargets:  make(map[uint64]bool),
		loopTargets: make(map[uint64]bool),
	}
}

// rebuildTailRmap is the pre-rewrite rebuild: a fresh map filled by
// scanning the window backward. Running it at the same points the dense
// rebuild runs gives a full-state comparison via verifyCycle.
func (rs *refShadow) rebuildTailRmap(m *machine) {
	//lint:ignore hotalloc the shadow deliberately keeps the pre-rewrite map implementation; it only runs under Config.refCheck
	rs.tailRmap = make(map[isa.Reg]*dyn)
	found := 0
	for d := m.win.tailLive(); d != nil && found < isa.NumRegs; d = m.win.prevLive(d) {
		if d.hasRd {
			if _, ok := rs.tailRmap[d.dest]; !ok {
				rs.tailRmap[d.dest] = d
				found++
			}
		}
	}
}

// setTailFrom adopts a walk's finished rename map (finishWalk's
// m.tailRmap = rd.rmap in the map implementation).
func (rs *refShadow) setTailFrom(rm *regMap) {
	//lint:ignore hotalloc reference shadow path, refCheck tests only
	rs.tailRmap = make(map[isa.Reg]*dyn)
	for r, d := range rm {
		if d != nil {
			rs.tailRmap[isa.Reg(r)] = d
		}
	}
}

// verifyCycle compares the dense tail rename map against the reference
// map, entry by entry.
func (rs *refShadow) verifyCycle(m *machine) {
	n := 0
	for r := 0; r < isa.NumRegs; r++ {
		ref := rs.tailRmap[isa.Reg(r)]
		if got := m.tailRmap[r]; got != ref {
			panic(fmt.Sprintf("refcheck: cycle %d: tailRmap[%v] = %v, reference %v",
				m.cycle, isa.Reg(r), got, ref))
		}
		if ref != nil {
			n++
		}
	}
	if n != len(rs.tailRmap) {
		panic(fmt.Sprintf("refcheck: cycle %d: tailRmap has %d entries, reference %d",
			m.cycle, n, len(rs.tailRmap)))
	}
}

// addEvent mirrors a completion scheduling into the reference map.
func (rs *refShadow) addEvent(at int64, d *dyn) {
	rs.events[at] = append(rs.events[at], d)
}

// drainEvents checks a drained wheel bucket against the reference map
// bucket for the cycle: same events, same order.
func (rs *refShadow) drainEvents(now int64, evs []*dyn) {
	ref := rs.events[now]
	delete(rs.events, now)
	if len(ref) != len(evs) {
		panic(fmt.Sprintf("refcheck: cycle %d: wheel drained %d events, reference %d",
			now, len(evs), len(ref)))
	}
	for i := range ref {
		if ref[i] != evs[i] {
			panic(fmt.Sprintf("refcheck: cycle %d: event %d is %v, reference %v",
				now, i, evs[i], ref[i]))
		}
	}
}

// checkMember compares one bitset membership answer against the
// reference map. Queried PCs always address fetched instructions, which
// are in the code image, so the bitset's dropping of out-of-image adds
// cannot be observed here.
func (rs *refShadow) checkMember(name string, ref map[uint64]bool, pc uint64, got bool) {
	if ref[pc] != got {
		panic(fmt.Sprintf("refcheck: %s[%#x] = %v, reference %v", name, pc, got, ref[pc]))
	}
}
