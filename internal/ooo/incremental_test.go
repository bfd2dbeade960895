package ooo

import (
	"testing"

	"cisim/internal/isa"
)

// TestGoldPrefixDrops plants the two window changes that the machine's
// own recoveries never make inside goldSync's verified prefix — a squash
// and a restart insertion with no older redirect, both of which happen
// only after an unfilled restart gap, where the prefix cannot reach —
// and checks that the incremental sync still stops exactly where a walk
// from the head stops. The redirect drop is exercised by the
// differential tests' recoveries.
func TestGoldPrefixDrops(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(m *machine, e *dyn)
	}{
		{"squash", func(m *machine, e *dyn) { m.squashDyn(e) }},
		{"insert", func(m *machine, e *dyn) {
			act := &restartSeq{fetchCtx: fetchCtx{pc: e.pc + 4096, gold: -1}, lastIns: e}
			in := isa.Inst{Op: isa.ADDI, Rd: 1, Rs1: 1, Imm: 1}
			if !m.fillGap(act, m.newDyn(&act.fetchCtx, in)) {
				t.Fatal("no segment for the planted insertion")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := steadyLoopProgram(1_000)
			c := Config{Machine: CI, WindowSize: 256}
			c.defaults()
			pre, err := Prepare(p, c.MaxInstrs)
			if err != nil {
				t.Fatal(err)
			}
			m := newMachine(p, c, pre)
			for m.gsLast == nil || m.gsNext-m.retireCur < 4 {
				if err := m.step(); err != nil || m.done {
					t.Fatalf("no verified prefix of 4 entries before the run ended (err %v)", err)
				}
			}
			e := m.win.nextLive(m.win.headLive(), false)
			tc.plant(m, e)
			m.win.refresh()
			m.goldSync()
			if err := m.checkGoldSync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
