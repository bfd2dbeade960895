// Pipeview makes selective squash visible. It runs the same unpredictable
// hammock — a branch on a fresh pseudo-random bit, two short arms, then a
// block of control independent work — through the BASE and CI machines
// with a pipeline recorder attached, and prints the per-instruction
// timeline around one misprediction.
//
// On BASE, every instruction after the branch restarts from fetch: the
// control independent block's F markers move to after the branch
// resolves. On CI, the same block keeps its original fetch cycles and is
// annotated 's' (survived the recovery) or 'r' (survived, then reissued
// because an arm register was renamed) — the paper's Figure 2 mechanism,
// measured in its Tables 2 and 3.
package main

import (
	"fmt"
	"log"

	"cisim"
)

const src = `
main:
	li r20, 123456789
	li r21, 1103515245
	li r1, 60
	li r11, 0
loop:
	mul r20, r20, r21
	addi r20, r20, 12345
	srli r3, r20, 17
	andi r3, r3, 1
	beq r3, r0, else
	addi r11, r11, 1
	xor r4, r11, r3
	jmp join
else:
	addi r11, r11, 2
	add r4, r11, r3
join:
	add r5, r4, r11
	xor r6, r5, r20
	add r7, r6, r5
	add r8, r7, r6
	add r11, r11, r8
	addi r1, r1, -1
	bne r1, r0, loop
	halt
`

func main() {
	p, err := cisim.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	for _, mach := range []cisim.Machine{cisim.MachineBase, cisim.MachineCI} {
		// The recorder keeps every instruction's record, squashed
		// wrong-path rows included (they appear with a Q marker).
		rec := &cisim.PipeRecorder{}
		r, err := cisim.RunDetailed(p, cisim.DetailedConfig{
			Machine:    mach,
			WindowSize: 64,
			Tracer:     rec,
		})
		if err != nil {
			log.Fatal(err)
		}
		// Find the first recovery's neighbourhood: the first record that
		// survived a squash (CI), or just a fixed window into the run.
		start := 60
		for i, pr := range rec.Recs {
			if pr.Saved {
				start = i - 8
				break
			}
		}
		if start < 0 {
			start = 0
		}
		recs := rec.Recs[start:]
		if len(recs) > 28 {
			recs = recs[:28]
		}
		fmt.Printf("=== %v: IPC %.2f, %d recoveries, %d instructions preserved ===\n",
			mach, r.Stats.IPC(), r.Stats.Recoveries, r.Stats.CIInstructions)
		fmt.Print(cisim.RenderPipeline(recs, 100))
		fmt.Println()
	}
	fmt.Println("Read the F columns: BASE refetches the join block after the branch")
	fmt.Println("resolves (the first fetch shows up again as a Q-marked squashed row);")
	fmt.Println("CI keeps its original fetch cycles (rows marked s/r).")
}
