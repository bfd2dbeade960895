package cisim_test

import (
	"fmt"

	"cisim"
)

// The headline comparison: complete squash (BASE) versus control
// independence (CI) on a short run of the go-like workload.
func Example() {
	p := cisim.MustWorkload("xvortex").Program(200)
	for _, mach := range []cisim.Machine{cisim.MachineBase, cisim.MachineCI} {
		r, err := cisim.RunDetailed(p, cisim.DetailedConfig{
			Machine:    mach,
			WindowSize: 128,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%v retired %d instructions\n", mach, r.Stats.Retired)
	}
	// Output:
	// BASE retired 7604 instructions
	// CI retired 7604 instructions
}

// Assembling and simulating a custom program.
func ExampleAssemble() {
	p, err := cisim.Assemble(`
		main:
			li r1, 10
			li r2, 0
		loop:
			add r2, r2, r1
			addi r1, r1, -1
			bne r1, r0, loop
			halt
	`)
	if err != nil {
		panic(err)
	}
	r, err := cisim.RunDetailed(p, cisim.DetailedConfig{
		Machine: cisim.MachineBase, WindowSize: 32,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("retired %d instructions\n", r.Stats.Retired)
	// Output:
	// retired 33 instructions
}

// Running a trace through an idealized Section 2 model.
func ExampleRunIdeal() {
	p := cisim.MustWorkload("xjpeg").Program(50)
	tr, err := cisim.GenerateTrace(p, 0)
	if err != nil {
		panic(err)
	}
	r, err := cisim.RunIdeal(tr, cisim.IdealConfig{
		Model: cisim.ModelWRFD, WindowSize: 256,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("retired %d instructions\n", r.Retired)
	// Output:
	// retired 11207 instructions
}

// Rendering a pipeline timeline from recorded timing.
func ExampleRenderPipeline() {
	p, err := cisim.Assemble(`
		main:
			li r1, 2
			mul r2, r1, r1
			add r3, r2, r1
			halt
	`)
	if err != nil {
		panic(err)
	}
	rec := &cisim.PipeRecorder{}
	_, err = cisim.RunDetailed(p, cisim.DetailedConfig{
		Machine: cisim.MachineBase, WindowSize: 32, Tracer: rec,
	})
	if err != nil {
		panic(err)
	}
	fmt.Print(cisim.RenderPipeline(rec.Recs, 16))
	// Output:
	// cycle axis: 1 .. 16 (one column per cycle)
	//      1 0x00001000 addi r1, r0, 2           F.ICR
	//      2 0x00001004 mul r2, r1, r1           F..I==CR
	//      3 0x00001008 add r3, r2, r1           F.....ICR
	//      4 0x0000100c halt                     F.IC....R
}
