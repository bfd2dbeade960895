// Package cisim is a from-scratch reproduction of "A Study of Control
// Independence in Superscalar Processors" (Eric Rotenberg, Quinn Jacobson,
// Jim Smith; HPCA 1999): the idealized six-model study of the paper's
// Section 2, the detailed execution-driven superscalar simulator of
// Section 4 and Appendix A, and every substrate they depend on — a small
// RISC ISA with an assembler and functional emulator, gshare/CTB/RAS
// branch prediction, post-dominator control-flow analysis, a data cache,
// and five synthetic stand-ins for the SPEC95 integer workloads.
//
// This package is the public facade. Three entry points cover most uses:
//
//	p := cisim.MustWorkload("xgo").Program(0)   // assemble a workload
//	r, _ := cisim.RunDetailed(p, cisim.DetailedConfig{
//	    Machine: cisim.MachineCI, WindowSize: 256,
//	})
//	fmt.Println(r.Stats.IPC())
//
// Custom programs can be assembled from source with Assemble, traced with
// GenerateTrace, and run through the idealized models with RunIdeal.
// RunExperiment regenerates the paper's tables and figures by id
// ("table1", "fig3", "fig5", ..., "fig17").
package cisim

import (
	"fmt"

	"cisim/internal/asm"
	"cisim/internal/exp"
	"cisim/internal/ideal"
	"cisim/internal/ooo"
	"cisim/internal/prog"
	"cisim/internal/trace"
	"cisim/internal/workloads"
)

// Program is an assembled program image.
type Program = prog.Program

// Workload is one of the five synthetic SPEC95 stand-ins.
type Workload = workloads.Workload

// Trace is an annotated dynamic instruction trace (input to RunIdeal).
type Trace = trace.Trace

// IdealModel selects one of the Section 2 machine models.
type IdealModel = ideal.Model

// Idealized machine models (Figure 3).
const (
	ModelOracle = ideal.Oracle
	ModelBase   = ideal.Base
	ModelNWRnFD = ideal.NWRnFD
	ModelNWRFD  = ideal.NWRFD
	ModelWRnFD  = ideal.WRnFD
	ModelWRFD   = ideal.WRFD
)

// IdealConfig parameterizes an idealized-model run.
type IdealConfig = ideal.Config

// IdealResult is an idealized-model run's outcome.
type IdealResult = ideal.Result

// Machine selects the detailed simulator's processor model (Figure 5).
type Machine = ooo.Machine

// Detailed machines.
const (
	MachineBase = ooo.Base
	MachineCI   = ooo.CI
	MachineCII  = ooo.CIInstant
)

// DetailedConfig parameterizes a detailed execution-driven simulation;
// see the ooo package's Config for every knob (completion models,
// preemption and re-prediction policies, segment sizes, reconvergence
// heuristics).
type DetailedConfig = ooo.Config

// DetailedResult is a detailed simulation's outcome.
type DetailedResult = ooo.Result

// PipeRecord is one instruction's pipeline timing, taken when it retires
// or is squashed (Squashed).
type PipeRecord = ooo.PipeRecord

// PipeRecorder keeps the PipeRecord of every instruction of a detailed
// run: set it as DetailedConfig.Tracer and read Recs after the run.
type PipeRecorder = ooo.PipeRecorder

// RenderPipeline draws pipeline records as an ASCII timeline (F fetch,
// I last issue, C complete, R retire, Q squash), one row per record.
func RenderPipeline(recs []PipeRecord, width int) string {
	return ooo.RenderPipeline(recs, width)
}

// Workloads returns the five synthetic benchmarks in Table 1 order.
func Workloads() []*Workload { return workloads.All() }

// GetWorkload returns a workload by name ("xgcc", "xgo", "xcompress",
// "xjpeg", "xvortex").
func GetWorkload(name string) (*Workload, bool) { return workloads.Get(name) }

// MustWorkload is GetWorkload, panicking on unknown names.
func MustWorkload(name string) *Workload {
	w, ok := workloads.Get(name)
	if !ok {
		panic(fmt.Sprintf("cisim: unknown workload %q", name))
	}
	return w
}

// Assemble builds a program from assembly source (see the asm package's
// documentation for the syntax).
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// GenerateTrace produces the annotated dynamic trace of a program: the
// correct-path stream with branch predictions, wrong-path summaries, and
// data-dependence producer indices.
func GenerateTrace(p *Program, maxInstrs uint64) (*Trace, error) {
	return trace.Generate(p, trace.Options{MaxInstrs: maxInstrs})
}

// RunIdeal runs a trace through one of the Section 2 idealized models.
func RunIdeal(t *Trace, cfg IdealConfig) (IdealResult, error) {
	return ideal.Run(t, cfg)
}

// RunDetailed runs a program through the Section 4 detailed simulator.
// Every retired instruction is validated against a functional-emulator
// golden stream; a validation failure panics, indicating a simulator bug.
func RunDetailed(p *Program, cfg DetailedConfig) (*DetailedResult, error) {
	return ooo.Run(p, cfg)
}

// ExperimentIDs lists the reproducible paper artifacts in paper order.
func ExperimentIDs() []string { return exp.IDs() }

// RunExperiment regenerates one paper table or figure. Quick mode shrinks
// the workloads for fast, noisier runs.
func RunExperiment(id string, quick bool) (string, error) {
	e, ok := exp.Get(id)
	if !ok {
		return "", fmt.Errorf("cisim: unknown experiment %q", id)
	}
	r, err := e.Run(exp.Options{Quick: quick})
	if err != nil {
		return "", err
	}
	return r.String(), nil
}
