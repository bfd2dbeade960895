package main

import (
	"flag"
	"fmt"

	"cisim/internal/ooo"
)

func cmdPipe(args []string) error {
	fs := flag.NewFlagSet("pipe", flag.ExitOnError)
	file := fs.Bool("file", false, "treat the argument as an assembly source file")
	machine := fs.String("machine", "CI", "BASE, CI, or CI-I")
	window := fs.Int("window", 64, "reorder buffer entries")
	iters := fs.Int("iters", 0, "workload iterations (0 = default)")
	start := fs.Int("start", 0, "first retired instruction to show")
	n := fs.Int("n", 48, "instructions to show")
	width := fs.Int("width", 96, "timeline width in cycles/columns")
	squashed := fs.Bool("squashed", false, "also show squashed wrong-path instructions (rows marked Q/squashed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("pipe needs a workload name (or -file path)")
	}
	p, err := loadProgram(*file, fs.Arg(0), *iters)
	if err != nil {
		return err
	}
	// The run stops at the last retirement shown; every record before it
	// is what an unbounded run records.
	rec := &ooo.PipeRecorder{}
	cfg := ooo.Config{
		WindowSize: *window,
		MaxInstrs:  uint64(*start + *n),
		Tracer:     rec,
	}
	switch *machine {
	case "BASE":
		cfg.Machine = ooo.Base
	case "CI":
		cfg.Machine = ooo.CI
	case "CI-I":
		cfg.Machine = ooo.CIInstant
	default:
		return fmt.Errorf("unknown machine %q", *machine)
	}
	if _, err := ooo.Run(p, cfg); err != nil {
		return err
	}
	recs := rec.Recs
	if !*squashed {
		recs = recs[:0]
		for _, r := range rec.Recs {
			if !r.Squashed {
				recs = append(recs, r)
			}
		}
	}
	if *start >= len(recs) {
		return fmt.Errorf("start %d beyond %d recorded instructions", *start, len(recs))
	}
	recs = recs[*start:]
	if len(recs) > *n {
		recs = recs[:*n]
	}
	fmt.Printf("%v on %s, window %d — F fetch, I (last) issue, C complete, R retire;\n"+
		"xN = issued N times, s = survived a recovery, r = survived then reissued\n\n",
		cfg.Machine, fs.Arg(0), *window)
	fmt.Print(ooo.RenderPipeline(recs, *width))
	return nil
}
