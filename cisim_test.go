package cisim

import (
	"strings"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	p := MustWorkload("xgo").Program(60)
	r, err := RunDetailed(p, DetailedConfig{Machine: MachineCI, WindowSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.IPC() <= 0 {
		t.Fatalf("IPC = %f", r.Stats.IPC())
	}
}

func TestFacadeIdeal(t *testing.T) {
	p := MustWorkload("xvortex").Program(60)
	tr, err := GenerateTrace(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	or, err := RunIdeal(tr, IdealConfig{Model: ModelOracle, WindowSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	ba, err := RunIdeal(tr, IdealConfig{Model: ModelBase, WindowSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if or.IPC < ba.IPC {
		t.Errorf("oracle (%f) below base (%f)", or.IPC, ba.IPC)
	}
}

func TestFacadeAssemble(t *testing.T) {
	p, err := Assemble("main:\n li r1, 7\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunDetailed(p, DetailedConfig{Machine: MachineBase, WindowSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Retired != 2 {
		t.Errorf("retired %d, want 2", r.Stats.Retired)
	}
	if _, err := Assemble("main:\n bogus\n"); err == nil {
		t.Error("bad source should not assemble")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if len(Workloads()) != 5 {
		t.Error("want 5 workloads")
	}
	if _, ok := GetWorkload("nope"); ok {
		t.Error("GetWorkload(nope) should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustWorkload(nope) should panic")
		}
	}()
	MustWorkload("nope")
}

func TestFacadeExperiments(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 14 {
		t.Fatalf("want 14 experiments, have %d", len(ids))
	}
	if _, err := RunExperiment("nope", true); err == nil {
		t.Error("unknown experiment should error")
	}
	out, err := RunExperiment("table1", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "xgcc") || !strings.Contains(out, "mispredict") {
		t.Errorf("table1 output unexpected:\n%s", out)
	}
}

func TestFacadeRenderPipeline(t *testing.T) {
	p := MustWorkload("xvortex").Program(50)
	rec := &PipeRecorder{}
	r, err := RunDetailed(p, DetailedConfig{
		Machine: MachineBase, WindowSize: 64, MaxInstrs: 20, Tracer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Retired != 20 || len(rec.Recs) < 20 {
		t.Fatalf("retired %d, recorded %d pipeline entries; want 20 retirements", r.Stats.Retired, len(rec.Recs))
	}
	out := RenderPipeline(rec.Recs, 80)
	if !strings.Contains(out, "cycle axis") || !strings.Contains(out, "F") {
		t.Errorf("facade timeline missing content:\n%s", out)
	}
}
