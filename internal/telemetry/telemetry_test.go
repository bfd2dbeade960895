package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDDeterministic(t *testing.T) {
	a, b := TraceID("run", "all"), TraceID("run", "all")
	if a != b {
		t.Fatalf("TraceID not deterministic: %s vs %s", a, b)
	}
	if len(a) != 32 || !isHex(a) {
		t.Fatalf("TraceID %q is not 32 hex chars", a)
	}
	if TraceID("run", "all") == TraceID("run", "fig5") {
		t.Fatal("different parts produced the same trace ID")
	}
	// The separator byte keeps part boundaries unambiguous.
	if TraceID("ab", "c") == TraceID("a", "bc") {
		t.Fatal("part boundaries are ambiguous")
	}
}

func TestSpanParentage(t *testing.T) {
	c := NewCollector("")
	root := c.Start("sweep")
	if root.ID() == "" || strings.Repeat("0", 16) == root.ID() {
		t.Fatalf("bad root span ID %q", root.ID())
	}
	ctx := ContextWithSpan(context.Background(), root)

	// A span nests under the span its context carries, and its own
	// context parents the next level down.
	child, cctx := StartSpan(ctx, "job")
	child.Exp, child.Key = "fig5", "loopy"
	grand, _ := StartSpan(cctx, "stage:sim")
	sibling, _ := StartSpan(ctx, "merge") // the root's context, not the job's
	grand.End()
	sibling.End()
	child.End()
	root.End()

	recs := c.Records()
	if len(recs) != 4 {
		t.Fatalf("want 4 records, got %d", len(recs))
	}
	byName := map[string]Record{}
	for _, r := range recs {
		byName[r.Name] = r
		if r.Trace != c.Trace() {
			t.Errorf("span %s carries trace %q, want %q", r.Name, r.Trace, c.Trace())
		}
	}
	if byName["sweep"].Parent != "" {
		t.Errorf("root span has parent %q", byName["sweep"].Parent)
	}
	if byName["job"].Parent != root.ID() {
		t.Errorf("job parent = %q, want root %q", byName["job"].Parent, root.ID())
	}
	if byName["stage:sim"].Parent != child.ID() {
		t.Errorf("stage parent = %q, want job %q", byName["stage:sim"].Parent, child.ID())
	}
	if byName["merge"].Parent != root.ID() {
		t.Errorf("merge parent = %q, want root %q", byName["merge"].Parent, root.ID())
	}
	if byName["job"].Exp != "fig5" || byName["job"].Key != "loopy" {
		t.Errorf("job attrs lost: %+v", byName["job"])
	}
}

// TestStartSpanRootsOnCurrent: a context without a span roots its span on
// the process-global collector, and a context span outranks that
// collector — a sweep traced on its own collector never leaks into the
// global one.
func TestStartSpanRootsOnCurrent(t *testing.T) {
	global := NewCollector(TraceID("global"))
	Enable(global)
	defer Disable()
	sp, ctx := StartSpan(context.Background(), "sweep")
	if sp == nil || sp.parent != "" || sp.c != global {
		t.Fatalf("span-less context did not root on Current: %+v", sp)
	}
	if child, _ := StartSpan(ctx, "job"); child.parent != sp.ID() {
		t.Errorf("child parent = %q, want %q", child.parent, sp.ID())
	}

	own := NewCollector(TraceID("own"))
	root := own.Start("serve:sweep")
	sweep, _ := StartSpan(ContextWithSpan(context.Background(), root), "sweep")
	if sweep.c != own || sweep.parent != root.ID() {
		t.Errorf("context span lost to the global collector: parent %q", sweep.parent)
	}
}

func TestNilSafety(t *testing.T) {
	Disable()
	ctx := context.Background()
	sp, got := StartSpan(ctx, "anything") // no collector enabled
	if sp != nil {
		t.Fatal("StartSpan without a collector should return nil")
	}
	if got != ctx || ContextWithSpan(ctx, nil) != ctx {
		t.Fatal("a nil span changed the context")
	}
	sp.End() // must not panic
	if sp.ID() != "" {
		t.Fatal("nil span has an ID")
	}
}

func TestEndIdempotent(t *testing.T) {
	c := NewCollector("")
	sp := c.Start("x")
	sp.End()
	sp.End()
	if n := len(c.Records()); n != 1 {
		t.Fatalf("double End produced %d records", n)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	trace := TraceID("roundtrip")
	c := NewCollector(trace)
	sp := c.Start("client:sweep")
	h := FormatTraceparent(trace, sp.ID())
	gotTrace, gotSpan, ok := ParseTraceparent(h)
	if !ok || gotTrace != trace || gotSpan != sp.ID() {
		t.Fatalf("round trip failed: %q -> (%q, %q, %v)", h, gotTrace, gotSpan, ok)
	}
	for _, bad := range []string{
		"",
		"00-" + trace + "-" + sp.ID(),         // missing flags
		"01-" + trace + "-" + sp.ID() + "-01", // unknown version
		"00-" + strings.Repeat("0", 32) + "-" + sp.ID() + "-01",                   // zero trace
		"00-" + trace + "-" + strings.Repeat("0", 16) + "-01",                     // zero span
		"00-" + strings.ToUpper(trace) + "-" + sp.ID() + "-01",                    // uppercase hex
		"00-" + trace[:31] + "-" + sp.ID() + "-01",                                // short trace
		"00-" + trace + "-" + sp.ID() + "-01-extra",                               // extra field
		"00-" + strings.Replace(trace, trace[:1], "g", 1) + "-" + sp.ID() + "-01", // non-hex
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent accepted malformed %q", bad)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	c := NewCollector("")
	a := c.Start("sweep")
	b := c.Start("job")
	b.Exp, b.Key, b.Worker, b.QueueUs = "fig5", "loopy", 2, 12.5
	b.End()
	a.End()
	recs := c.Records()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip lost records: %d -> %d", len(recs), len(back))
	}
	for i := range recs {
		if back[i] != recs[i] {
			t.Errorf("record %d changed in round trip:\n  %+v\n  %+v", i, recs[i], back[i])
		}
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("ReadJSONL accepted a malformed line")
	}
	if _, err := ReadJSONL(strings.NewReader("{}\n")); err == nil {
		t.Error("ReadJSONL accepted a record without trace/span/name")
	}
}

func TestRecordsSortedAndStable(t *testing.T) {
	c := NewCollector("")
	spans := make([]*Span, 8)
	for i := range spans {
		spans[i] = c.Start(fmt.Sprintf("s%d", i))
	}
	// End in reverse order; Records must still come back start-ordered.
	for i := len(spans) - 1; i >= 0; i-- {
		spans[i].End()
	}
	recs := c.Records()
	for i := 1; i < len(recs); i++ {
		if recs[i].TUs < recs[i-1].TUs ||
			(recs[i].TUs == recs[i-1].TUs && recs[i].Span < recs[i-1].Span) {
			t.Fatalf("records not sorted at %d: %+v after %+v", i, recs[i], recs[i-1])
		}
	}
}

func TestChromeExportStructure(t *testing.T) {
	c := NewCollector("")
	sweep := c.Start("sweep")
	job := c.StartWith(sweep.ID(), "job")
	job.Worker, job.Exp = 3, "fig5"
	stage := c.StartWith(job.ID(), "stage:sim")
	stage.Kind = "result"
	stage.End()
	job.End()
	sweep.End()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, c.Records()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
		Unit        string                   `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.Unit)
	}
	var complete, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
			for _, field := range []string{"name", "ts", "pid", "tid"} {
				if _, ok := ev[field]; !ok {
					t.Errorf("complete event missing %q: %v", field, ev)
				}
			}
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
		if ev["name"] == "job" || ev["name"] == "stage:sim" {
			if tid, _ := ev["tid"].(float64); tid != 3 {
				t.Errorf("%v should render on worker lane 3, got tid %v", ev["name"], ev["tid"])
			}
		}
	}
	if complete != 3 {
		t.Errorf("want 3 complete events, got %d", complete)
	}
	if meta < 2 { // orchestrator lane + worker 3 lane
		t.Errorf("want thread_name metadata for 2 lanes, got %d", meta)
	}
}

// TestCollectorConcurrentStress is the -race stress test: many
// goroutines starting, attributing, and ending spans under one root
// context — the shape of a parallel sweep dispatching jobs while the
// serve dispatcher holds the root — with a concurrent Records reader
// snapshotting mid-flight.
func TestCollectorConcurrentStress(t *testing.T) {
	c := NewCollector(TraceID("stress"))
	root := c.Start("sweep")
	ctx := ContextWithSpan(context.Background(), root)

	const workers, perWorker = 8, 200
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Records() // must never race with writers
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				job, jctx := StartSpan(ctx, "job")
				job.Worker = w + 1
				job.Key = fmt.Sprintf("job-%d-%d", w, i)
				stage, _ := StartSpan(jctx, "stage:sim")
				stage.End()
				job.End()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	root.End()

	recs := c.Records()
	want := 1 + workers*perWorker*2
	if len(recs) != want {
		t.Fatalf("want %d records, got %d", want, len(recs))
	}
	ids := map[string]bool{}
	byID := map[string]Record{}
	for _, r := range recs {
		if ids[r.Span] {
			t.Fatalf("duplicate span ID %s", r.Span)
		}
		ids[r.Span] = true
		byID[r.Span] = r
	}
	for _, r := range recs {
		switch r.Name {
		case "sweep":
			if r.Parent != "" {
				t.Errorf("sweep has parent %q", r.Parent)
			}
		case "job":
			if r.Parent != root.ID() {
				t.Errorf("job %s parent = %q, want sweep %q", r.Key, r.Parent, root.ID())
			}
		case "stage:sim":
			p, ok := byID[r.Parent]
			if !ok || p.Name != "job" {
				t.Errorf("stage parent %q is not a job span", r.Parent)
			}
		}
	}
}
