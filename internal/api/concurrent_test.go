package api

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"cisim/internal/exp"
	"cisim/internal/runner"
	"cisim/internal/store"
	"cisim/internal/telemetry"
	"cisim/internal/workloads"
)

// eventSink collects a sweep's run events.
type eventSink struct {
	mu     sync.Mutex
	events []runner.Event // guarded by mu
}

func (s *eventSink) Emit(e runner.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, e)
}

func (s *eventSink) snapshot() []runner.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]runner.Event(nil), s.events...)
}

// resultJSON renders a sweep's results exactly as `cisim run -json`.
func resultJSON(t *testing.T, out *Output) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := exp.WriteJSON(&buf, out.JSONResults()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConcurrentSweepsDisjointStreams: two sweeps running at once in one
// process, over one artifact cache and one persistent store, keep
// disjoint and complete records. Each sweep's run events, cache counts
// and spans cover exactly its own jobs, although the sweeps share five
// programs, preps and results, and each result is byte-identical to a
// serial run of the same request.
func TestConcurrentSweepsDisjointStreams(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	runner.Artifacts.Reset()
	runner.Artifacts.SetStore(st)
	defer runner.Artifacts.SetStore(nil)

	reqs := []*SweepRequest{
		{V: Version, Experiments: []string{"table1", "table2"}, Quick: true, Jobs: 2},
		{V: Version, Experiments: []string{"table3", "fig12"}, Quick: true, Jobs: 2},
	}
	type sweep struct {
		sink *eventSink
		col  *telemetry.Collector
		root *telemetry.Span
		out  *Output
		err  error
	}
	sweeps := make([]*sweep, len(reqs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, req := range reqs {
		col := telemetry.NewCollector(telemetry.TraceID("concurrent", req.Experiments[0]))
		sw := &sweep{sink: &eventSink{}, col: col, root: col.Start("serve:sweep")}
		sweeps[i] = sw
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ctx := telemetry.ContextWithSpan(context.Background(), sw.root)
			sw.out, sw.err = Run(ctx, req, RunOptions{Sink: sw.sink})
			sw.root.End()
		}()
	}
	close(start)
	wg.Wait()

	ws := workloads.All()
	for i, sw := range sweeps {
		req := reqs[i]
		name := strings.Join(req.Experiments, "+")
		if sw.err != nil {
			t.Fatalf("%s: %v", name, sw.err)
		}
		own := map[string]bool{}
		for _, id := range req.Experiments {
			own[id] = true
		}

		// Events: a complete lifecycle, one start and end per own job,
		// nothing of the other sweep's, and cache totals that match the
		// lookups the stream carries.
		counts := map[string]int{}
		jobs := map[string]int{}
		var end runner.Event
		for _, e := range sw.sink.snapshot() {
			counts[e.Ev]++
			switch e.Ev {
			case "run_end":
				end = e
			case "job_start", "job_end":
				if !own[e.Exp] {
					t.Errorf("%s: stream carries %s for %s/%s of the other sweep", name, e.Ev, e.Exp, e.Key)
				}
				jobs[e.Ev+" "+e.Exp+"/"+e.Key]++
			}
		}
		if counts["run_start"] != 1 || counts["run_end"] != 1 {
			t.Errorf("%s: run_start/run_end = %d/%d, want 1/1", name, counts["run_start"], counts["run_end"])
		}
		for id := range own {
			for _, w := range ws {
				for _, ev := range []string{"job_start", "job_end"} {
					if n := jobs[ev+" "+id+"/"+w.Name]; n != 1 {
						t.Errorf("%s: %d %s events for %s/%s, want 1", name, n, ev, id, w.Name)
					}
				}
			}
		}
		cs := sw.out.Summary.Cache
		if n := uint64(counts["cache"]); n == 0 || end.CacheHits+end.CacheMisses != n || cs.Hits()+cs.Misses() != n {
			t.Errorf("%s: stream has %d cache events; run_end counts %d, Summary.Cache %d",
				name, n, end.CacheHits+end.CacheMisses, cs.Hits()+cs.Misses())
		}
		if n := uint64(counts["store_put"] + counts["store_hit"]); cs.StorePuts+cs.StoreHits != n {
			t.Errorf("%s: stream has %d store hits and puts; Summary.Cache counts %d", name, n, cs.StorePuts+cs.StoreHits)
		}

		// Spans: one sweep under the sweep's own root, one job per own
		// job under it, and every stage and store span inside a job.
		recs := sw.col.Records()
		byID := map[string]telemetry.Record{}
		var sweepIDs []string
		for _, r := range recs {
			byID[r.Span] = r
			if r.Name == "sweep" && r.Parent == sw.root.ID() {
				sweepIDs = append(sweepIDs, r.Span)
			}
		}
		if len(sweepIDs) != 1 {
			t.Fatalf("%s: %d sweep spans under its root, want 1", name, len(sweepIDs))
		}
		var jobSpans int
		for _, r := range recs {
			switch {
			case r.Name == "job":
				jobSpans++
				if r.Parent != sweepIDs[0] || !own[r.Exp] {
					t.Errorf("%s: job span %s/%s has parent %q, want its sweep %q", name, r.Exp, r.Key, r.Parent, sweepIDs[0])
				}
			case strings.HasPrefix(r.Name, "stage:") || strings.HasPrefix(r.Name, "store:"):
				p := byID[r.Parent]
				for p.Name != "" && p.Name != "job" {
					p = byID[p.Parent]
				}
				if p.Name != "job" {
					t.Errorf("%s: %s span %s reaches no job span", name, r.Name, r.Key)
				}
			}
		}
		if want := len(own) * len(ws); jobSpans != want {
			t.Errorf("%s: %d job spans, want %d", name, jobSpans, want)
		}
	}

	// Results: byte-identical to each request run alone, cold.
	runner.Artifacts.SetStore(nil)
	for i, req := range reqs {
		runner.Artifacts.Reset()
		serial, err := Run(context.Background(), req, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resultJSON(t, sweeps[i].out), resultJSON(t, serial); !bytes.Equal(got, want) {
			t.Errorf("%s: concurrent result differs from a serial run (%d vs %d bytes)",
				strings.Join(req.Experiments, "+"), len(got), len(want))
		}
	}
}
