package serve

// End-to-end tests for the daemon, driven through a real HTTP stack
// (httptest) with the real engine underneath: quick sweeps, the
// deterministic fault points for hangs, and the public endpoints as the
// only interface. The contracts under test are the ones DESIGN.md §11
// promises: validation parity with the CLI, 429 + Retry-After on a full
// queue (and acceptance again once it drains), graceful drain that
// cancels queued work and completes in-flight jobs without corrupting
// journals, and an event stream that replays fully and reaches EOF when
// the job reaches a terminal status.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cisim/internal/api"
	"cisim/internal/exp"
	"cisim/internal/faults"
	"cisim/internal/runner"
)

// newTestServer starts a daemon on a real listener and tears it down
// with the test. The artifact cache is reset so every test's first
// sweep really computes (and emits miss events), and faults are cleared
// both ways.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	runner.Artifacts.Reset()
	faults.Clear()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		faults.Clear()
		ctx, cancel := testContext(t)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return srv, ts
}

func armFaults(t *testing.T, spec string) {
	t.Helper()
	plan, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faults.Set(plan)
}

// submit posts a sweep request and returns the response with its body
// decoded into out (when out is non-nil and the body is JSON).
func submit(t *testing.T, ts *httptest.Server, body string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %d response %q: %v", resp.StatusCode, data, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %d response %q: %v", resp.StatusCode, data, err)
		}
	}
	return resp
}

// waitStatus polls a job until it reaches want (fatal on deadline, or
// on reaching a different terminal status first).
func waitStatus(t *testing.T, ts *httptest.Server, id string, want api.Status) api.JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var info api.JobInfo
		resp := getJSON(t, ts.URL+"/v1/sweeps/"+id, &info)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll for %s: HTTP %d", id, resp.StatusCode)
		}
		if info.Status == want {
			return info
		}
		if info.Status.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, info.Status, info.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, info.Status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// testContext bounds a drain so a broken shutdown fails the test
// instead of hanging it.
func testContext(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 60*time.Second)
}

const quickTable1 = `{"v":1,"experiments":["table1"],"quick":true}`

// TestSubmitValidation: malformed and invalid requests get a 400 with
// the same diagnostics the CLI prints, and never reach the queue.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body, wantErr string
	}{
		{"malformed json", `{"v":1,`, "parsing sweep request"},
		{"unknown field", `{"v":1,"experiments":["table1"],"bogus":true}`, "bogus"},
		{"wrong version", `{"v":99,"experiments":["table1"]}`, "unsupported schema version 99"},
		{"missing version", `{"experiments":["table1"]}`, "unsupported schema version 0"},
		{"no experiments", `{"v":1}`, "no experiments"},
		{"unknown experiment", `{"v":1,"experiments":["fig99"]}`, `unknown experiment "fig99"`},
		{"unknown workload", `{"v":1,"experiments":["table1"],"workloads":["nope"]}`, `unknown workload "nope"`},
		{"negative jobs", `{"v":1,"experiments":["table1"],"jobs":-1}`, "jobs must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e api.ErrorResponse
			resp := submit(t, ts, tc.body, &e)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", resp.StatusCode)
			}
			if !strings.Contains(e.Error, tc.wantErr) {
				t.Errorf("error %q does not mention %q", e.Error, tc.wantErr)
			}
		})
	}
	var h api.Health
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Queued != 0 || h.Running != 0 || h.Completed != 0 {
		t.Errorf("rejected requests leaked into the job table: %+v", h)
	}
}

// TestSweepLifecycle: submit -> queued -> done, result retrievable as
// the same JSON `run -json` writes, job listed, health counts it.
func TestSweepLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var info api.JobInfo
	resp := submit(t, ts, quickTable1, &info)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", resp.StatusCode)
	}
	if info.ID == "" || info.Status != api.StatusQueued {
		t.Fatalf("submit response: %+v", info)
	}
	if info.Request == nil || len(info.Request.Experiments) != 1 || info.Request.Experiments[0] != "table1" {
		t.Errorf("submit response does not echo the request: %+v", info.Request)
	}

	done := waitStatus(t, ts, info.ID, api.StatusDone)
	if done.Ms <= 0 {
		t.Errorf("done job has no wall clock: %+v", done)
	}
	if done.Instrs == 0 {
		t.Errorf("done job simulated no instructions: %+v", done)
	}

	resp = getJSON(t, ts.URL+"/v1/sweeps/"+info.ID+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d, want 200", resp.StatusCode)
	}
	rresp, err := http.Get(ts.URL + "/v1/sweeps/" + info.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	results, err := exp.ReadJSON(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("result body does not parse as run -json output: %v", err)
	}
	if len(results) != 1 || results[0].ID != "table1" {
		t.Fatalf("result carries %d experiments, want table1 alone", len(results))
	}

	var list api.JobList
	getJSON(t, ts.URL+"/v1/sweeps", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != info.ID {
		t.Errorf("job listing: %+v", list)
	}
	var h api.Health
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Completed != 1 || h.Status != "serving" {
		t.Errorf("health after completion: %+v", h)
	}

	if resp := getJSON(t, ts.URL+"/v1/sweeps/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestResultNotReady: a sweep that has not finished answers 409 with a
// Retry-After hint, and a cancelled sweep answers 409 naming the
// status.
func TestResultNotReady(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	armFaults(t, "job-hang") // first job picked up blocks until cancel
	var info api.JobInfo
	submit(t, ts, quickTable1, &info)
	waitStatus(t, ts, info.ID, api.StatusRunning)

	var e api.ErrorResponse
	resp := getJSON(t, ts.URL+"/v1/sweeps/"+info.ID+"/result", &e)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("running result: HTTP %d, want 409", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("running result carries no Retry-After hint")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+info.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	cancelled := waitStatus(t, ts, info.ID, api.StatusCancelled)
	if cancelled.Error == "" {
		t.Error("cancelled job has no explanation")
	}
	resp = getJSON(t, ts.URL+"/v1/sweeps/"+info.ID+"/result", &e)
	if resp.StatusCode != http.StatusConflict || !strings.Contains(e.Error, "cancelled") {
		t.Errorf("cancelled result: HTTP %d %q, want 409 naming the status", resp.StatusCode, e.Error)
	}
}

// TestBackpressure: with a queue of one, a hung sweep plus one queued
// sweep make the next submit bounce with 429 + Retry-After; cancelling
// frees the system and a later submit is accepted again.
func TestBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{Queue: 1})
	armFaults(t, "job-hang")

	var a, b api.JobInfo
	if resp := submit(t, ts, quickTable1, &a); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: HTTP %d", resp.StatusCode)
	}
	waitStatus(t, ts, a.ID, api.StatusRunning) // A is off the queue and hung
	if resp := submit(t, ts, quickTable1, &b); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: HTTP %d", resp.StatusCode)
	}

	// Queue full: the contract is an immediate, honest 429.
	var e api.ErrorResponse
	resp := submit(t, ts, quickTable1, &e)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit C on full queue: HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After header")
	}
	if !strings.Contains(e.Error, "queue is full") {
		t.Errorf("429 error %q does not name the queue", e.Error)
	}

	// Cancel the queued sweep: it terminates instantly without running.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+b.ID, nil)
	var bAfter api.JobInfo
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(dresp.Body).Decode(&bAfter); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if bAfter.Status != api.StatusCancelled {
		t.Fatalf("cancelled queued job is %s, want cancelled immediately", bAfter.Status)
	}

	// Cancel the hung sweep; once the dispatcher skips B's corpse the
	// queue is empty and submissions flow again.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+a.ID, nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitStatus(t, ts, a.ID, api.StatusCancelled)
	// A can be cancelled before its pool picks up a job, and a cancelled
	// sweep skips its jobs, so the one-shot hang may not have fired yet.
	// Disarm it: the sweep below only has to show that the queue drained.
	faults.Clear()

	deadline := time.Now().Add(30 * time.Second)
	for {
		var d api.JobInfo
		resp := submit(t, ts, quickTable1, &d)
		if resp.StatusCode == http.StatusAccepted {
			waitStatus(t, ts, d.ID, api.StatusDone)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: submit still answers HTTP %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDrain: Shutdown cancels queued sweeps, drains the running one's
// in-flight jobs, leaves its journal uncorrupted, flips health to
// draining, and refuses new work with 503.
func TestDrain(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{Queue: 4, JournalDir: dir})
	armFaults(t, "job-hang") // A's first job hangs; its other jobs complete and journal

	var a, b api.JobInfo
	// Explicit jobs: the default pool width is GOMAXPROCS, which on a
	// one-CPU machine would leave no worker free to make the progress
	// this test drains.
	submit(t, ts, `{"v":1,"experiments":["table1"],"quick":true,"jobs":4}`, &a)
	waitStatus(t, ts, a.ID, api.StatusRunning)
	submit(t, ts, quickTable1, &b)

	// Wait until A's completed jobs have journaled, so the drain has
	// real records to preserve.
	jpath := filepath.Join(dir, a.ID+".journal")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(jpath); err == nil && bytes.Count(data, []byte("\n")) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal %s never accumulated records", jpath)
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := testContext(t)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Terminal states: the queued sweep was cancelled without running,
	// the hung sweep drained to cancelled.
	for _, id := range []string{a.ID, b.ID} {
		var info api.JobInfo
		getJSON(t, ts.URL+"/v1/sweeps/"+id, &info)
		if info.Status != api.StatusCancelled {
			t.Errorf("job %s after drain: %s, want cancelled", id, info.Status)
		}
	}
	var h api.Health
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "draining" || h.Completed != 2 {
		t.Errorf("health after drain: %+v", h)
	}
	var e api.ErrorResponse
	resp := submit(t, ts, quickTable1, &e)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After header")
	}

	// The drained sweep's journal replays cleanly: every record intact,
	// nothing torn by the shutdown.
	j, entries, dropped, err := runner.OpenJournal(jpath)
	if err != nil {
		t.Fatalf("reopening drained journal: %v", err)
	}
	j.Close()
	if dropped != 0 {
		t.Errorf("drained journal dropped %d torn record(s)", dropped)
	}
	if len(entries) < 2 {
		t.Errorf("drained journal holds %d record(s), want the completed jobs", len(entries))
	}
}

// TestEventStreamReplay: after a sweep finishes, the event endpoint
// replays the whole golden-schema JSONL stream and closes; with an SSE
// Accept header the same lines arrive as data: frames.
func TestEventStreamReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var info api.JobInfo
	// fig5 is the experiment whose quick run demonstrably produces
	// metrics snapshots (the CLI event-schema test leans on the same).
	submit(t, ts, `{"v":1,"experiments":["fig5"],"quick":true,"metrics":true}`, &info)
	waitStatus(t, ts, info.ID, api.StatusDone)

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("JSONL stream content type %q", ct)
	}
	counts := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var ev struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("unparseable event line %q: %v", sc.Text(), err)
		}
		counts[ev.Ev]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if counts["run_start"] != 1 || counts["run_end"] != 1 {
		t.Errorf("stream lifecycle events: %v", counts)
	}
	if counts["job_end"] == 0 || counts["metrics"] == 0 {
		t.Errorf("stream missing job or metrics events: %v", counts)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sweeps/"+info.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	data, err := io.ReadAll(sresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "data: ") {
			frames++
		}
	}
	var total int
	for _, n := range counts {
		total += n
	}
	if frames != total {
		t.Errorf("SSE delivered %d data frames, JSONL delivered %d lines", frames, total)
	}
}

// TestEventStreamLive: a subscriber attached while the sweep runs sees
// events as they happen and reaches EOF when the sweep terminates.
func TestEventStreamLive(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	armFaults(t, "job-hang")
	var info api.JobInfo
	submit(t, ts, quickTable1, &info)
	waitStatus(t, ts, info.ID, api.StatusRunning)

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		t.Fatalf("live stream yielded nothing: %v", sc.Err())
	}
	if !strings.Contains(sc.Text(), `"run_start"`) {
		t.Fatalf("first live event is %q, want run_start", sc.Text())
	}

	// Cancel the sweep; the stream must terminate rather than hang.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+info.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	sawEnd := false
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"run_end"`) {
			sawEnd = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawEnd {
		t.Error("live stream ended without a run_end event")
	}
}

// TestVersionEndpoint: /version identifies the build and the API it
// speaks.
func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var v api.VersionInfo
	resp := getJSON(t, ts.URL+"/version", &v)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version: HTTP %d", resp.StatusCode)
	}
	if v.API != api.Version || v.Module == "" || v.GoVersion == "" {
		t.Errorf("version info: %+v", v)
	}
}
