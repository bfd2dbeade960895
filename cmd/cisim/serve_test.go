package main

// Frontend-parity and signal tests: the HTTP daemon and the CLI must
// produce byte-identical results for the same request, SIGTERM must
// drain a run exactly like SIGINT, `cisim version` must identify the
// build, and `cisim events` must accept a URL where it accepts a file.

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"cisim/internal/api"
	"cisim/internal/runner"
	"cisim/internal/serve"
)

// contextWithTimeout bounds a daemon drain so a broken shutdown fails
// the test instead of hanging it.
func contextWithTimeout(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 60*time.Second)
}

// TestServeResultMatchesRunJSON: the acceptance criterion for the serve
// subsystem — an HTTP sweep result is byte-identical to `cisim run
// -quick -json` for the same request, because both frontends are thin
// wrappers over internal/api.
func TestServeResultMatchesRunJSON(t *testing.T) {
	want, err := runQuiet(t, "-quick", "-json", "table1")
	if err != nil {
		t.Fatal(err)
	}

	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv)
	defer func() {
		ctx, cancel := contextWithTimeout(t)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	}()

	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"v":1,"experiments":["table1"],"quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var info api.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		sresp, err := http.Get(ts.URL + "/v1/sweeps/" + info.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur api.JobInfo
		if err := json.NewDecoder(sresp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		sresp.Body.Close()
		if cur.Status == api.StatusDone {
			break
		}
		if cur.Status.Terminal() {
			t.Fatalf("sweep ended %s: %s", cur.Status, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in %s", cur.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	rresp, err := http.Get(ts.URL + "/v1/sweeps/" + info.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", rresp.StatusCode, got)
	}
	if string(got) != want {
		t.Errorf("HTTP result differs from `run -quick -json` (%d vs %d bytes)", len(got), len(want))
	}
}

// TestRunSIGTERMDrain: SIGTERM takes the SIGINT graceful-drain path —
// the run aborts with explicit holes, skipped jobs are evented, and the
// journal survives intact for -resume.
func TestRunSIGTERMDrain(t *testing.T) {
	// Catch SIGTERM for the whole test binary before any is sent, so a
	// signal racing cmdRun's own registration cannot kill the process.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	dir := t.TempDir()
	events := dir + "/events.jsonl"
	journal := dir + "/run.journal"

	errc := make(chan error, 1)
	go func() {
		// job-hang parks the first picked-up job until the signal
		// cancels the run context, holding the run open deterministically.
		_, err := runQuiet(t, "-quick", "-faults", "job-hang",
			"-events", events, "-journal", journal, "table1")
		errc <- err
	}()

	// The run_start event is emitted strictly after cmdRun registered
	// its signal handler, so once it appears the SIGTERM is safe.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(events); err == nil && strings.Contains(string(data), `"run_start"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never emitted run_start")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "run aborted before completion") {
			t.Fatalf("SIGTERM'd run returned %v, want the abort error", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("SIGTERM did not drain the run")
	}

	counts := countEvents(t, events)
	if counts["run_abort"] == 0 {
		t.Errorf("no run_abort event after SIGTERM: %v", counts)
	}
	if counts["run_end"] != 1 {
		t.Errorf("drained run did not finish its event stream: %v", counts)
	}

	// The journal a drain leaves behind replays cleanly.
	j, _, dropped, err := runner.OpenJournal(journal)
	if err != nil {
		t.Fatalf("reopening journal after SIGTERM: %v", err)
	}
	j.Close()
	if dropped != 0 {
		t.Errorf("SIGTERM tore %d journal record(s)", dropped)
	}
}

// TestCmdVersion: the version subcommand names the module, toolchain,
// and API version.
func TestCmdVersion(t *testing.T) {
	out, err := capture(t, cmdVersion)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cisim", "go1", "api=v1"} {
		if !strings.Contains(out, want) {
			t.Errorf("version output %q missing %q", strings.TrimSpace(out), want)
		}
	}
}

// TestCmdEventsURL: `cisim events` analyzes an HTTP source — such as a
// serve daemon's event endpoint — exactly like a local file.
func TestCmdEventsURL(t *testing.T) {
	f := t.TempDir() + "/events.jsonl"
	if _, err := runQuiet(t, "-quick", "-events", f, "table1"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweeps/s000001/events" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = w.Write(data)
	}))
	defer ts.Close()

	out, err := capture(t, func() error {
		return cmdEvents([]string{ts.URL + "/v1/sweeps/s000001/events"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"run overview", "jobs completed"} {
		if !strings.Contains(out, want) {
			t.Errorf("events-over-HTTP output missing %q", want)
		}
	}

	if _, err := capture(t, func() error {
		return cmdEvents([]string{ts.URL + "/no/such/stream"})
	}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("missing URL source: err = %v, want a 404 mention", err)
	}
}

// timeoutServer serves a fresh daemon through newHTTPServer, with every
// connection timeout shortened to d.
func timeoutServer(t *testing.T, d time.Duration) *httptest.Server {
	t.Helper()
	srv := serve.New(serve.Config{})
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = newHTTPServer(srv)
	ts.Config.ReadHeaderTimeout, ts.Config.ReadTimeout, ts.Config.IdleTimeout = d, d, d
	ts.Start()
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(t)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return ts
}

// TestServeCutsHalfHeaderClient: a client that sends half a request
// header and then stalls is disconnected at the header timeout instead
// of holding its connection indefinitely.
func TestServeCutsHalfHeaderClient(t *testing.T) {
	const timeout = 200 * time.Millisecond
	ts := timeoutServer(t, timeout)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: cisim\r\n"); err != nil {
		t.Fatal(err)
	}
	// A disconnect reads as EOF; our own deadline firing instead means
	// the server kept the stalled connection open.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	got, err := io.ReadAll(conn)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("half-header connection not closed by the server after %v: %v", elapsed, err)
	}
	if elapsed < timeout/2 || elapsed > timeout+5*time.Second {
		t.Errorf("half-header connection closed after %v, want near the %v timeout", elapsed, timeout)
	}
	if len(got) != 0 {
		t.Errorf("server answered a half-sent request: %q", got)
	}
}

// TestServeTimeoutsSpareEventStream: the connection timeouts end at the
// request, never the response — an /events stream that outlives them
// still runs to the sweep's run_end.
func TestServeTimeoutsSpareEventStream(t *testing.T) {
	const timeout = 100 * time.Millisecond
	ts := timeoutServer(t, timeout)
	runner.Artifacts.Reset() // a cold sweep outlasts the timeouts

	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"v":1,"experiments":["fig5"],"quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var info api.JobInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", resp.StatusCode, err)
	}
	start := time.Now()
	eresp, err := http.Get(ts.URL + "/v1/sweeps/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(eresp.Body)
	eresp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("event stream broke after %v: %v", elapsed, err)
	}
	if elapsed <= timeout {
		t.Fatalf("stream finished in %v, inside the %v timeout; the check needs a longer sweep", elapsed, timeout)
	}
	if !strings.Contains(string(body), `"ev":"run_end"`) {
		t.Errorf("stream ended after %v without run_end (%d bytes)", elapsed, len(body))
	}
}
