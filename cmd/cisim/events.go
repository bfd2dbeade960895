package main

// cisim events: offline analyzer for the observability streams the rest
// of the tool writes — the JSONL run-event stream (`cisim run -events`),
// the crash-consistent journal (`cisim run -journal`), and a `cisim
// serve` event endpoint fetched over HTTP. It answers the questions a
// slow or failed campaign raises without re-running it: which workers
// did the work, what did the cache absorb, which job was the critical
// path, and what went wrong.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"cisim/internal/stats"
)

func cmdEvents(args []string) error {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	top := fs.Int("top", 5, "slowest jobs to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("events needs one JSONL source: a file from 'cisim run -events FILE' or -journal FILE, or an http(s) URL such as a serve daemon's /v1/sweeps/{id}/events")
	}
	src, name, err := openEventSource(fs.Arg(0))
	if err != nil {
		return err
	}
	defer src.Close()
	a, err := analyzeEvents(src, name)
	if err != nil {
		return err
	}
	fmt.Print(a.render(*top))
	return nil
}

// openEventSource opens the argument as a file, or as an HTTP stream
// when it is a URL — the daemon's JSONL event endpoint analyzes exactly
// like an -events file, including live streams (the response body is
// read to EOF, which for a running sweep means until it finishes).
func openEventSource(arg string) (io.ReadCloser, string, error) {
	if !strings.HasPrefix(arg, "http://") && !strings.HasPrefix(arg, "https://") {
		f, err := os.Open(arg)
		return f, arg, err
	}
	resp, err := http.Get(arg)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, "", fmt.Errorf("%s: %s: %s", arg, resp.Status, strings.TrimSpace(string(body)))
	}
	return resp.Body, arg, nil
}

// eventLine is the union of a run event and a journal record: run events
// carry "ev", journal records carry "v"/"addr"/"payload". Unknown fields
// are ignored, so the analyzer tolerates streams written by newer builds.
type eventLine struct {
	Ev string `json:"ev"`
	T  float64
	// Journal record fields.
	V    int    `json:"v"`
	Addr string `json:"addr"`

	Exp     string  `json:"exp"`
	Key     string  `json:"key"`
	Kind    string  `json:"kind"`
	Hit     *bool   `json:"hit"`
	Bytes   int64   `json:"bytes"`
	Ms      float64 `json:"ms"`
	Instrs  uint64  `json:"instrs"`
	Err     string  `json:"err"`
	Attempt int     `json:"attempt"`
	Worker  int     `json:"worker"`

	Jobs        int     `json:"jobs"`
	Workers     int     `json:"workers"`
	Skipped     int     `json:"skipped"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	Healed      uint64  `json:"healed"`
	HeapBytes   uint64  `json:"heap_bytes"`
	GCCycles    uint32  `json:"gc_cycles"`
	GCPauseMs   float64 `json:"gc_pause_ms"`
	Goroutines  int     `json:"goroutines"`
}

// jobStat is one job_end observation.
type jobStat struct {
	Exp, Key string
	Ms       float64
	Instrs   uint64
	Attempts int
	Worker   int
	Err      string
}

type workerStat struct {
	Jobs   int
	BusyMs float64
}

type kindStat struct{ Hits, Misses int }

// storeStat aggregates one persistent-store event type.
type storeStat struct {
	Count int
	Bytes int64
}

// analysis is everything cmdEvents learned from one stream.
type analysis struct {
	lines, malformed int
	journalRecords   int
	journalExps      map[string]int

	runStart, runEnd *eventLine
	jobs             []jobStat
	workers          map[int]*workerStat
	kinds            map[string]kindStat
	store            map[string]*storeStat // by event type: store_hit, store_put, ...
	metricsEvents    []string              // "exp/workload" per metrics event
	retries, stalls  int
	skips, corrupt   int
	aborts           int
	failures         []jobStat
}

func analyzeEvents(r io.Reader, name string) (*analysis, error) {
	a := &analysis{
		journalExps: map[string]int{},
		workers:     map[int]*workerStat{},
		kinds:       map[string]kindStat{},
		store:       map[string]*storeStat{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		a.lines++
		var e eventLine
		if err := json.Unmarshal(line, &e); err != nil {
			a.malformed++
			continue
		}
		if e.Ev == "" {
			if e.V > 0 && e.Addr != "" {
				a.journalRecords++
				a.journalExps[e.Exp]++
			} else {
				a.malformed++
			}
			continue
		}
		switch e.Ev {
		case "run_start":
			ec := e
			a.runStart = &ec
		case "run_end":
			ec := e
			a.runEnd = &ec
		case "job_end":
			if e.Attempt == 0 {
				e.Attempt = 1 // the field is only stamped on retries
			}
			js := jobStat{Exp: e.Exp, Key: e.Key, Ms: e.Ms, Instrs: e.Instrs,
				Attempts: e.Attempt, Worker: e.Worker, Err: e.Err}
			a.jobs = append(a.jobs, js)
			if e.Err != "" {
				a.failures = append(a.failures, js)
			}
			if e.Worker > 0 {
				ws := a.workers[e.Worker]
				if ws == nil {
					ws = &workerStat{}
					a.workers[e.Worker] = ws
				}
				ws.Jobs++
				ws.BusyMs += e.Ms
			}
		case "job_retry":
			a.retries++
		case "job_stall":
			a.stalls++
		case "job_skip":
			a.skips++
		case "cache":
			ks := a.kinds[e.Kind]
			if e.Hit != nil && *e.Hit {
				ks.Hits++
			} else {
				ks.Misses++
			}
			a.kinds[e.Kind] = ks
		case "cache_corrupt":
			a.corrupt++
		case "store_hit", "store_put", "store_evict", "store_quarantine":
			ss := a.store[e.Ev]
			if ss == nil {
				ss = &storeStat{}
				a.store[e.Ev] = ss
			}
			ss.Count++
			ss.Bytes += e.Bytes
		case "metrics":
			a.metricsEvents = append(a.metricsEvents, e.Exp+"/"+e.Key)
		case "run_abort":
			a.aborts++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if a.lines == 0 {
		return nil, fmt.Errorf("%s: empty file", name)
	}
	return a, nil
}

func (a *analysis) render(top int) string {
	out := ""

	if a.journalRecords > 0 {
		t := stats.NewTable(fmt.Sprintf("journal: %d completed job(s)", a.journalRecords),
			"experiment", "jobs")
		ids := make([]string, 0, len(a.journalExps))
		//lint:ignore detrange sorted just below
		for id := range a.journalExps {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			t.AddRow(id, a.journalExps[id])
		}
		out += t.String() + "\n"
	}

	if a.runStart != nil || a.runEnd != nil || len(a.jobs) > 0 {
		t := stats.NewTable("run overview", "metric", "value")
		if a.runStart != nil {
			t.AddRow("jobs scheduled", a.runStart.Jobs)
			t.AddRow("workers", a.runStart.Workers)
			if a.runStart.Skipped > 0 {
				t.AddRow("jobs replayed from journal", a.runStart.Skipped)
			}
		}
		t.AddRow("jobs completed", len(a.jobs))
		if a.retries > 0 {
			t.AddRow("retries", a.retries)
		}
		if a.stalls > 0 {
			t.AddRow("deadline stalls", a.stalls)
		}
		if a.corrupt > 0 {
			t.AddRow("corrupt artifacts healed", a.corrupt)
		}
		if a.aborts > 0 {
			t.AddRow("run aborts", a.aborts)
		}
		if len(a.failures) > 0 {
			t.AddRow("failed jobs", len(a.failures))
		}
		if a.runEnd != nil {
			t.AddRow("wall clock (ms)", a.runEnd.Ms)
			t.AddRow("instructions simulated", int(a.runEnd.Instrs))
			t.AddRow("heap at end (MB)", float64(a.runEnd.HeapBytes)/(1<<20))
			t.AddRow("GC cycles", int(a.runEnd.GCCycles))
			t.AddRow("GC pause total (ms)", a.runEnd.GCPauseMs)
			t.AddRow("goroutines at end", a.runEnd.Goroutines)
		}
		if len(a.metricsEvents) > 0 {
			t.AddRow("metrics snapshots", len(a.metricsEvents))
		}
		out += t.String() + "\n"
	}

	if len(a.workers) > 0 {
		t := stats.NewTable("worker utilization", "worker", "jobs", "busy ms", "share")
		var busyTotal float64
		ids := make([]int, 0, len(a.workers))
		//lint:ignore detrange sorted just below
		for id, ws := range a.workers {
			ids = append(ids, id)
			busyTotal += ws.BusyMs
		}
		sort.Ints(ids)
		for _, id := range ids {
			ws := a.workers[id]
			share := 0.0
			if busyTotal > 0 {
				share = 100 * ws.BusyMs / busyTotal
			}
			t.AddRow(fmt.Sprintf("w%d", id), ws.Jobs, ws.BusyMs, stats.Percent(share))
		}
		out += t.String() + "\n"
	}

	if len(a.kinds) > 0 {
		t := stats.NewTable("artifact cache by kind", "kind", "hits", "misses", "hit rate")
		kinds := make([]string, 0, len(a.kinds))
		//lint:ignore detrange sorted just below
		for k := range a.kinds {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			ks := a.kinds[k]
			t.AddRow(k, ks.Hits, ks.Misses,
				stats.Percent(100*stats.Ratio(uint64(ks.Hits), uint64(ks.Hits+ks.Misses))))
		}
		out += t.String() + "\n"
	}

	if len(a.store) > 0 {
		// Persistent-store traffic rides the same stream (store_hit,
		// store_put, store_evict, store_quarantine); bytes are blob
		// payload sizes, zero for events that move none.
		t := stats.NewTable("persistent store activity", "event", "count", "bytes")
		evs := make([]string, 0, len(a.store))
		//lint:ignore detrange sorted just below
		for ev := range a.store {
			evs = append(evs, ev)
		}
		sort.Strings(evs)
		for _, ev := range evs {
			ss := a.store[ev]
			t.AddRow(strings.TrimPrefix(ev, "store_"), ss.Count, int(ss.Bytes))
		}
		out += t.String() + "\n"
	}

	if len(a.jobs) > 0 && top > 0 {
		// The slowest jobs are the first candidates to cache, shrink or
		// split. They bound the wall clock only when every job has its
		// own worker; `cisim spans` computes the actual critical path.
		sorted := make([]jobStat, len(a.jobs))
		copy(sorted, a.jobs)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Ms > sorted[j].Ms })
		if top > len(sorted) {
			top = len(sorted)
		}
		t := stats.NewTable(fmt.Sprintf("slowest %d job(s)", top),
			"job", "ms", "instrs", "attempts", "worker")
		for _, js := range sorted[:top] {
			t.AddRow(js.Exp+"/"+js.Key, js.Ms, int(js.Instrs), js.Attempts, fmt.Sprintf("w%d", js.Worker))
		}
		out += t.String() + "\n"
	}

	if len(a.failures) > 0 {
		t := stats.NewTable("failed jobs", "job", "error")
		for _, js := range a.failures {
			t.AddRow(js.Exp+"/"+js.Key, js.Err)
		}
		out += t.String() + "\n"
	}

	if a.malformed > 0 {
		out += fmt.Sprintf("(%d of %d line(s) malformed and skipped)\n", a.malformed, a.lines)
	}
	return out
}
