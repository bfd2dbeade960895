package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cisim/internal/api"
)

// serveClients is the number of closed-loop clients, one per host CPU.
const serveClients = 2

// daemon is a running `cisim serve` process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	client *http.Client
	exited chan struct{} // closed once the process has been waited for
	err    error         // the process's exit error; read after exited
}

// startDaemon starts a fresh daemon with no persistent store and returns
// once its /healthz answers.
func (b *bench) startDaemon() (*daemon, error) {
	addrFile := filepath.Join(b.work, fmt.Sprintf("addr-%d", time.Now().UnixNano()))
	logFile, err := os.Create(addrFile + ".log")
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	cmd := exec.Command(b.cisim, "serve", "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-jobs", "2")
	// The daemon must not pick up a store or faults from the environment.
	cmd.Env = append(os.Environ(), "CISIM_CACHE_DIR=", "CISIM_FAULTS=")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// A benchmark killed from outside must not leave the daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}}
	go func() { d.err = cmd.Wait(); close(d.exited) }()

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("daemon exited during start: %v", d.err)
		default:
		}
		if d.base == "" {
			if data, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(data, []byte("\n")) {
				d.base = "http://" + strings.TrimSpace(string(data))
			}
		}
		if d.base != "" {
			if resp, err := d.client.Get(d.base + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.kill()
	return nil, errors.New("daemon did not answer /healthz within 30s")
}

// stop drains the daemon with SIGTERM and waits for it; a drain that
// fails or hangs is an error, and a hung daemon is killed.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signalling daemon: %w", err)
	}
	select {
	case <-d.exited:
		if d.err != nil {
			return fmt.Errorf("daemon drain: %w", d.err)
		}
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("daemon drain did not finish within 60s")
	}
}

// kill ends the daemon without a drain and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// served is one finished daemon sweep as its client saw it.
type served struct {
	body   []byte
	instrs uint64
	total  time.Duration // submit to result body received
	submit time.Duration // the POST alone
	result time.Duration // the result GET alone
}

// errRejected marks a submission the daemon refused with 429.
var errRejected = errors.New("submission rejected with 429")

// sweep submits req, waits on its event stream until the stream closes,
// and fetches the result.
func (d *daemon) sweep(req api.SweepRequest) (*served, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := d.client.Post(d.base+"/v1/sweeps", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	var info api.JobInfo
	err = decodeBody(resp, http.StatusAccepted, &info)
	s := &served{submit: time.Since(start)}
	if resp.StatusCode == http.StatusTooManyRequests {
		return s, errRejected
	}
	if err != nil {
		return s, fmt.Errorf("submit: %w", err)
	}

	resp, err = d.client.Get(d.base + "/v1/sweeps/" + info.ID + "/events")
	if err != nil {
		return s, err
	}
	sawEnd := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		// Only run_end matters; skip decoding the job and cache events,
		// whose client CPU would compete with the daemon's.
		if !bytes.Contains(sc.Bytes(), []byte(`"run_end"`)) {
			continue
		}
		var ev struct {
			Ev     string `json:"ev"`
			Instrs uint64 `json:"instrs"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Ev == "run_end" {
			sawEnd, s.instrs = true, ev.Instrs
		}
	}
	err = sc.Err()
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("events: status %d: %v", resp.StatusCode, err)
	}
	if !sawEnd {
		return s, errors.New("event stream closed without run_end")
	}

	rstart := time.Now()
	resp, err = d.client.Get(d.base + "/v1/sweeps/" + info.ID + "/result")
	if err != nil {
		return s, err
	}
	s.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.result = time.Since(rstart)
	s.total = time.Since(start)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result: status %d: %s", resp.StatusCode, bytes.TrimSpace(s.body))
	}
	return s, err
}

// decodeBody reads a JSON response that must carry status want.
func decodeBody(resp *http.Response, want int, v interface{}) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// get fetches path and decodes its JSON body.
func (d *daemon) get(path string, v interface{}) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	return decodeBody(resp, http.StatusOK, v)
}

// series reads the named unlabelled series from the daemon's /metrics,
// in order.
func (d *daemon) series(names []string) ([]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	found := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if name, v, ok := strings.Cut(sc.Text(), " "); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				found[name] = f
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	vals := make([]float64, len(names))
	for i, name := range names {
		v, ok := found[name]
		if !ok {
			return nil, fmt.Errorf("/metrics has no %s", name)
		}
		vals[i] = v
	}
	return vals, nil
}

// singleSweep is a serve-mix submission: one quick detailed experiment.
func singleSweep(r mixReq) api.SweepRequest {
	return api.SweepRequest{V: api.Version, Experiments: []string{r.Exp}, Quick: true, Metrics: r.Metrics, Jobs: 2}
}

// warmDaemon starts a fresh daemon and fills its artifact cache with one
// sweep of the twelve detailed experiments, without and with metrics,
// so every serve-mix request after it is a cache hit.
func (b *bench) warmDaemon() (*daemon, error) {
	d, err := b.startDaemon()
	if err != nil {
		return nil, err
	}
	for _, metrics := range []bool{false, true} {
		req := api.SweepRequest{V: api.Version, Experiments: detailedExps, Quick: true, Metrics: metrics, Jobs: 2}
		s, err := d.sweep(req)
		if err == nil {
			err = b.checkDigest(digestLabel(req.Experiments, metrics), s.body)
		}
		if !b.check("daemon warm-up sweep", err) {
			d.kill()
			return nil, fmt.Errorf("warm-up failed: %w", err)
		}
	}
	return d, nil
}

// clientLoad is what the closed-loop clients measured, in ms, over
// successful sweeps.
type clientLoad struct {
	mu        sync.Mutex
	latencies []float64   // submit to result
	submits   []float64   // the POST alone
	results   []float64   // the result GET alone
	blocks    [][]float64 // latencies by the second of the load they completed in
	rejected  int         // submissions answered 429
}

// drive runs serveClients closed-loop clients against d until the
// deadline; each sends its next request only when the previous one has
// its result.
func (b *bench) drive(d *daemon, dur time.Duration) (*clientLoad, time.Duration) {
	load := &clientLoad{}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(m *mix) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req := singleSweep(m.next())
				s, err := d.sweep(req)
				if err == nil {
					err = b.checkDigest(digestLabel(req.Experiments, req.Metrics), s.body)
				}
				if err == nil {
					err = checkServeTraffic(s.instrs)
				}
				if !b.check("serve-mix sweep", err) {
					if errors.Is(err, errRejected) {
						load.mu.Lock()
						load.rejected++
						load.mu.Unlock()
					}
					continue
				}
				sec := int(time.Since(start) / time.Second)
				load.mu.Lock()
				for len(load.blocks) <= sec {
					load.blocks = append(load.blocks, nil)
				}
				load.blocks[sec] = append(load.blocks[sec], ms(s.total))
				load.latencies = append(load.latencies, ms(s.total))
				load.submits = append(load.submits, ms(s.submit))
				load.results = append(load.results, ms(s.result))
				load.mu.Unlock()
			}
		}(newMix(b.seed, c))
	}
	wg.Wait()
	return load, time.Since(start)
}

// serveMix is the sweep-service workload: a fresh daemon, warmed, under
// two closed-loop clients submitting single-experiment quick sweeps.
func (b *bench) serveMix() error {
	// The daemon keeps every finished job, so its memory grows with the
	// requests it serves; the peak that measures the simulator is the
	// one warm-up reaches, a median over the set-up rounds.
	var setup, rss []float64
	var d *daemon
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		var err error
		if d, err = b.warmDaemon(); err != nil {
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
		peak, err := peakRSSMB(d.cmd.Process.Pid)
		if err != nil {
			d.kill()
			return err
		}
		rss = append(rss, peak)
		if i < setupRounds-1 {
			b.check("daemon drain", d.stop())
		}
	}
	b.cleanup = append(b.cleanup, func() {
		select {
		case <-d.exited:
		default:
			d.kill()
		}
	})

	pid := d.cmd.Process.Pid
	cpu0, err := procCPUTime(pid)
	if err != nil {
		return err
	}
	steal0, total0 := hostCPU()
	load, wall := b.drive(d, b.seconds)
	steal := stealSince(steal0, total0)
	cpu1, err := procCPUTime(pid)
	if err != nil {
		return err
	}
	loadRSS, err := peakRSSMB(pid)
	if err != nil {
		return err
	}
	b.check("daemon drain", d.stop())

	n := len(load.latencies)
	if n == 0 {
		return errors.New("no serve-mix sweep succeeded")
	}
	b.set("setup_s", median(setup), "s")
	var blocks []float64
	for _, lat := range load.blocks {
		if len(lat) > 0 {
			blocks = append(blocks, median(lat))
		}
	}
	b.set("sweep_ms", quantile(blocks, quietQuantile), "ms")
	b.note("req_p50_ms", median(load.latencies), "ms", fmt.Sprintf("n=%d", n))
	if tailOK(n, 0.95) {
		b.note("req_p95_ms", quantile(load.latencies, 0.95), "ms", fmt.Sprintf("n=%d", n))
	}
	b.note("req_per_s", float64(n)/wall.Seconds(), "1/s", fmt.Sprintf("%d clients, closed loop", serveClients))
	b.note("cpu_ms", ms(cpu1-cpu0)/float64(n), "ms", "daemon CPU time per sweep")
	b.set("peak_rss_mb", median(rss), "MiB")
	b.note("host_steal_frac", steal, "ratio", "CPU time the hypervisor took during the load")
	b.note("peak_rss_after_load_mb", loadRSS, "MiB", "grows with requests served; the daemon retains every job")
	return nil
}
