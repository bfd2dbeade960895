package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"cisim/internal/api"
	"cisim/internal/exp"
	"cisim/internal/runner"
	"cisim/internal/store"
)

// setupRounds is how many times a run sets up, so setup_s is a median.
const setupRounds = 3

// minSweeps is the fewest timed sweeps a sweep workload makes, however
// short -seconds is.
const minSweeps = 3

// quickAll is a first-time `cisim run -quick all` on the two host CPUs.
func quickAll() api.SweepRequest {
	return api.SweepRequest{V: api.Version, Experiments: []string{"all"}, Quick: true, Jobs: 2}
}

// sweep is one finished in-process sweep.
type sweep struct {
	out    *api.Output
	body   []byte // result JSON
	wall   time.Duration
	alloc  uint64 // heap bytes allocated during the sweep
	cpu    time.Duration
	peakMB float64 // peak resident set during the sweep
}

// runSweep executes req in process over an emptied memory cache with st
// (nil for none) attached behind it, as a fresh `cisim run` process
// would: the previous sweep's artifacts are collected and their memory
// returned to the OS first, so every sweep starts from the same heap and
// resident set. Only api.Run is timed.
func runSweep(req api.SweepRequest, st *store.Store) (*sweep, error) {
	runner.Artifacts.Reset()
	runner.Artifacts.SetStore(st)
	defer runner.Artifacts.SetStore(nil)
	debug.FreeOSMemory()
	if err := resetPeakRSS(0); err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	out, err := api.Run(context.Background(), &req, api.RunOptions{})
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	peak, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	s := &sweep{out: out, wall: wall, alloc: m1.TotalAlloc - m0.TotalAlloc, cpu: cpu, peakMB: peak}
	if err := sweepError(out); err != nil {
		return s, err
	}
	s.body, err = resultJSON(out)
	return s, err
}

// verify checks a sweep's output digest and its cache and store traffic.
func (b *bench) verify(req api.SweepRequest, s *sweep, traffic func(runner.CacheStats) error) error {
	if err := b.checkDigest(digestLabel(req.Experiments, req.Metrics), s.body); err != nil {
		return err
	}
	return traffic(s.out.Summary.Cache)
}

// openStore opens a fresh, empty persistent store in the run's scratch
// directory; release closes and removes it.
func (b *bench) openStore() (st *store.Store, release func(), err error) {
	dir, err := os.MkdirTemp(b.work, "store-")
	if err != nil {
		return nil, nil, err
	}
	st, err = store.Open(store.Config{Dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return st, func() { st.Close(); os.RemoveAll(dir) }, nil
}

// fillStore is the sweep workloads' set-up: a fresh store filled by one
// cold sweep.
func (b *bench) fillStore() (st *store.Store, release func(), err error) {
	st, release, err = b.openStore()
	if err != nil {
		return nil, nil, err
	}
	req := quickAll()
	s, err := runSweep(req, st)
	if err == nil {
		err = b.verify(req, s, checkColdTraffic)
	}
	if !b.check("set-up sweep", err) {
		release()
		return nil, nil, fmt.Errorf("set-up sweep failed: %w", err)
	}
	return st, release, nil
}

// sweepWorkload runs cold-sweep (warm false: every sweep over a fresh,
// empty store) or warm-store (every sweep over the store set-up filled),
// each sweep over an emptied memory cache.
func (b *bench) sweepWorkload(warm bool) error {
	var setup []float64
	var filled *store.Store
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		st, release, err := b.fillStore()
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
		if warm && i == setupRounds-1 {
			filled = st
			b.cleanup = append(b.cleanup, release)
		} else {
			release()
		}
	}

	req := quickAll()
	var walls, rss []float64
	var busy, cpu time.Duration
	var alloc uint64
	steal0, total0 := hostCPU()
	deadline := time.Now().Add(b.seconds)
	for tried := 0; tried < minSweeps || time.Now().Before(deadline); tried++ {
		st, traffic := filled, checkWarmTraffic
		closeStore := func() {}
		if !warm {
			var err error
			if st, closeStore, err = b.openStore(); err != nil {
				return err
			}
			traffic = checkColdTraffic
		}
		s, err := runSweep(req, st)
		closeStore()
		if err == nil {
			err = b.verify(req, s, traffic)
		}
		if !b.check("timed sweep", err) {
			continue
		}
		walls = append(walls, ms(s.wall))
		rss = append(rss, s.peakMB)
		busy += s.wall
		cpu += s.cpu
		alloc += s.alloc
	}
	if len(walls) == 0 {
		return fmt.Errorf("no sweep succeeded")
	}
	n := float64(len(walls))
	steal := stealSince(steal0, total0)
	b.text(fmt.Sprintf("set-up s %.4g; sweeps ms %.5g", setup, walls))
	b.set("setup_s", median(setup), "s")
	b.set("sweep_ms", quantile(walls, quietQuantile), "ms")
	b.note("sweep_s", median(walls)/1000, "s", fmt.Sprintf("median of %d sweeps", len(walls)))
	b.note("sweeps_per_s", n/busy.Seconds(), "1/s", "")
	b.note("cpu_ms", ms(cpu)/n, "ms", "CPU time per sweep")
	b.note("alloc_mb", float64(alloc)/n/(1<<20), "MiB", "Go heap allocated per sweep")
	b.set("peak_rss_mb", median(rss), "MiB")
	b.note("host_steal_frac", steal, "ratio", "CPU time the hypervisor took during the timed sweeps")
	return nil
}

// recordDigests writes the sha256 of every sweep result the benchmark
// checks: `all`, the twelve detailed experiments together and each
// alone, with and without metrics. Run it on the commit whose outputs
// define correctness.
func recordDigests(path string) error {
	sets := [][]string{{"all"}, detailedExps}
	for _, id := range detailedExps {
		sets = append(sets, []string{id})
	}
	digests := map[string]string{}
	for _, ids := range sets {
		if _, err := exp.Resolve(ids); err != nil {
			return err
		}
		for _, metrics := range []bool{false, true} {
			req := quickAll()
			req.Experiments, req.Metrics = ids, metrics
			s, err := runSweep(req, nil)
			if err != nil {
				return fmt.Errorf("%v: %w", ids, err)
			}
			digests[digestLabel(ids, metrics)] = digestOf(s.body)
		}
	}
	data, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
