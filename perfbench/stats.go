package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cisim/internal/api"
	"cisim/internal/exp"
	"cisim/internal/runner"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the two nearest ranks. xs need not be sorted;
// it is not modified. An empty input has no quantile: 0 is returned.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quietQuantile is the quantile of per-block figures a run reports as
// its typical sweep time: the lower quartile. A block is one sweep, or
// one second of daemon requests (their median). Shared hosts here have
// episodes of tens of seconds in which the hypervisor takes much of the
// CPU; a run partly inside one still reports its quiet blocks, so runs
// agree with each other and a regression is not hidden by host noise.
const quietQuantile = 0.25

// tailOK reports whether the q-quantile of n samples has at least ten
// samples beyond it, the condition for reporting it at all.
func tailOK(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// digestOf is the sha256 of a sweep's result JSON, hex encoded.
func digestOf(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// verifyDigest compares a result body with the committed digest for the
// request label (see digestLabel) and returns the body's digest.
func verifyDigest(digests map[string]string, label string, body []byte) (string, error) {
	got := digestOf(body)
	want, ok := digests[label]
	if !ok {
		return got, fmt.Errorf("no committed digest for %q", label)
	}
	if got != want {
		return got, fmt.Errorf("%s: result digest %s, committed %s", label, got[:12], want[:12])
	}
	return got, nil
}

// digestLabel names a sweep request in digests.json: the experiment id
// ("all", "detailed" for the twelve detailed experiments, or a single
// id), with "+metrics" appended when metrics are collected.
func digestLabel(experiments []string, metrics bool) string {
	label := strings.Join(experiments, ",")
	if len(experiments) == len(detailedExps) && label == strings.Join(detailedExps, ",") {
		label = "detailed"
	}
	if metrics {
		label += "+metrics"
	}
	return label
}

// resultJSON serializes a finished sweep exactly as `cisim run -json`
// and the daemon's result endpoint do.
func resultJSON(out *api.Output) ([]byte, error) {
	var buf bytes.Buffer
	if err := exp.WriteJSON(&buf, out.JSONResults()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sweepError reports a sweep whose outcomes are not all healthy.
func sweepError(out *api.Output) error {
	if out.Aborted {
		return fmt.Errorf("sweep aborted")
	}
	for _, oc := range out.Outcomes {
		if oc.Err != nil {
			return fmt.Errorf("%s: %w", oc.Exp.ID, oc.Err)
		}
	}
	return nil
}

// Detailed results in one quick `all` sweep: every (configuration,
// workload) pair the twelve detailed experiments simulate, deduplicated.
const quickAllResults = 140

// checkColdTraffic trips unless a sweep computed every detailed result
// and wrote each through to an empty store.
func checkColdTraffic(c runner.CacheStats) error {
	if c.ResultMisses != quickAllResults || c.StorePuts != quickAllResults || c.StoreHits != 0 {
		return fmt.Errorf("cold traffic: %d result misses, %d store puts, %d store hits; want %d, %d, 0",
			c.ResultMisses, c.StorePuts, c.StoreHits, quickAllResults, quickAllResults)
	}
	return nil
}

// checkWarmTraffic trips unless every detailed result came from the
// store and nothing was written.
func checkWarmTraffic(c runner.CacheStats) error {
	if c.StoreHits != quickAllResults || c.StorePuts != 0 {
		return fmt.Errorf("warm traffic: %d store hits, %d store puts; want %d, 0",
			c.StoreHits, c.StorePuts, quickAllResults)
	}
	return nil
}

// checkServeTraffic trips when a daemon sweep after warm-up simulated
// anything, which would mean it missed the artifact cache.
func checkServeTraffic(instrs uint64) error {
	if instrs != 0 {
		return fmt.Errorf("serve traffic: sweep simulated %d instructions after warm-up; want 0", instrs)
	}
	return nil
}

// detailedExps are the experiments built only from detailed (ooo)
// results, which the artifact cache memoizes; a warm daemon serves them
// without simulating. table1 and fig3 are left out: fig3's ideal-model
// runs are recomputed on every sweep.
var detailedExps = []string{"fig5", "fig6", "table2", "table3", "table4", "fig8",
	"fig9", "fig10", "fig12", "fig13", "fig14", "fig17"}

// mixReq is one serve-mix submission.
type mixReq struct {
	Exp     string
	Metrics bool
}

// mix generates one client's serve-mix request sequence from the seed:
// the seed fixes the share of requests with metrics on (25-50%) and each
// client's sequence of experiments.
type mix struct {
	rng   *rand.Rand
	share float64
}

func newMix(seed int64, client int) *mix {
	share := 0.25 + 0.25*rand.New(rand.NewSource(seed)).Float64()
	return &mix{rng: rand.New(rand.NewSource(seed*1009 + int64(client) + 1)), share: share}
}

func (m *mix) next() mixReq {
	return mixReq{Exp: detailedExps[m.rng.Intn(len(detailedExps))], Metrics: m.rng.Float64() < m.share}
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPUTime reads a process's user plus system CPU time from
// /proc/<pid>/stat, whose times are in USER_HZ (100 per second on
// Linux).
func procCPUTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// After the name: state is field 3 of the full line, utime 14, stime 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// resetPeakRSS restarts a process's VmHWM from its current resident set
// (Linux clear_refs 5); pid 0 means this process.
func resetPeakRSS(pid int) error {
	path := "/proc/self/clear_refs"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/clear_refs", pid)
	}
	return os.WriteFile(path, []byte("5"), 0)
}

// hostCPU reads the host's CPU time counters from /proc/stat: ticks the
// hypervisor stole from this machine's CPUs, and all ticks.
func hostCPU() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealSince is the share of host CPU time stolen since the counters
// hostCPU returned.
func stealSince(steal0, total0 float64) float64 {
	steal, total := hostCPU()
	if total <= total0 {
		return 0
	}
	return (steal - steal0) / (total - total0)
}

// peakRSSMB reads VmHWM, a process's peak resident set, in MiB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no VmHWM", path)
}
