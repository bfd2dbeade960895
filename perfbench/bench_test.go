package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"cisim/internal/runner"
)

func TestQuantile(t *testing.T) {
	seq := make([]float64, 21)
	for i := range seq {
		seq[i] = float64(21 - i) // 21..1, unsorted on purpose
	}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{1, 2, 3, 4}, 1, 4},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{seq, 0.95, 20},
		{[]float64{5}, 0.95, 5},
		{nil, 0.5, 0},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if seq[0] != 21 {
		t.Error("quantile sorted its input in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !tailOK(200, 0.95) || tailOK(199, 0.95) {
		t.Error("tailOK must need ten samples beyond the percentile")
	}
}

func TestDigestRejectsOneByteChange(t *testing.T) {
	body := []byte(`[{"id":"fig5","tables":[]}]` + "\n")
	digests := map[string]string{"fig5": digestOf(body)}
	if _, err := verifyDigest(digests, "fig5", body); err != nil {
		t.Fatalf("unchanged body rejected: %v", err)
	}
	for i := range body {
		changed := slices.Clone(body)
		changed[i] ^= 1
		if _, err := verifyDigest(digests, "fig5", changed); err == nil {
			t.Fatalf("body with byte %d changed was accepted", i)
		}
	}
	if _, err := verifyDigest(digests, "fig6", body); err == nil {
		t.Error("a label without a committed digest was accepted")
	}
}

func TestCommittedDigestsCoverEveryRequest(t *testing.T) {
	var digests map[string]string
	if err := json.Unmarshal(digestsJSON, &digests); err != nil {
		t.Fatal(err)
	}
	labels := []string{digestLabel([]string{"all"}, false), digestLabel([]string{"all"}, true),
		digestLabel(detailedExps, false), digestLabel(detailedExps, true)}
	for _, id := range detailedExps {
		labels = append(labels, digestLabel([]string{id}, false), digestLabel([]string{id}, true))
	}
	for _, label := range labels {
		if len(digests[label]) != 64 {
			t.Errorf("no sha256 digest for %q", label)
		}
	}
	if len(digests) != len(labels) {
		t.Errorf("%d committed digests, %d requests use them", len(digests), len(labels))
	}
	if got := digestLabel(detailedExps, true); got != "detailed+metrics" {
		t.Errorf("label of the detailed set with metrics = %q", got)
	}
}

func TestMixSeeded(t *testing.T) {
	seq := func(seed int64, client int) []mixReq {
		m := newMix(seed, client)
		out := make([]mixReq, 300)
		for i := range out {
			out[i] = m.next()
		}
		return out
	}
	a := seq(7, 0)
	if !slices.Equal(a, seq(7, 0)) {
		t.Error("the same seed gave different request sequences")
	}
	if slices.Equal(a, seq(8, 0)) {
		t.Error("different seeds gave the same request sequence")
	}
	if slices.Equal(a, seq(7, 1)) {
		t.Error("two clients got the same request sequence")
	}
	var metrics int
	exps := map[string]bool{}
	for _, r := range a {
		if !slices.Contains(detailedExps, r.Exp) {
			t.Fatalf("request for %q, not a detailed experiment", r.Exp)
		}
		exps[r.Exp] = true
		if r.Metrics {
			metrics++
		}
	}
	if len(exps) != len(detailedExps) {
		t.Errorf("300 requests covered %d of %d experiments", len(exps), len(detailedExps))
	}
	for seed := int64(0); seed < 50; seed++ {
		if s := newMix(seed, 0).share; s < 0.25 || s > 0.5 {
			t.Errorf("seed %d: metrics share %v outside [0.25, 0.5]", seed, s)
		}
	}
	if metrics == 0 || metrics == len(a) {
		t.Errorf("%d of %d requests with metrics; want a mix", metrics, len(a))
	}
}

func TestTrafficChecks(t *testing.T) {
	cold := runner.CacheStats{ResultMisses: quickAllResults, StorePuts: quickAllResults}
	warm := runner.CacheStats{StoreHits: quickAllResults}
	if err := checkColdTraffic(cold); err != nil {
		t.Errorf("cold sweep traffic rejected: %v", err)
	}
	if err := checkWarmTraffic(warm); err != nil {
		t.Errorf("warm sweep traffic rejected: %v", err)
	}
	// A cold run that hit the store, or a memory cache left warm.
	if checkColdTraffic(warm) == nil {
		t.Error("cold check accepted a run served from the store")
	}
	if checkColdTraffic(runner.CacheStats{ResultHits: quickAllResults}) == nil {
		t.Error("cold check accepted a run served from memory")
	}
	// A warm run that silently went cold, or one that wrote.
	if checkWarmTraffic(cold) == nil {
		t.Error("warm check accepted a run that simulated")
	}
	if checkWarmTraffic(runner.CacheStats{StoreHits: quickAllResults, StorePuts: 1}) == nil {
		t.Error("warm check accepted a run that wrote to the store")
	}
	if err := checkServeTraffic(0); err != nil {
		t.Errorf("cache-hit daemon sweep rejected: %v", err)
	}
	if checkServeTraffic(40_000) == nil {
		t.Error("serve check accepted a sweep that simulated")
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", got, perLayer)
	}
}
