package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/serve"
)

// streams returns the first n generated bodies of every seeded input.
func streams(t *testing.T, seed uint64) map[string][][]byte {
	t.Helper()
	out := map[string][][]byte{}
	for _, name := range []string{"cold", "fresh", "warm"} {
		p, err := newAPIPlan(name, seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range append(append(append([]*call{}, p.perReplica...), p.once...), p.workingSet...) {
			out[name] = append(out[name], c.body)
		}
		for i := 0; i < 200; i++ {
			c, body, err := p.next(i)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if k, ok := serve.CanonicalShardKey("POST", c.route, body); !ok || k != c.key {
				t.Fatalf("%s request %d does not canonicalize to its key: %s", name, i, body)
			}
			out[name] = append(out[name], body)
		}
	}
	study, err := os.ReadFile("study.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := studyFor(study, seed)
	if err != nil {
		t.Fatal(err)
	}
	out["campaign"] = [][]byte{cfg}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	a, again, other := streams(t, 7), streams(t, 7), streams(t, 8)
	for name, bodies := range a {
		if !equalBodies(bodies, again[name]) {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		if equalBodies(bodies, other[name]) {
			t.Errorf("%s: another seed generated the same inputs", name)
		}
	}
}

func equalBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// heldOutSeed was not used while the benchmark was tuned; README.md
// records its numbers beside the tuning seeds'.
const heldOutSeed = 20261017

// TestClassMixFixed checks that the seed varies parameters, not the
// share of each request class: the held-out seed's class mix matches.
func TestClassMixFixed(t *testing.T) {
	mix := func(name string, seed uint64) map[string]int {
		p, err := newAPIPlan(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]int{}
		for i := 0; i < 400; i++ {
			c, _, err := p.next(i)
			if err != nil {
				t.Fatal(err)
			}
			m[c.class]++
		}
		return m
	}
	for _, name := range []string{"cold", "fresh"} {
		a, b := mix(name, 1), mix(name, heldOutSeed)
		if len(a) != len(b) {
			t.Fatalf("%s: classes %v vs %v", name, a, b)
		}
		for k, v := range a {
			if b[k] != v {
				t.Errorf("%s: class %s has %d requests under one seed, %d under another", name, k, v, b[k])
			}
		}
	}
}

func TestColdRequestsAreDistinctMisses(t *testing.T) {
	calls, err := coldStream(3)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	pairs := map[[2]any]bool{}
	for _, c := range calls {
		if keys[c.key] {
			t.Fatalf("duplicate key %s", c.body)
		}
		keys[c.key] = true
		if c.pred != nil {
			p := [2]any{c.pred.Workload, c.pred.Slaves}
			if pairs[p] {
				t.Fatalf("predict reuses calibration pair %v", p)
			}
			pairs[p] = true
		}
	}
}

func TestTailRule(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v (ok %v), want 90 at p90", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
	if v, pct, ok := tail(xs[:11]); !ok || v != 90 || pct != 100*1.0/11 {
		t.Fatalf("tail of 11 samples = %v at p%v (ok %v), want their smallest", v, pct, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Fatal("10 samples cannot have 10 beyond any percentile")
	}
}

func TestMedianAndNearestRank(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if q := nearestRank([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9); q != 9 {
		t.Errorf("p90 = %v", q)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 120 * ms},
		{name: "cluster", parent: 0, start: 10 * ms, end: 110 * ms},
		{name: "serve", parent: 1, start: 20 * ms, end: 50 * ms},
		{name: "serve", parent: 1, start: 40 * ms, end: 70 * ms},   // overlaps the first
		{name: "serve", parent: 1, start: 100 * ms, end: 130 * ms}, // ends past the parent
		{name: "core.calibrate", parent: 2, end: 12 * ms, derived: true},
		{name: "core.predict", parent: 2, end: 25 * ms, derived: true}, // more than is left
	}
	self := selfTimes(spans)
	want := []time.Duration{
		120*ms - 100*ms,        // op minus cluster
		100*ms - 50*ms - 10*ms, // cluster minus the union 20–70 and the clipped 100–110
		0,                      // 30 ms minus 37 ms of derived children, clamped
		30 * ms, 30 * ms, 12 * ms, 25 * ms,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].name, self[i], want[i])
		}
	}
}

func TestDealerStratifiesPrefixes(t *testing.T) {
	d := newDealer(1, 7, 2)
	seen := map[int]bool{}
	for k := 0; k < 128; k++ {
		v, ok := d.deal(1)
		if !ok || v < 129 || v > 256 || seen[v] {
			t.Fatalf("deal %d = %d (ok %v): outside stratum 1 or repeated", k, v, ok)
		}
		seen[v] = true
		if k == 7 { // the first 8 deals hit each eighth of the stratum once
			eighths := map[int]bool{}
			for x := range seen {
				eighths[(x-129)/16] = true
			}
			if len(eighths) != 8 {
				t.Fatalf("first 8 deals cover %d eighths", len(eighths))
			}
		}
	}
	if _, ok := d.deal(1); ok {
		t.Fatal("stratum not used up after 128 deals")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	type m struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEndMetrics) || len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the command %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, x := range endToEndMetrics {
		if b.EndToEnd[i] != (m{x.name, x.unit}) {
			t.Errorf("end_to_end[%d] = %v, command prints %v", i, b.EndToEnd[i], x)
		}
	}
	for i, x := range perLayerMetrics {
		if b.PerLayer[i] != (m{x.name, x.unit}) {
			t.Errorf("per_layer[%d] = %v, command prints %v", i, b.PerLayer[i], x)
		}
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d = %s, command runs %s", i, w.Name, workloadNames[i])
		}
	}
}

// TestHostScaled checks the conversion to the nominal host speed: times
// are divided by the host factor, the rate multiplied by it, and the
// other metrics pass through.
func TestHostScaled(t *testing.T) {
	raw := map[string]float64{"setup_s": 2, "latency_p50_ms": 10, "latency_tail_ms": 40,
		"throughput_per_s": 100, "peak_rss_mb": 50, "model_err_p90_pct": 5}
	want := map[string]float64{"setup_s": 1, "latency_p50_ms": 5, "latency_tail_ms": 20,
		"throughput_per_s": 200, "peak_rss_mb": 50, "model_err_p90_pct": 5}
	got := hostScaled(raw, 2)
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: got %v, want %v", k, got[k], v)
		}
	}
}

// TestPointLine checks that a campaign progress line yields the point's
// name and the time the run reports for it.
func TestPointLine(t *testing.T) {
	for _, c := range []struct{ line, name, ms string }{
		{"# point 3/64 sql/n4/p8/hdd/h2/q0.05/x1/s9 total=1.2min (15ms)", "sql/n4/p8/hdd/h2/q0.05/x1/s9", "15"},
		{"# point 64/64 svm/n7/p8/ssd/q0/x1/s3 FAILED: task aborted (2ms)", "svm/n7/p8/ssd/q0/x1/s3", "2"},
	} {
		m := pointLineRE.FindStringSubmatch(c.line)
		if m == nil || m[1] != c.name || m[2] != c.ms {
			t.Errorf("%s: got %q, want name %q and %q ms", c.line, m, c.name, c.ms)
		}
	}
}
