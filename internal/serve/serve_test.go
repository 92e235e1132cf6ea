package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden response files")

// newTestServer builds a Server with test-friendly defaults; mutate cfg
// via fn before construction.
func newTestServer(t *testing.T, fn func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Addr:           "127.0.0.1:0",
		MaxInFlight:    16,
		RequestTimeout: 30 * time.Second,
		CacheEntries:   128,
	}
	if fn != nil {
		fn(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func post(t *testing.T, h http.Handler, route, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", route, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, route string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", route, nil))
	return rec
}

// checkGolden compares a response body against testdata/<name>.golden,
// rewriting it under -update.
func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/serve -run %s -update`): %v", t.Name(), err)
	}
	if !bytes.Equal(want, body) {
		t.Errorf("response differs from %s\ngot:  %s\nwant: %s", path, body, want)
	}
}

func TestWorkloadsRoute(t *testing.T) {
	s := newTestServer(t, nil)
	rec := get(t, s.Handler(), "/api/v1/workloads")
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var resp WorkloadsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Workloads) < 5 {
		t.Errorf("only %d workloads listed", len(resp.Workloads))
	}
	checkGolden(t, "workloads", rec.Body.Bytes())
}

func TestPredictRoute(t *testing.T) {
	s := newTestServer(t, nil)
	body := `{"workload":"lr-small","slaves":3,"cores":8,"hdfs":"ssd","local":"hdd"}`
	rec := post(t, s.Handler(), "/api/v1/predict", body)
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TotalSeconds <= 0 || len(resp.Stages) == 0 {
		t.Errorf("implausible prediction: %+v", resp)
	}
	if resp.Mode != "doppio" || resp.Slaves != 3 || resp.Cores != 8 {
		t.Errorf("canonical echo wrong: %+v", resp)
	}
	checkGolden(t, "predict_lr_small", rec.Body.Bytes())
}

func TestPredictSingleStage(t *testing.T) {
	s := newTestServer(t, nil)
	full := post(t, s.Handler(), "/api/v1/predict", `{"workload":"sql","slaves":3,"cores":8}`)
	if full.Code != 200 {
		t.Fatalf("status = %d: %s", full.Code, full.Body)
	}
	var fullResp PredictResponse
	if err := json.Unmarshal(full.Body.Bytes(), &fullResp); err != nil {
		t.Fatal(err)
	}
	stage := fullResp.Stages[0].Name
	rec := post(t, s.Handler(), "/api/v1/predict",
		fmt.Sprintf(`{"workload":"sql","slaves":3,"cores":8,"stage":%q}`, stage))
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Stages) != 1 || resp.Stages[0].Name != stage {
		t.Errorf("stage filter returned %+v, want only %q", resp.Stages, stage)
	}
	if resp.TotalSeconds != resp.Stages[0].Seconds {
		t.Errorf("single-stage total %v != stage seconds %v", resp.TotalSeconds, resp.Stages[0].Seconds)
	}

	missing := post(t, s.Handler(), "/api/v1/predict",
		`{"workload":"sql","slaves":3,"cores":8,"stage":"no-such-stage"}`)
	if missing.Code != 500 {
		t.Errorf("unknown stage status = %d, want 500", missing.Code)
	}
}

func TestPredictFaulty(t *testing.T) {
	s := newTestServer(t, nil)
	body := `{"workload":"lr-small","slaves":3,"cores":8,"hdfs":"ssd","local":"hdd",
		"faults":{"task_failure_prob":0.05,"shuffle_fetch_failure_prob":0.05}}`
	rec := post(t, s.Handler(), "/api/v1/predict", body)
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Inflation <= 1 {
		t.Errorf("faulty inflation = %v, want > 1", resp.Inflation)
	}
	if resp.BaseSeconds <= 0 || resp.TotalSeconds <= resp.BaseSeconds {
		t.Errorf("faulty total %v should exceed base %v", resp.TotalSeconds, resp.BaseSeconds)
	}
}

func TestSimulateRoute(t *testing.T) {
	s := newTestServer(t, nil)
	rec := post(t, s.Handler(), "/api/v1/simulate", `{"workload":"sql","slaves":3,"cores":8}`)
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TotalSeconds <= 0 || len(resp.Stages) == 0 {
		t.Errorf("implausible simulation: %+v", resp)
	}
	if resp.Faults != nil {
		t.Errorf("fault-free run reported faults: %+v", resp.Faults)
	}
	checkGolden(t, "simulate_sql", rec.Body.Bytes())

	faulty := post(t, s.Handler(), "/api/v1/simulate",
		`{"workload":"sql","slaves":3,"cores":8,"faults":{"task_failure_prob":0.05,"max_task_failures":10,"seed":7}}`)
	if faulty.Code != 200 {
		t.Fatalf("faulty status = %d: %s", faulty.Code, faulty.Body)
	}
	var fresp SimulateResponse
	if err := json.Unmarshal(faulty.Body.Bytes(), &fresp); err != nil {
		t.Fatal(err)
	}
	if fresp.Faults == nil || fresp.Faults.TaskFailures == 0 {
		t.Errorf("injected faults not reported: %+v", fresp.Faults)
	}
}

func TestWhatifRoutes(t *testing.T) {
	s := newTestServer(t, nil)
	rec := post(t, s.Handler(), "/api/v1/whatif",
		`{"workload":"lr-small","slaves":3,"max_cores":16}`)
	if rec.Code != 200 {
		t.Fatalf("model status = %d: %s", rec.Code, rec.Body)
	}
	var resp WhatifResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 5 { // 1,2,4,8,16
		t.Errorf("model backend returned %d points, want 5", len(resp.Points))
	}
	if resp.Points[0].Bottlenecks == nil {
		t.Errorf("model backend should report bottlenecks")
	}

	sim := post(t, s.Handler(), "/api/v1/whatif",
		`{"workload":"sql","slaves":3,"max_cores":8,"backend":"sim"}`)
	if sim.Code != 200 {
		t.Fatalf("sim status = %d: %s", sim.Code, sim.Body)
	}
	var simResp WhatifResponse
	if err := json.Unmarshal(sim.Body.Bytes(), &simResp); err != nil {
		t.Fatal(err)
	}
	if len(simResp.Points) != 4 { // 1,2,4,8
		t.Errorf("sim backend returned %d points, want 4", len(simResp.Points))
	}
	if simResp.Points[0].Bottlenecks != nil {
		t.Errorf("sim backend should not report Eq.1 bottlenecks")
	}
	if simResp.Points[0].TotalSeconds <= simResp.Points[len(simResp.Points)-1].TotalSeconds {
		t.Errorf("more cores should not be slower at small P: %+v", simResp.Points)
	}
}

func TestRecommendRoute(t *testing.T) {
	if testing.Short() {
		t.Skip("grid search over the full cloud space")
	}
	s := newTestServer(t, nil)
	rec := post(t, s.Handler(), "/api/v1/recommend", `{"workload":"lr-small","slaves":3,"top":3}`)
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var resp RecommendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Best) != 3 {
		t.Errorf("got %d candidates, want 3", len(resp.Best))
	}
	if len(resp.References) != 2 {
		t.Errorf("got %d references, want 2 (R1, R2)", len(resp.References))
	}
	for i := 1; i < len(resp.Best); i++ {
		if resp.Best[i].CostUSD < resp.Best[i-1].CostUSD {
			t.Errorf("candidates not sorted by cost: %+v", resp.Best)
		}
	}
	if resp.Evaluated != resp.SpaceSize || resp.Pruned != 0 {
		t.Errorf("unconstrained search: evaluated=%d pruned=%d, want %d/0",
			resp.Evaluated, resp.Pruned, resp.SpaceSize)
	}
}

// recommendGoldens are the recommend requests TestRecommendGolden pins.
var recommendGoldens = []struct{ name, body string }{
	{"recommend_sql_heap_deadline", `{"workload":"sql","slaves":10,"top":5,"deadline_minutes":4,"heap_gbs":[0.5,2,7.5,32]}`},
	{"recommend_lr_small", `{"workload":"lr-small","slaves":3,"top":3}`},
}

// TestRecommendGolden pins recommend responses byte for byte: one
// request with a heap axis and a binding deadline (the pruned,
// memory-aware search) and one with neither (the full grid). A
// calibration's evaluator outlives the request, so the subtests demand
// the same bytes from a long-lived one: after other recommends have
// used it, from goroutines racing on it, and after the calibration has
// been evicted and its evaluator rebuilt.
func TestRecommendGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("grid search over the full cloud space")
	}
	s := newTestServer(t, nil)
	for _, tc := range recommendGoldens {
		rec := post(t, s.Handler(), "/api/v1/recommend", tc.body)
		if rec.Code != 200 {
			t.Fatalf("%s: status = %d: %s", tc.name, rec.Code, rec.Body)
		}
		checkGolden(t, tc.name, rec.Body.Bytes())
	}

	t.Run("after-other-recommends", func(t *testing.T) {
		s := newTestServer(t, nil)
		heaps := []string{"", `,"heap_gbs":[1,4]`, `,"heap_gbs":[0.5,2,7.5,32]`, `,"heap_gbs":[3,6,12,24]`}
		for i := 0; i < 24; i++ {
			deadline := ""
			if i%3 == 0 {
				deadline = fmt.Sprintf(`,"deadline_minutes":%d`, 2+i)
			}
			for _, w := range []string{"sql", "lr-small"} {
				body := fmt.Sprintf(`{"workload":%q,"slaves":%d,"top":%d%s%s}`, w, 2+5*i, 1+i%12, deadline, heaps[i%len(heaps)])
				if rec := post(t, s.Handler(), "/api/v1/recommend", body); rec.Code != 200 {
					t.Fatalf("%s: status = %d: %s", body, rec.Code, rec.Body)
				}
			}
		}
		for _, tc := range recommendGoldens {
			rec := post(t, s.Handler(), "/api/v1/recommend", tc.body)
			if rec.Code != 200 {
				t.Fatalf("%s: status = %d: %s", tc.name, rec.Code, rec.Body)
			}
			checkGolden(t, tc.name, rec.Body.Bytes())
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		// computeRecommend bypasses the result cache, which would let one
		// goroutine compute each golden while the others wait: here every
		// goroutine searches on the shared evaluator, first uses included.
		s := newTestServer(t, nil)
		reqs := make([]RecommendRequest, len(recommendGoldens))
		for i, tc := range recommendGoldens {
			if err := json.Unmarshal([]byte(tc.body), &reqs[i]); err != nil {
				t.Fatal(err)
			}
			if err := reqs[i].normalize(); err != nil {
				t.Fatal(err)
			}
		}
		const goroutines = 8
		bodies := make([][][]byte, goroutines)
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bodies[g] = make([][]byte, len(reqs))
				for k := range reqs {
					i := (g + k) % len(reqs)
					if bodies[g][i], errs[g] = s.computeRecommend(reqs[i]); errs[g] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		for g := 0; g < goroutines; g++ {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			for i, tc := range recommendGoldens {
				checkGolden(t, tc.name, bodies[g][i])
			}
		}
	})

	t.Run("evicted-calibration", func(t *testing.T) {
		// Two entries: each recommend's calibration and result push the
		// previous workload's out.
		s := newTestServer(t, func(c *Config) { c.CacheEntries = 2 })
		first, last := recommendGoldens[0], recommendGoldens[len(recommendGoldens)-1]
		rec := post(t, s.Handler(), "/api/v1/recommend", first.body)
		if rec.Code != 200 {
			t.Fatalf("%s: status = %d: %s", first.name, rec.Code, rec.Body)
		}
		before := s.cloudEvals["sql"]
		if rec := post(t, s.Handler(), "/api/v1/recommend", last.body); rec.Code != 200 {
			t.Fatalf("%s: status = %d: %s", last.name, rec.Code, rec.Body)
		}
		rec = post(t, s.Handler(), "/api/v1/recommend", first.body)
		if rec.Code != 200 {
			t.Fatalf("%s: status = %d: %s", first.name, rec.Code, rec.Body)
		}
		if after := s.cloudEvals["sql"]; after.cal == before.cal || after.eval == before.eval {
			t.Fatal("the sql calibration was not rebuilt, or its evaluator was kept")
		}
		checkGolden(t, first.name, rec.Body.Bytes())
	})
}

// TestRecommendHeapOrderSharesEntry checks heap_gbs is keyed as a set:
// the order of its values changes neither the answer nor the cache
// entry.
func TestRecommendHeapOrderSharesEntry(t *testing.T) {
	s := newTestServer(t, nil)
	a := post(t, s.Handler(), "/api/v1/recommend", `{"workload":"lr-small","slaves":3,"top":3,"heap_gbs":[2,4]}`)
	b := post(t, s.Handler(), "/api/v1/recommend", `{"workload":"lr-small","slaves":3,"top":3,"heap_gbs":[4,2]}`)
	if a.Code != 200 || b.Code != 200 {
		t.Fatalf("status = %d, %d", a.Code, b.Code)
	}
	if a.Body.String() != b.Body.String() {
		t.Errorf("heap order changed the answer:\n%s\n%s", a.Body, b.Body)
	}
	if got := b.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("reordered heap_gbs: X-Cache = %q, want hit", got)
	}
}

// TestRecommendDeadline exercises the pruned search path: a deadline at
// the best candidate's own runtime keeps at least one feasible
// configuration while pruning part of the space, every returned
// candidate respects the bound, and the accounting always closes
// (evaluated + pruned == space_size).
func TestRecommendDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("grid search over the full cloud space")
	}
	s := newTestServer(t, nil)
	rec := post(t, s.Handler(), "/api/v1/recommend", `{"workload":"lr-small","slaves":3,"top":3}`)
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var free RecommendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &free); err != nil {
		t.Fatal(err)
	}
	deadline := free.Best[0].TimeMinutes
	rec = post(t, s.Handler(), "/api/v1/recommend", fmt.Sprintf(
		`{"workload":"lr-small","slaves":3,"top":3,"deadline_minutes":%g}`, deadline))
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var resp RecommendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Best) == 0 {
		t.Fatal("deadline at a feasible runtime returned no candidates")
	}
	for _, c := range resp.Best {
		if c.TimeMinutes > deadline {
			t.Errorf("candidate %+v exceeds deadline %g min", c, deadline)
		}
	}
	if resp.Evaluated+resp.Pruned != resp.SpaceSize {
		t.Errorf("accounting: %d evaluated + %d pruned != %d", resp.Evaluated, resp.Pruned, resp.SpaceSize)
	}
	if resp.Pruned == 0 {
		t.Error("binding deadline pruned nothing")
	}
	if s.optEvaluated.Value() == 0 || s.optPruned.Value() == 0 {
		t.Errorf("optimizer counters not advanced: evaluated=%d pruned=%d",
			s.optEvaluated.Value(), s.optPruned.Value())
	}
}

func TestSweepRoute(t *testing.T) {
	s := newTestServer(t, nil)
	rec := post(t, s.Handler(), "/api/v1/sweep", `{
		"workloads":["lr-small"],
		"nodes":[3],
		"cores":[4,8],
		"devices":[{"hdfs":"ssd","local":"ssd"},{"hdfs":"ssd","local":"hdd"}]}`)
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(resp.Points))
	}
	for _, p := range resp.Points {
		if p.Err != "" || p.TotalSeconds <= 0 {
			t.Errorf("bad point: %+v", p)
		}
		if p.Bottleneck == "" {
			t.Errorf("point missing bottleneck: %+v", p)
		}
	}
	// Row-major grid order: cores vary before devices in Grid.Points.
	if resp.Points[0].Cores != 4 || resp.Points[0].Local != "ssd" ||
		resp.Points[1].Local != "hdd" || resp.Points[2].Cores != 8 {
		t.Errorf("points not in row-major grid order: %+v", resp.Points)
	}
	if got := s.sweepPoints.Value(); got != 4 {
		t.Errorf("doppio_sweep_points_total = %d, want 4", got)
	}
}

// TestMalformedBodies asserts every POST route answers 400 (not 500, not
// a hang) to the standard abuse: syntactically broken JSON, unknown
// fields, missing workload, bad devices, bad enum values, out-of-range
// numbers.
func TestMalformedBodies(t *testing.T) {
	s := newTestServer(t, nil)
	routes := []string{"/api/v1/predict", "/api/v1/simulate", "/api/v1/whatif", "/api/v1/recommend", "/api/v1/sweep"}
	common := []string{
		`{`,                      // truncated JSON
		`[]`,                     // wrong JSON kind
		`{"workload":"sql"}}`,    // trailing garbage
		`{"wrokload":"sql"}`,     // unknown field (typo)
		`{}`,                     // missing workload(s)
		`{"workload":"no-such"}`, // unregistered workload
	}
	perRoute := map[string][]string{
		"/api/v1/predict": {
			`{"workload":"sql","hdfs":"floppy"}`,
			`{"workload":"sql","mode":"ernest"}`,
			`{"workload":"sql","slaves":-1}`,
			`{"workload":"sql","faults":{"task_failure_prob":1.5}}`,
		},
		"/api/v1/simulate": {
			`{"workload":"sql","stragglers":2}`,
			`{"workload":"sql","local":"pd-ssd:0GB"}`,
		},
		"/api/v1/whatif": {
			`{"workload":"sql","max_cores":-4}`,
			`{"workload":"sql","backend":"crystal-ball"}`,
		},
		"/api/v1/recommend": {
			`{"workload":"sql","top":999}`,
		},
		"/api/v1/sweep": {
			`{"workloads":["sql"],"nodes":[0]}`,
			`{"workloads":["sql"],"devices":[{"hdfs":"tape","local":"ssd"}]}`,
		},
	}
	for _, route := range routes {
		bodies := common
		if route == "/api/v1/sweep" {
			// sweep uses "workloads"; its missing/unknown cases are below.
			bodies = []string{`{`, `[]`, `{"workloads":["sql"]}}`, `{"wrokloads":["sql"]}`, `{}`, `{"workloads":["no-such"]}`}
		}
		for _, body := range append(bodies, perRoute[route]...) {
			rec := post(t, s.Handler(), route, body)
			if rec.Code != 400 {
				t.Errorf("%s with %q: status = %d, want 400 (%s)", route, body, rec.Code, rec.Body)
			}
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("%s with %q: error body not structured: %s", route, body, rec.Body)
			}
		}
	}
}

// TestCacheHitByteIdentical asserts the caching contract: the second
// identical request is a hit and replays the exact same bytes, and a
// semantically identical body (different field order, defaults spelled
// out) shares the entry.
func TestCacheHitByteIdentical(t *testing.T) {
	s := newTestServer(t, nil)
	body := `{"workload":"lr-small","slaves":3,"cores":8}`
	first := post(t, s.Handler(), "/api/v1/predict", body)
	if first.Code != 200 {
		t.Fatalf("status = %d: %s", first.Code, first.Body)
	}
	if h := first.Header().Get("X-Cache"); h != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", h)
	}
	second := post(t, s.Handler(), "/api/v1/predict", body)
	if second.Code != 200 {
		t.Fatalf("status = %d: %s", second.Code, second.Body)
	}
	if h := second.Header().Get("X-Cache"); h != "hit" {
		t.Errorf("second request X-Cache = %q, want hit", h)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Errorf("cache hit not byte-identical:\n%s\n%s", first.Body, second.Body)
	}
	// Same question, different spelling: field order changed, defaults
	// explicit, whitespace added.
	respelled := post(t, s.Handler(), "/api/v1/predict",
		` {"cores": 8, "slaves": 3, "local": "ssd", "hdfs": "ssd", "mode": "doppio", "workload": "lr-small"} `)
	if h := respelled.Header().Get("X-Cache"); h != "hit" {
		t.Errorf("canonicalized request X-Cache = %q, want hit", h)
	}
	if !bytes.Equal(first.Body.Bytes(), respelled.Body.Bytes()) {
		t.Errorf("canonicalized hit not byte-identical")
	}
	stats := s.CacheStats()
	if stats.Hits < 2 {
		t.Errorf("stats.Hits = %d, want >= 2", stats.Hits)
	}
}

// TestRequestTimeout503 asserts a request whose computation outlives the
// per-request deadline gets a 503 and a structured error.
func TestRequestTimeout503(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.RequestTimeout = 20 * time.Millisecond })
	s.buildDelay = 300 * time.Millisecond
	start := time.Now()
	rec := post(t, s.Handler(), "/api/v1/simulate", `{"workload":"sql","slaves":3,"cores":8}`)
	if rec.Code != 503 {
		t.Fatalf("status = %d, want 503 (%s)", rec.Code, rec.Body)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Errorf("timeout took %v, deadline was 20ms", elapsed)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("503 body not structured: %s", rec.Body)
	}
}

// TestLimiter429 asserts the concurrency limiter sheds with 429 once
// MaxInFlight requests are being served, and counts the sheds.
func TestLimiter429(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxInFlight = 1 })
	s.buildDelay = 500 * time.Millisecond

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- post(t, s.Handler(), "/api/v1/simulate", `{"workload":"sql","slaves":3,"cores":8}`)
	}()
	// Wait until the slow request holds the only slot.
	deadline := time.Now().Add(2 * time.Second)
	for s.inflight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never went in flight")
		}
		time.Sleep(time.Millisecond)
	}
	shed := post(t, s.Handler(), "/api/v1/simulate", `{"workload":"sql","slaves":3,"cores":4}`)
	if shed.Code != 429 {
		t.Fatalf("status = %d, want 429 (%s)", shed.Code, shed.Body)
	}
	if got := s.shed.Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	first := <-done
	if first.Code != 200 {
		t.Errorf("slow request status = %d, want 200 (%s)", first.Code, first.Body)
	}
}

var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$`)

// TestMetricsEndpoint asserts /metrics parses as Prometheus text and
// carries the advertised series: per-route requests and latency, cache
// counters with a nonzero hit ratio after a repeat request, in-flight
// gauge and shed counter.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	body := `{"workload":"sql","slaves":3,"cores":8}`
	post(t, s.Handler(), "/api/v1/simulate", body)
	post(t, s.Handler(), "/api/v1/simulate", body) // cache hit
	post(t, s.Handler(), "/api/v1/predict", `{"workload":"nope"}`)

	rec := get(t, s.Handler(), "/metrics")
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	out := rec.Body.String()
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("line does not parse as Prometheus text: %q", line)
		}
	}
	for _, want := range []string{
		`doppio_http_requests_total{route="/api/v1/simulate",code="200"} 2`,
		`doppio_http_requests_total{route="/api/v1/predict",code="400"} 1`,
		`doppio_http_request_duration_seconds_count{route="/api/v1/simulate"} 2`,
		"doppio_http_in_flight 0",
		"doppio_http_shed_total 0",
		"doppio_cache_hits_total 1",
		"doppio_cache_misses_total 1",
		"doppio_cache_hit_ratio 0.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestProbes(t *testing.T) {
	s := newTestServer(t, nil)
	if rec := get(t, s.Handler(), "/healthz"); rec.Code != 200 {
		t.Errorf("healthz = %d, want 200", rec.Code)
	}
	// Readiness is off until Run starts listening.
	if rec := get(t, s.Handler(), "/readyz"); rec.Code != 503 {
		t.Errorf("readyz before Run = %d, want 503", rec.Code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, nil)
	rec := get(t, s.Handler(), "/api/v1/predict")
	if rec.Code != 405 {
		t.Errorf("GET on POST route = %d, want 405", rec.Code)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"defaults", Config{}, true},
		{"explicit", Config{Addr: "127.0.0.1:8080", MaxInFlight: 4}, true},
		{"bad addr", Config{Addr: "no-port-here"}, false},
		{"bad port", Config{Addr: "127.0.0.1:notaport"}, false},
		{"negative inflight", Config{MaxInFlight: -1}, false},
		{"negative timeout", Config{RequestTimeout: -time.Second}, false},
		{"negative drain", Config{DrainTimeout: -time.Second}, false},
		{"negative cache", Config{CacheEntries: -5}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestConcurrentMixedLoad drives every route from many goroutines; run
// under -race it is the service-layer analogue of the experiment
// harness's concurrency audits.
func TestConcurrentMixedLoad(t *testing.T) {
	s := newTestServer(t, nil)
	bodies := map[string]string{
		"/api/v1/predict":  `{"workload":"lr-small","slaves":3,"cores":8}`,
		"/api/v1/simulate": `{"workload":"sql","slaves":3,"cores":8}`,
		"/api/v1/whatif":   `{"workload":"sql","slaves":3,"max_cores":8}`,
		"/api/v1/sweep":    `{"workloads":["sql"],"nodes":[3],"cores":[4,8]}`,
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for route, body := range bodies {
				rec := post(t, s.Handler(), route, body)
				if rec.Code != 200 {
					errs <- fmt.Sprintf("%s: %d %s", route, rec.Code, rec.Body)
				}
				if mrec := get(t, s.Handler(), "/metrics"); mrec.Code != 200 {
					errs <- fmt.Sprintf("/metrics: %d", mrec.Code)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	stats := s.CacheStats()
	if stats.Hits == 0 {
		t.Errorf("32 requests over 4 distinct bodies should hit the cache: %+v", stats)
	}
}
