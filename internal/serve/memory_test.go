package serve

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestPredictHeapGB checks the memory term flows through the predict
// route: a tight heap inflates the prediction, surfaces per-stage
// mem_limit_seconds, and the legacy (heap-free) response stays free of
// the new field so cached bytes are unchanged.
func TestPredictHeapGB(t *testing.T) {
	s := newTestServer(t, nil)
	legacy := post(t, s.Handler(), "/api/v1/predict",
		`{"workload":"terasort","slaves":3,"cores":8,"hdfs":"hdd","local":"hdd"}`)
	if legacy.Code != 200 {
		t.Fatalf("legacy status = %d: %s", legacy.Code, legacy.Body)
	}
	if strings.Contains(legacy.Body.String(), "mem_limit_seconds") {
		t.Error("heap-free prediction leaks mem_limit_seconds into the response")
	}
	var base PredictResponse
	if err := json.Unmarshal(legacy.Body.Bytes(), &base); err != nil {
		t.Fatal(err)
	}

	tight := post(t, s.Handler(), "/api/v1/predict",
		`{"workload":"terasort","slaves":3,"cores":8,"hdfs":"hdd","local":"hdd","heap_gb":0.25}`)
	if tight.Code != 200 {
		t.Fatalf("tight status = %d: %s", tight.Code, tight.Body)
	}
	var mem PredictResponse
	if err := json.Unmarshal(tight.Body.Bytes(), &mem); err != nil {
		t.Fatal(err)
	}
	if mem.TotalSeconds <= base.TotalSeconds {
		t.Errorf("0.25 GB heap predicted %v s, want > heap-free %v s",
			mem.TotalSeconds, base.TotalSeconds)
	}
	var anyMem bool
	for _, st := range mem.Stages {
		if st.MemLimitSeconds < 0 {
			t.Errorf("stage %s has negative mem_limit_seconds %v", st.Name, st.MemLimitSeconds)
		}
		anyMem = anyMem || st.MemLimitSeconds > 0
	}
	if !anyMem {
		t.Error("no stage reports a positive mem_limit_seconds under a 0.25 GB heap")
	}
}

// TestSimulateHeapGB checks the simulator backend honours heap_gb: the
// same seed and cluster runs longer when spill and GC are live.
func TestSimulateHeapGB(t *testing.T) {
	s := newTestServer(t, nil)
	run := func(heap string) SimulateResponse {
		t.Helper()
		body := fmt.Sprintf(
			`{"workload":"terasort","slaves":3,"cores":8,"hdfs":"hdd","local":"hdd","seed":7%s}`, heap)
		rec := post(t, s.Handler(), "/api/v1/simulate", body)
		if rec.Code != 200 {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body)
		}
		var resp SimulateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	base := run("")
	mem := run(`,"heap_gb":0.25`)
	if mem.TotalSeconds <= base.TotalSeconds {
		t.Errorf("simulated 0.25 GB heap ran %v s, want > heap-free %v s",
			mem.TotalSeconds, base.TotalSeconds)
	}
}

// TestRecommendHeapAxis checks heap_gbs widens the search space and the
// winning candidates carry their heap.
func TestRecommendHeapAxis(t *testing.T) {
	s := newTestServer(t, nil)
	legacy := post(t, s.Handler(), "/api/v1/recommend", `{"workload":"lr-small","top":3}`)
	if legacy.Code != 200 {
		t.Fatalf("legacy status = %d: %s", legacy.Code, legacy.Body)
	}
	var base RecommendResponse
	if err := json.Unmarshal(legacy.Body.Bytes(), &base); err != nil {
		t.Fatal(err)
	}

	rec := post(t, s.Handler(), "/api/v1/recommend",
		`{"workload":"lr-small","top":3,"heap_gbs":[4,64]}`)
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var resp RecommendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.SpaceSize != 2*base.SpaceSize {
		t.Errorf("heap axis space = %d, want 2x legacy %d", resp.SpaceSize, base.SpaceSize)
	}
	if len(resp.Best) == 0 {
		t.Fatal("no candidates returned")
	}
	for _, c := range resp.Best {
		if c.HeapGB != 4 && c.HeapGB != 64 {
			t.Errorf("candidate %s carries heap %v, want one of the requested values", c.Spec, c.HeapGB)
		}
	}
}

// TestHeapValidation rejects out-of-range heap parameters and a
// repeated heap_gbs value.
func TestHeapValidation(t *testing.T) {
	s := newTestServer(t, nil)
	for _, tc := range []struct{ route, body string }{
		{"/api/v1/predict", `{"workload":"terasort","heap_gb":-1}`},
		{"/api/v1/predict", `{"workload":"terasort","heap_gb":5000}`},
		{"/api/v1/recommend", `{"workload":"terasort","heap_gbs":[0]}`},
		{"/api/v1/recommend", `{"workload":"terasort","heap_gbs":[-2]}`},
		{"/api/v1/recommend", `{"workload":"sql","slaves":10,"top":4,"heap_gbs":[2,2]}`},
	} {
		rec := post(t, s.Handler(), tc.route, tc.body)
		if rec.Code != 400 {
			t.Errorf("POST %s %s status = %d, want 400", tc.route, tc.body, rec.Code)
		}
	}
}
