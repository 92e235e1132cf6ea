package serve

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/calib"
)

// The serve benchmarks gate the request hot path in CI (see
// docs/BENCH_serve.json and the bench-regression job): a cache hit must
// stay a hash lookup plus a header write, never a simulator run.

func BenchmarkCacheDoHit(b *testing.B) {
	c := calib.NewCache(64)
	if _, _, err := c.Do("k", func() (any, error) { return []byte("v"), nil }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit, _ := c.Do("k", nil); !hit {
			b.Fatal("expected hit")
		}
	}
}

func BenchmarkCachePutEvict(b *testing.B) {
	c := calib.NewCache(64)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	// The value is fixed: boxing the loop counter would allocate only
	// for i >= 256, leaving allocs/op straddling an integer boundary
	// and flaking the strict allocs gate in CI.
	val := any([]byte("value"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(keys[i%len(keys)], val)
	}
}

func BenchmarkCanonicalKey(b *testing.B) {
	req := PredictRequest{
		ClusterParams: ClusterParams{Workload: "sql", Slaves: 3, Cores: 8},
	}
	if err := req.normalize(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cacheKey("/api/v1/predict", req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHandlerCacheHit measures the full HTTP path of a warm
// request: decode, normalize, canonical key, cache hit, replayed bytes.
func BenchmarkHandlerCacheHit(b *testing.B) {
	s, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	body := `{"workload":"sql","slaves":3,"cores":8}`
	warm := httptest.NewRecorder()
	warmReq := httptest.NewRequest("POST", "/api/v1/simulate", strings.NewReader(body))
	s.Handler().ServeHTTP(warm, warmReq)
	if warm.Code != 200 {
		b.Fatalf("warmup status = %d: %s", warm.Code, warm.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/api/v1/simulate", strings.NewReader(body))
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status = %d", rec.Code)
		}
	}
}

// BenchmarkSnapshotEncode measures serializing a populated cache into
// the snapshot wire format with a reused buffer — the steady-state cost
// of the periodic snapshot loop. The append-style codec must stay
// zero-alloc so snapshotting never pressures the GC under load.
func BenchmarkSnapshotEncode(b *testing.B) {
	entries := make([]snapEntry, 256)
	for i := range entries {
		entries[i] = snapEntry{
			kind: snapKindResult,
			key:  fmt.Sprintf("/api/v1/predict\x00{\"cores\":8,\"slaves\":%d,\"workload\":\"lr-small\"}", i+1),
			val:  []byte(`{"workload":"lr-small","predicted_runtime_seconds":142.51,"model":"doppio-io"}`),
		}
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendSnapshot(buf[:0], entries)
		if len(buf) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkMetricsScrape measures a /metrics render with the full series
// set populated.
func BenchmarkMetricsScrape(b *testing.B) {
	s, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	warm := httptest.NewRecorder()
	s.Handler().ServeHTTP(warm, httptest.NewRequest("POST", "/api/v1/simulate",
		strings.NewReader(`{"workload":"sql","slaves":3,"cores":8}`)))
	if warm.Code != 200 {
		b.Fatalf("warmup status = %d", warm.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			b.Fatalf("status = %d", rec.Code)
		}
	}
}
