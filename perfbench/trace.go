package main

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing. Spans are kept in memory and summarised when the run ends.
// A span covers one call into a layer; spans of one operation share its
// op id. Spans timed around the real call, inside their parent's
// interval, are inline. Where a layer calls the next one internally
// the benchmark cannot wrap the inner call, so it times the inner
// public entry point on the same inputs in its own pass afterwards; such
// spans are derived: they are not inside their parent's interval, and
// the parent's self time is found by subtracting their durations.

type span struct {
	name    string
	op      int
	parent  int // index of the parent span, -1 for an operation
	start   time.Duration
	end     time.Duration
	derived bool
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder collects spans. Operations run one at a time (every traced
// workload is one closed-loop caller), so the handler wrappers find
// their parent in the recorder's current-operation state.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// serveOf maps an op id to its last serve span.
	serveOf map[int]int

	curOp      atomic.Int64
	curOpSpan  atomic.Int64
	curCluster atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), serveOf: map[int]int{}}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

func (r *recorder) finish(i int) {
	end := r.now()
	r.mu.Lock()
	r.spans[i].end = end
	r.mu.Unlock()
}

// beginOp opens operation op's root span and makes it current.
func (r *recorder) beginOp(op int) int {
	i := r.add(span{name: "op", op: op, parent: -1, start: r.now()})
	r.curOp.Store(int64(op))
	r.curOpSpan.Store(int64(i))
	r.curCluster.Store(-1)
	return i
}

// derived records a span timed in the benchmark's own pass as a child
// of parent.
func (r *recorder) derived(name string, parent int, d time.Duration) int {
	r.mu.Lock()
	op := r.spans[parent].op
	r.mu.Unlock()
	return r.add(span{name: name, op: op, parent: parent, end: d, derived: true})
}

// timeDerived runs f, records its duration as a derived span under
// parent, and returns the duration.
func (r *recorder) timeDerived(name string, parent int, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	r.derived(name, parent, d)
	return d
}

// wrap times every API request h serves as a span of layer ("cluster"
// for the router, "serve" for a replica).
func (r *recorder) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !strings.HasPrefix(req.URL.Path, "/api/") {
			h.ServeHTTP(w, req)
			return
		}
		op := int(r.curOp.Load())
		parent := int(r.curOpSpan.Load())
		if c := int(r.curCluster.Load()); layer == "serve" && c >= 0 {
			parent = c
		}
		i := r.add(span{name: layer, op: op, parent: parent, start: r.now()})
		if layer == "cluster" {
			r.curCluster.Store(int64(i))
		} else {
			r.mu.Lock()
			r.serveOf[op] = i
			r.mu.Unlock()
		}
		h.ServeHTTP(w, req)
		r.finish(i)
	})
}

// snapshot returns a copy of the spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns every span's self time: its duration, minus the
// part of its interval that its inline children cover, minus the whole
// duration of its derived children, never below zero.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		var iv [][2]time.Duration
		var derived time.Duration
		for _, k := range kids[i] {
			c := spans[k]
			if c.derived {
				derived += c.dur()
				continue
			}
			if a, b := max(c.start, s.start), min(c.end, s.end); b > a {
				iv = append(iv, [2]time.Duration{a, b})
			}
		}
		self := s.dur() - unionLen(iv) - derived
		if self < 0 {
			self = 0
		}
		out[i] = self
	}
	return out
}

// unionLen returns the total length covered by a set of intervals.
func unionLen(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, x := range iv {
		if !open || x[0] > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = x[0], x[1], true
			continue
		}
		curB = max(curB, x[1])
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums self time per layer over the spans of the given ops.
func layerSelf(spans []span, self []time.Duration, ops map[int]bool) map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, s := range spans {
		if s.parent >= 0 && ops[s.op] {
			out[layerOf(s.name)] += self[i]
		}
	}
	return out
}

// perLayerMetrics lists every per-layer metric with its unit. A traced
// run reports all of them; a layer the workload does not exercise
// reports 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"cluster.self_us", "us"},
	{"cluster.hot_hit_ratio", "ratio"},
	{"cluster.attempts_per_req", "count"},
	{"serve.canonical_key_us", "us"},
	{"serve.hit_handler_us", "us"},
	{"serve.hit_ratio", "ratio"},
	{"serve.miss_self_ms", "ms"},
	{"serve.evictions", "count"},
	{"core.calibrate_ms", "ms"},
	{"core.calibrations", "count"},
	{"core.compile_us", "us"},
	{"core.predict_us", "us"},
	{"core.predict_faulty_us", "us"},
	{"optimizer.search_ms", "ms"},
	{"optimizer.evaluated", "count"},
	{"optimizer.pruned_ratio", "ratio"},
	{"spark.run_clean_ms", "ms"},
	{"spark.run_faulty_ms", "ms"},
	{"spark.run_heap_ms", "ms"},
	{"spark.sim_tasks_per_s", "1/s"},
	{"campaign.point_ms_p50", "ms"},
	{"campaign.point_ms_p90", "ms"},
	{"campaign.checkpoint_append_us", "us"},
	{"campaign.merge_ms", "ms"},
	{"workloads.build_us", "us"},
	{"trace.coverage_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// layerStats gathers the per-layer samples a traced run measures.
type layerStats struct {
	vals map[string][]float64
}

func newLayerStats() *layerStats { return &layerStats{vals: map[string][]float64{}} }

func (l *layerStats) add(name string, v float64) { l.vals[name] = append(l.vals[name], v) }

func (l *layerStats) addDur(name string, d time.Duration, unit time.Duration) {
	l.add(name, float64(d)/float64(unit))
}

// metrics renders the per-layer metrics: medians of timed samples,
// with the count and ratio metrics set directly in fixed.
func (l *layerStats) metrics(fixed map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, m := range perLayerMetrics {
		v := 0.0
		if f, ok := fixed[m.name]; ok {
			v = f
		} else if xs := l.vals[m.name]; len(xs) > 0 {
			v = median(xs)
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}
