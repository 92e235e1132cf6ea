// Package serve implements `doppio serve`: a long-lived HTTP prediction
// service over the calibrated Doppio model (Eq. 1) and the cluster
// simulator. The what-if questions operators ask — device choice, core
// count, data volume — are pure functions of a canonicalized request, so
// every POST endpoint shares one bounded LRU result/calibration cache
// with singleflight builds; repeated questions cost microseconds, not
// simulator runs.
//
// The service carries the robustness plumbing a production inference
// stack needs and a paper reproduction usually skips: per-request
// context timeouts (503 on expiry, the abandoned build still lands in
// the cache), a concurrency limiter that sheds with 429 instead of
// queueing unboundedly, graceful drain on SIGTERM (readiness flips off,
// accepted requests finish), structured JSON access logs, and a
// Prometheus-text /metrics endpoint from internal/obs. Everything is
// stdlib-only.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/calib"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Config tunes the service.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// MaxInFlight bounds concurrently served API requests; excess
	// requests are shed with 429 (default 64).
	MaxInFlight int
	// RequestTimeout bounds each API request's computation; expiry
	// answers 503 while the build continues into the cache (default 30s).
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: how long in-flight requests
	// get to finish after SIGTERM (default 30s).
	DrainTimeout time.Duration
	// CacheEntries bounds the shared result/calibration LRU (default 512).
	CacheEntries int
	// AccessLog receives one JSON line per request (nil = discard).
	AccessLog io.Writer
	// ReplicaID names this replica in the X-Served-By header stamped on
	// every response (probes and API alike) and in the access log, so a
	// fronting router and the load generator can attribute responses in a
	// multi-replica deployment. Empty means the bound host:port.
	ReplicaID string
	// SnapshotPath enables cache snapshot/warm-start: on boot the cache
	// is restored from this file (missing file = cold boot; corrupt or
	// wrong-version file = rejected, logged, cold boot), and Run writes
	// it back every SnapshotInterval plus once after the shutdown drain.
	// Empty disables snapshotting.
	SnapshotPath string
	// SnapshotInterval is the periodic snapshot cadence when
	// SnapshotPath is set (default 30s).
	SnapshotInterval time.Duration
	// Peers lists every replica of the serve tier (host:port, including
	// this one) and enables cross-replica read-through: on a local miss
	// for a result key, the replica peeks the key's hash-ring owner
	// before computing cold. Requires ReplicaID to be set to this
	// replica's own entry. Empty disables read-through.
	Peers []string
	// PeerTimeout bounds one read-through peek (default 150ms); any
	// peek that errors or outlives it falls through to local compute.
	PeerTimeout time.Duration
	// EventLog receives snapshot/warm-start lifecycle notices, one line
	// each (nil = stderr).
	EventLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	if c.PeerTimeout == 0 {
		c.PeerTimeout = 150 * time.Millisecond
	}
	if c.EventLog == nil {
		c.EventLog = os.Stderr
	}
	return c
}

// Validate rejects configurations the flag layer should have caught.
func (c Config) Validate() error {
	c = c.withDefaults()
	if _, port, err := net.SplitHostPort(c.Addr); err != nil {
		return fmt.Errorf("serve: bad listen address %q: %v", c.Addr, err)
	} else if p, err := strconv.Atoi(port); err != nil || p < 0 || p > 65535 {
		return fmt.Errorf("serve: bad listen port %q", port)
	}
	if c.MaxInFlight < 0 {
		return fmt.Errorf("serve: MaxInFlight must be positive, got %d", c.MaxInFlight)
	}
	if c.RequestTimeout < 0 {
		return fmt.Errorf("serve: negative RequestTimeout %v", c.RequestTimeout)
	}
	if c.DrainTimeout < 0 {
		return fmt.Errorf("serve: negative DrainTimeout %v", c.DrainTimeout)
	}
	if c.CacheEntries < 0 {
		return fmt.Errorf("serve: CacheEntries must be positive, got %d", c.CacheEntries)
	}
	if c.SnapshotInterval < 0 {
		return fmt.Errorf("serve: negative SnapshotInterval %v", c.SnapshotInterval)
	}
	if c.PeerTimeout < 0 {
		return fmt.Errorf("serve: negative PeerTimeout %v", c.PeerTimeout)
	}
	if len(c.Peers) > 0 {
		if c.ReplicaID == "" {
			return fmt.Errorf("serve: Peers requires ReplicaID (the ring must know which member this replica is)")
		}
		self := false
		for _, p := range c.Peers {
			if _, _, err := net.SplitHostPort(p); err != nil {
				return fmt.Errorf("serve: bad peer %q: %v", p, err)
			}
			if p == c.ReplicaID {
				self = true
			}
		}
		if !self {
			return fmt.Errorf("serve: ReplicaID %q is not in Peers %v", c.ReplicaID, c.Peers)
		}
	}
	return nil
}

// Server is the doppio prediction service.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	health  *obs.Health
	cache   *calib.Cache
	handler http.Handler
	sem     chan struct{}

	requests *obs.CounterVec   // doppio_http_requests_total{route,code}
	latency  *obs.HistogramVec // doppio_http_request_duration_seconds{route}
	inflight *obs.Gauge        // doppio_http_in_flight
	shed     *obs.Counter      // doppio_http_shed_total

	optEvaluated *obs.Counter // doppio_optimizer_evaluated_total
	optPruned    *obs.Counter // doppio_optimizer_pruned_total
	sweepPoints  *obs.Counter // doppio_sweep_points_total

	snapWrites      *obs.Counter // doppio_cache_snapshot_writes_total
	snapWriteErrors *obs.Counter // doppio_cache_snapshot_write_errors_total
	snapRejected    *obs.Counter // doppio_cache_snapshot_rejected_total
	snapRestored    *obs.Gauge   // doppio_cache_snapshot_restored_entries
	snapLastBytes   *obs.Gauge   // doppio_cache_snapshot_last_bytes
	snapMu          sync.Mutex   // serializes snapshot writes
	snapBuf         []byte       // reused encode buffer, under snapMu

	peerRing     *shard.Ring     // nil unless Peers configured
	peerClient   *http.Client    // peek transport, nil unless Peers configured
	peekRequests *obs.CounterVec // doppio_peek_requests_total{result}
	readThroughs *obs.CounterVec // doppio_peer_readthrough_total{result}

	cloudEvalMu sync.Mutex
	cloudEvals  map[string]cloudEval // by workload, under cloudEvalMu; see cloudEvaluator

	logMu sync.Mutex

	started chan struct{}
	addr    atomic.Value // string, set once listening

	// buildDelay artificially lengthens every cache build; tests use it
	// to hold requests in flight deterministically.
	buildDelay time.Duration
}

// New assembles a Server (no listener yet; see Run and Handler).
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     obs.NewRegistry(),
		health:  obs.NewHealth(),
		cache:   calib.NewCache(cfg.CacheEntries),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		started: make(chan struct{}),

		cloudEvals: make(map[string]cloudEval),
	}
	s.requests = s.reg.NewCounterVec("doppio_http_requests_total",
		"Requests served, by route and status code.", "route", "code")
	s.latency = s.reg.NewHistogramVec("doppio_http_request_duration_seconds",
		"Request latency, by route.", nil, "route")
	s.inflight = s.reg.NewGauge("doppio_http_in_flight",
		"API requests currently being served.")
	s.shed = s.reg.NewCounter("doppio_http_shed_total",
		"API requests shed with 429 by the concurrency limiter.")
	s.optEvaluated = s.reg.NewCounter("doppio_optimizer_evaluated_total",
		"Provisioning-space configurations evaluated by /api/v1/recommend searches.")
	s.optPruned = s.reg.NewCounter("doppio_optimizer_pruned_total",
		"Provisioning-space configurations pruned without evaluation by /api/v1/recommend searches.")
	s.sweepPoints = s.reg.NewCounter("doppio_sweep_points_total",
		"Grid points predicted by /api/v1/sweep requests.")
	s.reg.NewCounterFunc("doppio_cache_hits_total",
		"Result/calibration cache lookups answered from cache.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	s.reg.NewCounterFunc("doppio_cache_misses_total",
		"Result/calibration cache lookups that had to build.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	s.reg.NewCounterFunc("doppio_cache_evictions_total",
		"Cache entries evicted by the LRU bound.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	s.reg.NewGaugeFunc("doppio_cache_entries",
		"Entries currently cached.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	s.reg.NewGaugeFunc("doppio_cache_hit_ratio",
		"hits/(hits+misses) since start.",
		func() float64 { return s.cache.Stats().HitRatio() })
	s.snapWrites = s.reg.NewCounter("doppio_cache_snapshot_writes_total",
		"Cache snapshots written (periodic + post-drain).")
	s.snapWriteErrors = s.reg.NewCounter("doppio_cache_snapshot_write_errors_total",
		"Cache snapshot writes that failed.")
	s.snapRejected = s.reg.NewCounter("doppio_cache_snapshot_rejected_total",
		"Boot-time snapshots rejected (corrupt, torn, or wrong version); each meant a cold boot.")
	s.snapRestored = s.reg.NewGauge("doppio_cache_snapshot_restored_entries",
		"Cache entries restored from the snapshot at boot (warm start).")
	s.snapLastBytes = s.reg.NewGauge("doppio_cache_snapshot_last_bytes",
		"Size of the most recently written snapshot.")
	s.peekRequests = s.reg.NewCounterVec("doppio_peek_requests_total",
		"Peer cache probes served on /internal/v1/peek, by result.", "result")
	s.readThroughs = s.reg.NewCounterVec("doppio_peer_readthrough_total",
		"Local misses that consulted the key's ring owner, by result.", "result")
	// Resolve the label values now so every scrape lists them.
	for _, res := range []string{"hit", "miss", "bad"} {
		s.peekRequests.With(res)
	}
	for _, res := range []string{"hit", "miss", "error"} {
		s.readThroughs.With(res)
	}

	if len(cfg.Peers) > 0 {
		ring, err := shard.NewRing(cfg.Peers, 0)
		if err != nil {
			return nil, fmt.Errorf("serve: peers: %w", err)
		}
		s.peerRing = ring
		s.peerClient = newPeerClient(cfg.PeerTimeout)
	}

	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.stampReplica(s.health.HealthzHandler()))
	mux.Handle("GET /readyz", s.stampReplica(s.health.ReadyzHandler()))
	mux.Handle("GET /metrics", s.stampReplica(s.reg.Handler()))
	mux.Handle("POST "+peekRoute, s.stampReplica(http.HandlerFunc(s.handlePeek)))
	for _, ep := range s.endpoints() {
		mux.Handle(ep.method+" "+ep.route, s.instrument(ep.route, ep.handler))
		// Resolve the common series now so /metrics lists every route
		// from the first scrape, in deterministic order.
		s.latency.With(ep.route)
	}
	s.handler = mux
	if cfg.SnapshotPath != "" {
		s.loadSnapshot()
	}
	return s, nil
}

// eventf logs one snapshot/warm-start lifecycle line.
func (s *Server) eventf(format string, args ...any) {
	fmt.Fprintf(s.cfg.EventLog, format+"\n", args...)
}

// Handler returns the full route tree (probes, metrics, API); tests
// drive it through httptest.
func (s *Server) Handler() http.Handler { return s.handler }

// CacheStats is a point-in-time snapshot of the server cache's activity.
type CacheStats = calib.Stats

// CacheStats snapshots the shared cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Addr returns the bound listen address once Run is started (empty
// before; wait on Started).
func (s *Server) Addr() string {
	if v := s.addr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Started is closed once the listener is accepting and readiness is up.
func (s *Server) Started() <-chan struct{} { return s.started }

// ReplicaID is this replica's stable identity: Config.ReplicaID when
// set, the bound host:port once listening, the configured listen
// address otherwise (Handler-only tests).
func (s *Server) ReplicaID() string {
	if s.cfg.ReplicaID != "" {
		return s.cfg.ReplicaID
	}
	if a := s.Addr(); a != "" {
		return a
	}
	return s.cfg.Addr
}

// stampReplica adds the X-Served-By identity header to non-API
// responses (probes, metrics); API responses get it in instrument.
func (s *Server) stampReplica(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Served-By", s.ReplicaID())
		h.ServeHTTP(w, r)
	})
}

// Run listens and serves until ctx is cancelled, then drains: readiness
// flips to 503 so load balancers stop routing here, and in-flight
// requests get DrainTimeout to finish — an accepted request is never
// dropped by shutdown. Returns nil after a clean drain.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.addr.Store(ln.Addr().String())
	srv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.health.SetReady(true)
	close(s.started)
	var snapDone chan struct{}
	var stopSnap context.CancelFunc
	if s.cfg.SnapshotPath != "" {
		var snapCtx context.Context
		snapCtx, stopSnap = context.WithCancel(context.Background())
		defer stopSnap()
		snapDone = make(chan struct{})
		go func() {
			defer close(snapDone)
			s.snapshotLoop(snapCtx, s.cfg.SnapshotInterval)
		}()
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	s.health.SetReady(false)
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	if s.cfg.SnapshotPath != "" {
		// Final snapshot after the drain: every request this replica
		// accepted has finished and landed in the cache, so the successor
		// warm-starts with the complete picture.
		stopSnap()
		<-snapDone
		if err := s.writeSnapshot(); err != nil {
			s.snapWriteErrors.Inc()
			s.eventf("serve: drain snapshot failed: %v", err)
		}
	}
	return nil
}

// statusRecorder captures the response status and size for metrics and
// the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// instrument wraps an API handler with the full middleware stack, outer
// to inner: panic recovery, metrics + access log, concurrency limiter
// (429), request timeout.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		rec.Header().Set("X-Served-By", s.ReplicaID())
		defer func() {
			if p := recover(); p != nil {
				if rec.status == 0 {
					writeError(rec, http.StatusInternalServerError, fmt.Errorf("internal error: %v", p))
				}
			}
			dur := time.Since(start)
			if rec.status == 0 {
				rec.status = http.StatusOK
			}
			s.requests.With(route, strconv.Itoa(rec.status)).Inc()
			s.latency.With(route).Observe(dur.Seconds())
			s.accessLog(r, route, rec, dur)
		}()

		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.shed.Inc()
			writeError(rec, http.StatusTooManyRequests,
				fmt.Errorf("server at capacity (%d in flight), retry later", s.cfg.MaxInFlight))
			return
		}
		s.inflight.Inc()
		defer s.inflight.Dec()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(rec, r.WithContext(ctx))
	})
}

// accessLog emits one structured line per request.
func (s *Server) accessLog(r *http.Request, route string, rec *statusRecorder, dur time.Duration) {
	if s.cfg.AccessLog == nil {
		return
	}
	line, err := json.Marshal(struct {
		Time    string  `json:"time"`
		Replica string  `json:"replica"`
		Method  string  `json:"method"`
		Route   string  `json:"route"`
		Path    string  `json:"path"`
		Status  int     `json:"status"`
		Bytes   int     `json:"bytes"`
		Millis  float64 `json:"duration_ms"`
		Remote  string  `json:"remote"`
	}{
		Time:    time.Now().UTC().Format(time.RFC3339Nano),
		Replica: s.ReplicaID(),
		Method:  r.Method,
		Route:   route,
		Path:    r.URL.Path,
		Status:  rec.status,
		Bytes:   rec.bytes,
		Millis:  float64(dur.Microseconds()) / 1000,
		Remote:  r.RemoteAddr,
	})
	if err != nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.cfg.AccessLog.Write(append(line, '\n'))
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(errorResponse{Error: err.Error()})
	w.Write(append(body, '\n'))
}

// serveCached answers from the shared cache, building at most once per
// canonical key across concurrent requests. On a local miss the build
// first tries a cross-replica read-through (see peer.go); the X-Cache
// header reports where the bytes came from: "hit" (local cache,
// including snapshot-restored entries), "peer" (ring owner's cache), or
// "miss" (computed here). A request whose context expires first gets
// 503; the build keeps running and its result lands in the cache for
// the retry (the same abandonment semantics as the experiment runner's
// per-artifact deadline).
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, build func() ([]byte, error)) {
	type outcome struct {
		body   []byte
		source string
		err    error
	}
	ch := make(chan outcome, 1)
	go func() {
		// source is written by the build closure and read after cache.Do
		// returns, all within this goroutine — no shared state.
		source := "miss"
		v, hit, err := s.cache.Do(key, func() (any, error) {
			if s.buildDelay > 0 {
				time.Sleep(s.buildDelay)
			}
			if body, ok := s.readThrough(key); ok {
				source = "peer"
				return body, nil
			}
			return build()
		})
		if err != nil {
			ch <- outcome{err: err}
			return
		}
		if hit {
			source = "hit"
		}
		ch <- outcome{body: v.([]byte), source: source}
	}()
	select {
	case <-r.Context().Done():
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("request deadline exceeded (%v); the result is being computed and will be cached", s.cfg.RequestTimeout))
	case o := <-ch:
		if o.err != nil {
			writeError(w, http.StatusInternalServerError, o.err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", o.source)
		w.Write(o.body)
	}
}

// marshalBody renders a response exactly once; cache hits replay the
// same bytes, which the tests assert byte-for-byte.
func marshalBody(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encoding response: %w", err)
	}
	return append(body, '\n'), nil
}
