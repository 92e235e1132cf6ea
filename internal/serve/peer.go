package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"time"
)

// Cross-replica read-through. A replica that misses locally on a result
// key asks the key's hash-ring owner for its cached bytes before paying
// the compute itself — the I/O-vs-recompute tradeoff the paper's Eq. 1
// prices, applied to the serve tier: one small LAN round-trip against a
// calibration (four simulator runs) or a sweep. The protocol is
// deliberately dumb:
//
//	POST /internal/v1/peek   body = the canonical cache key, verbatim
//	  200 + cached bytes     owner had the result entry
//	  404                    owner doesn't have it (or it isn't a result)
//
// Peek is read-only on the owner: it never triggers a build, never
// recurses into the owner's own read-through, and never moves the
// owner's hit/miss stats. The asker bounds the round-trip with
// Config.PeerTimeout so a dead or slow peer costs at most that before
// the asker falls through to local compute — read-through affects
// latency only, never correctness or availability.

// peekRoute is the internal cache-peek endpoint. The fronting router
// only proxies /api/, so peers are reachable for peek but clients are
// not.
const peekRoute = "/internal/v1/peek"

// handlePeek answers a peer's cache probe. Only result entries ([]byte
// values) are served: calibrations are an implementation detail of the
// owner and their keys never leave a replica.
func (s *Server) handlePeek(w http.ResponseWriter, r *http.Request) {
	key, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil || len(key) == 0 || len(key) > maxBodyBytes {
		s.peekRequests.With("bad").Inc()
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	// Peek leaves recency and hit/miss counts alone: a peer's probe must
	// not look like local traffic.
	v, _ := s.cache.Peek(string(key))
	body, ok := v.([]byte)
	if !ok {
		s.peekRequests.With("miss").Inc()
		w.WriteHeader(http.StatusNotFound)
		return
	}
	s.peekRequests.With("hit").Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// readThrough consults key's ring owner before a cold compute. It
// returns the owner's cached bytes, or false if this replica IS the
// owner, the key is not a result key, peers are not configured, or the
// peek failed or timed out for any reason whatsoever — every failure
// falls through to local compute.
func (s *Server) readThrough(key string) ([]byte, bool) {
	if s.peerRing == nil || !strings.HasPrefix(key, "/api/") {
		return nil, false
	}
	owner := s.peerRing.Primary(key)
	if owner == s.ReplicaID() {
		return nil, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+owner+peekRoute, bytes.NewReader([]byte(key)))
	if err != nil {
		s.readThroughs.With("error").Inc()
		return nil, false
	}
	resp, err := s.peerClient.Do(req)
	if err != nil {
		s.readThroughs.With("error").Inc()
		return nil, false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		s.readThroughs.With("miss").Inc()
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil || len(body) == 0 || len(body) > maxBodyBytes {
		s.readThroughs.With("error").Inc()
		return nil, false
	}
	s.readThroughs.With("hit").Inc()
	return body, true
}

// newPeerClient builds the HTTP client used for peeks: tiny timeouts,
// a few idle connections per peer so steady-state peeks reuse sockets.
func newPeerClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        16,
			MaxIdleConnsPerHost: 4,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}
