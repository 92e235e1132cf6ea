package serve

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newPeerPair boots two real listeners (read-through dials peers over
// TCP) whose Peers config is each other, and returns them with their
// IDs. The ring decides which of the two owns any given key.
func newPeerPair(t *testing.T) (a, b *Server, idA, idB string) {
	t.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	idA, idB = lnA.Addr().String(), lnB.Addr().String()
	peers := []string{idA, idB}
	mk := func(id string) *Server {
		return newTestServer(t, func(c *Config) {
			c.ReplicaID = id
			c.Peers = peers
			c.PeerTimeout = 2 * time.Second
		})
	}
	a, b = mk(idA), mk(idB)
	for srv, ln := range map[*Server]net.Listener{a: lnA, b: lnB} {
		ts := httptest.NewUnstartedServer(srv.Handler())
		ts.Listener.Close()
		ts.Listener = ln
		ts.Start()
		t.Cleanup(ts.Close)
	}
	return a, b, idA, idB
}

func TestPeekServesOnlyCachedResults(t *testing.T) {
	s := newTestServer(t, nil)
	key := "/api/v1/predict\x00{\"workload\":\"wc\"}"
	rec := post(t, s.Handler(), peekRoute, key)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("peek of absent key: status %d, want 404", rec.Code)
	}
	s.cache.Put(key, []byte(`{"answer":42}`+"\n"))
	s.cache.Put("calibration\x00testbed\x00wc\x003", []byte("not served either way"))
	before := s.CacheStats()
	rec = post(t, s.Handler(), peekRoute, key)
	if rec.Code != http.StatusOK {
		t.Fatalf("peek of cached key: status %d", rec.Code)
	}
	if got := rec.Body.String(); got != `{"answer":42}`+"\n" {
		t.Fatalf("peek body %q", got)
	}
	// Peeks are invisible to the local hit/miss accounting.
	if after := s.CacheStats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("peek moved cache stats: %+v -> %+v", before, after)
	}
	if rec := post(t, s.Handler(), peekRoute, ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty peek: status %d, want 400", rec.Code)
	}
}

func TestReadThroughServesPeerBytes(t *testing.T) {
	a, b, idA, _ := newPeerPair(t)
	// Find a predict body whose canonical key is owned by A, so a request
	// to B must read through to A.
	var body string
search:
	for _, w := range []string{"lr-small", "sql"} {
		for slaves := 2; slaves <= 5; slaves++ {
			cand := fmt.Sprintf(`{"workload":%q,"slaves":%d,"cores":8}`, w, slaves)
			key, ok := CanonicalShardKey("POST", "/api/v1/predict", []byte(cand))
			if !ok {
				t.Fatalf("request not canonicalizable: %s", cand)
			}
			if a.peerRing.Primary(key) == idA {
				body = cand
				break search
			}
		}
	}
	if body == "" {
		t.Fatal("no candidate key owned by replica A")
	}
	// Warm the owner.
	first := post(t, a.Handler(), "/api/v1/predict", body)
	if first.Code != 200 || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("warming owner: status %d X-Cache %q", first.Code, first.Header().Get("X-Cache"))
	}
	// The non-owner misses locally, peeks the owner, and serves the
	// owner's exact bytes — no local compute.
	viaPeer := post(t, b.Handler(), "/api/v1/predict", body)
	if viaPeer.Code != 200 {
		t.Fatalf("read-through: status %d", viaPeer.Code)
	}
	if got := viaPeer.Header().Get("X-Cache"); got != "peer" {
		t.Fatalf("read-through X-Cache %q, want peer", got)
	}
	if !bytes.Equal(viaPeer.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("read-through bytes differ from the owner's")
	}
	if got := b.readThroughs.With("hit").Value(); got != 1 {
		t.Fatalf("readthrough{hit} = %d, want 1", got)
	}
	// The peer's answer is now cached locally: the next request is a
	// plain local hit.
	again := post(t, b.Handler(), "/api/v1/predict", body)
	if got := again.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache %q, want hit", got)
	}
	if !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("cached read-through bytes differ")
	}
}

func TestReadThroughDeadPeerFallsThrough(t *testing.T) {
	// Peers configured, but the owner never comes up: every request the
	// non-owner gets must still compute locally and succeed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadID := ln.Addr().String()
	ln.Close() // nothing listens here
	liveID := "127.0.0.1:1"
	s := newTestServer(t, func(c *Config) {
		c.ReplicaID = liveID
		c.Peers = []string{deadID, liveID}
		c.PeerTimeout = 50 * time.Millisecond
	})
	// Find a key the dead peer owns.
	var body string
search:
	for _, w := range []string{"lr-small", "sql"} {
		for slaves := 2; slaves <= 5; slaves++ {
			cand := fmt.Sprintf(`{"workload":%q,"slaves":%d,"cores":8}`, w, slaves)
			key, ok := CanonicalShardKey("POST", "/api/v1/predict", []byte(cand))
			if ok && s.peerRing.Primary(key) == deadID {
				body = cand
				break search
			}
		}
	}
	if body == "" {
		t.Skip("no sampled key owned by the dead peer")
	}
	start := time.Now()
	rec := post(t, s.Handler(), "/api/v1/predict", body)
	if rec.Code != 200 {
		t.Fatalf("status %d with dead peer", rec.Code)
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache %q, want miss (local compute)", got)
	}
	if s.readThroughs.With("error").Value()+s.readThroughs.With("miss").Value() == 0 {
		t.Fatal("no read-through attempt recorded")
	}
	// The failed peek must have cost about PeerTimeout, not correctness;
	// the request itself then paid the normal compute.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("dead peer stalled the request for %v", elapsed)
	}
}

func TestReadThroughSkipsOwnedAndNonResultKeys(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.ReplicaID = "127.0.0.1:1"
		c.Peers = []string{"127.0.0.1:1", "127.0.0.1:2"}
	})
	if _, ok := s.readThrough("calibration\x00testbed\x00wc\x003"); ok {
		t.Fatal("read-through attempted for a calibration key")
	}
	if got := s.readThroughs.With("hit").Value() + s.readThroughs.With("miss").Value() + s.readThroughs.With("error").Value(); got != 0 {
		t.Fatalf("calibration key touched read-through counters: %d", got)
	}
	// Keys this replica owns never leave it, even on a miss.
	owned := 0
	for i := 0; i < 64; i++ {
		key := "/api/v1/predict\x00{\"i\":" + string(rune('0'+i%10)) + strings.Repeat("x", i) + "}"
		if s.peerRing.Primary(key) == s.ReplicaID() {
			owned++
			if _, ok := s.readThrough(key); ok {
				t.Fatalf("read-through returned a value for self-owned key %q", key)
			}
		}
	}
	if owned == 0 {
		t.Fatal("no sampled key was self-owned; test vacuous")
	}
	if got := s.readThroughs.With("error").Value(); got != 0 {
		t.Fatalf("self-owned keys dialed the network: error count %d", got)
	}
	// No peers at all: read-through is a no-op.
	plain := newTestServer(t, nil)
	if _, ok := plain.readThrough("/api/v1/predict\x00{}"); ok {
		t.Fatal("read-through without peers returned a value")
	}
}
