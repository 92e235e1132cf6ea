package calib

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Error("a should have been evicted")
	}
	if v, ok := c.Get("b"); !ok || v.(int) != 2 {
		t.Errorf("b = %v, %v", v, ok)
	}
	// b is now most recent; inserting d evicts c.
	c.Put("d", 4)
	if _, ok := c.Get("c"); ok {
		t.Error("c should have been evicted after b was touched")
	}
	stats := c.Stats()
	if stats.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", stats.Evictions)
	}
	if stats.Entries != 2 {
		t.Errorf("entries = %d, want 2", stats.Entries)
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := NewCache(2)
	c.Put("a", 1)
	c.Put("a", 2)
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Errorf("a = %v, want refreshed value 2", v)
	}
	if got := c.Stats().Entries; got != 1 {
		t.Errorf("entries = %d, want 1", got)
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := NewCache(0)
	c.Put("a", 1)
	if _, ok := c.Get("a"); !ok {
		t.Error("capacity should clamp to 1, not 0")
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := NewCache(4)
	calls := 0
	failing := func() (any, error) { calls++; return nil, errors.New("boom") }
	if _, _, err := c.Do("k", failing); err == nil {
		t.Fatal("expected error")
	}
	if _, _, err := c.Do("k", failing); err == nil {
		t.Fatal("expected error on retry")
	}
	if calls != 2 {
		t.Errorf("failing build ran %d times, want 2 (errors must not cache)", calls)
	}
	// A later success does cache.
	if _, _, err := c.Do("k", func() (any, error) { return 42, nil }); err != nil {
		t.Fatal(err)
	}
	v, cached, err := c.Do("k", failing)
	if err != nil || !cached || v.(int) != 42 {
		t.Errorf("after success: %v, %v, %v", v, cached, err)
	}
}

// TestDoSingleflight has many goroutines demand the same absent key; the
// build must run exactly once and everyone must observe its value.
func TestDoSingleflight(t *testing.T) {
	c := NewCache(4)
	var calls atomic.Int64
	release := make(chan struct{})
	build := func() (any, error) {
		calls.Add(1)
		<-release
		return "shared", nil
	}
	const n = 16
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("k", build)
			if err != nil {
				t.Errorf("do: %v", err)
			}
			results[i] = v
		}(i)
	}
	// Let the herd pile up behind the single in-flight build, then open it.
	for calls.Load() == 0 {
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("build ran %d times under contention, want 1", got)
	}
	for i, v := range results {
		if v.(string) != "shared" {
			t.Errorf("goroutine %d saw %v", i, v)
		}
	}
	stats := c.Stats()
	if stats.Misses != 1 || stats.Hits != n-1 {
		t.Errorf("stats = %+v, want 1 miss / %d hits", stats, n-1)
	}
}

func TestDoConcurrentDistinctKeys(t *testing.T) {
	c := NewCache(128)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				key := fmt.Sprintf("k%d", j)
				v, _, err := c.Do(key, func() (any, error) { return j, nil })
				if err != nil || v.(int) != j {
					t.Errorf("do(%s) = %v, %v", key, v, err)
				}
			}
		}(i)
	}
	wg.Wait()
	if got := c.Stats().Entries; got != 50 {
		t.Errorf("entries = %d, want 50", got)
	}
}

// TestDoDistinctKeysBuildConcurrently starts one key's build while
// another key's build is still running: the cache's lock is never held
// across a build, so two calibrations of different recipes overlap.
func TestDoDistinctKeysBuildConcurrently(t *testing.T) {
	c := NewCache(4)
	aStarted, bStarted := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do("a", func() (any, error) {
			close(aStarted)
			select {
			case <-bStarted:
				return 1, nil
			case <-time.After(5 * time.Second):
				return nil, errors.New("b's build did not start while a's was running")
			}
		})
		done <- err
	}()
	<-aStarted
	if _, _, err := c.Do("b", func() (any, error) {
		close(bStarted)
		return 2, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
