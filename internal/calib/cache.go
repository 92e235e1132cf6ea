package calib

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time snapshot of cache activity. Hits count
// lookups answered from a cached entry (including callers who joined an
// in-flight build of the same key); misses count lookups that had to
// build.
type Stats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// HitRatio returns hits/(hits+misses), 0 before any lookup.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is the bounded cache behind every calibration and every serve
// result: a plain LRU over string keys, with singleflight semantics —
// concurrent lookups of the same absent key share one build instead of
// duplicating the work (calibration is four simulator runs; a thundering
// herd on a popular what-if must not multiply that). Build errors are
// never cached, so transient failures retry.
type Cache struct {
	mu       sync.Mutex
	cap      int
	ll       *list.List               // front = most recent
	items    map[string]*list.Element // value: *cacheEntry
	inflight map[string]*inflightCall
	stats    Stats
}

type cacheEntry struct {
	key string
	val any
}

type inflightCall struct {
	done chan struct{}
	val  any
	err  error
}

// NewCache returns a cache bounded to capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:      capacity,
		ll:       list.New(),
		items:    map[string]*list.Element{},
		inflight: map[string]*inflightCall{},
	}
}

// Get returns the cached value and bumps its recency.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*cacheEntry).val, true
	}
	c.stats.Misses++
	return nil, false
}

// Put inserts or refreshes a value, evicting the oldest entry past
// capacity. It does not touch the hit/miss counters: callers that
// already counted a miss via Get or Do would double-count.
func (c *Cache) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val)
}

func (c *Cache) putLocked(key string, val any) {
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}

// Do returns the cached value for key, or builds it exactly once across
// concurrent callers. The second return reports whether the answer came
// from cache (or a shared in-flight build) rather than this caller's own
// build.
func (c *Cache) Do(key string, build func() (any, error)) (any, bool, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		v := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return v, true, nil
	}
	if call, ok := c.inflight[key]; ok {
		// Someone is already building this key: share their answer. It
		// still counts as a hit — the lookup spent no build work.
		c.stats.Hits++
		c.mu.Unlock()
		<-call.done
		return call.val, true, call.err
	}
	call := &inflightCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.stats.Misses++
	c.mu.Unlock()

	call.val, call.err = build()

	c.mu.Lock()
	delete(c.inflight, key)
	if call.err == nil {
		c.putLocked(key, call.val)
	}
	c.mu.Unlock()
	close(call.done)
	return call.val, false, call.err
}

// Peek returns the cached value for key without disturbing the cache:
// no recency bump, no hit/miss accounting.
func (c *Cache) Peek(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*cacheEntry).val, true
	}
	return nil, false
}

// Range calls fn on every entry, oldest first, holding the cache's lock
// (fn must not call back into the cache), and stops at fn's first error.
func (c *Cache) Range(fn func(key string, val any) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		ce := el.Value.(*cacheEntry)
		if err := fn(ce.key, ce.val); err != nil {
			return err
		}
	}
	return nil
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}
