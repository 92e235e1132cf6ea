package serve

import (
	"testing"

	"repro/internal/calib"
)

func TestDoCachesSuccess(t *testing.T) {
	c := calib.NewCache(4)
	calls := 0
	build := func() (any, error) { calls++; return "v", nil }
	v, cached, err := c.Do("k", build)
	if err != nil || v.(string) != "v" || cached {
		t.Fatalf("first do = %v, %v, %v", v, cached, err)
	}
	v, cached, err = c.Do("k", build)
	if err != nil || v.(string) != "v" || !cached {
		t.Fatalf("second do = %v, %v, %v", v, cached, err)
	}
	if calls != 1 {
		t.Errorf("build ran %d times, want 1", calls)
	}
	stats := c.Stats()
	if stats.Hits != 1 || stats.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", stats)
	}
}

func TestHitRatio(t *testing.T) {
	if got := (CacheStats{}).HitRatio(); got != 0 {
		t.Errorf("empty ratio = %v, want 0", got)
	}
	if got := (CacheStats{Hits: 3, Misses: 1}).HitRatio(); got != 0.75 {
		t.Errorf("ratio = %v, want 0.75", got)
	}
}
