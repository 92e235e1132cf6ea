package calib

import (
	"testing"

	"repro/internal/workloads"
)

// TestRecipeKeysPinned pins the keys to the literal strings serve's
// snapshots carry: a drift would turn every restored calibration into a
// stray entry and every first lookup into a fresh calibration.
func TestRecipeKeysPinned(t *testing.T) {
	for _, c := range []struct {
		r    Recipe
		want string
	}{
		{Testbed("gatk4", 10), "calibration\x00testbed\x00gatk4\x0010"},
		{Testbed("wc", 3), "calibration\x00testbed\x00wc\x003"},
		{Cloud("gatk4"), "calibration\x00cloud\x00gatk4"},
		{Cloud("lr-small"), "calibration\x00cloud\x00lr-small"},
	} {
		if got := c.r.Key(); got != c.want {
			t.Errorf("%+v.Key() = %q, want %q", c.r, got, c.want)
		}
	}
}

// TestForCalibratesOnce checks the entry point's accounting: the first
// lookup of a recipe calibrates, the next is a hit on the same model,
// and a failed calibration is not cached.
func TestForCalibratesOnce(t *testing.T) {
	c := NewCache(4)
	r := Testbed("sql", 3)
	first, hit, err := For(c, r)
	if err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v, want a miss", hit, err)
	}
	again, hit, err := For(c, r)
	if err != nil || !hit || again != first {
		t.Fatalf("second lookup: hit=%v err=%v same=%v, want a hit on the first calibration", hit, err, again == first)
	}
	if _, ok := c.Peek(r.Key()); !ok {
		t.Fatalf("no entry under %q", r.Key())
	}
	for i := 0; i < 2; i++ {
		if _, hit, err := For(c, Testbed("no-such-workload", 3)); err == nil || hit {
			t.Fatalf("unknown workload: hit=%v err=%v, want an uncached failure", hit, err)
		}
	}
}

// TestSharedNeverEvictsCallerKeys checks the bound Shared's comment
// relies on: every testbed-at-ten and cloud key of the registry, plus a
// CLI command's one calibration, fit without an eviction.
func TestSharedNeverEvictsCallerKeys(t *testing.T) {
	if need := 2*len(workloads.Names()) + 1; need > sharedEntries {
		t.Fatalf("shared cache holds %d entries, callers need %d", sharedEntries, need)
	}
}
