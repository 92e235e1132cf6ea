package spark

import (
	"sort"
	"testing"
	"time"
)

// oracleMedian is the naive sorted-slice upper median the speculation
// scan historically used: insert-sort every value, read sorted[n/2].
type oracleMedian struct{ ds []time.Duration }

func (o *oracleMedian) Add(d time.Duration) {
	i := sort.Search(len(o.ds), func(i int) bool { return o.ds[i] >= d })
	o.ds = append(o.ds, 0)
	copy(o.ds[i+1:], o.ds[i:])
	o.ds[i] = d
}

func (o *oracleMedian) Median() time.Duration {
	if len(o.ds) == 0 {
		return 0
	}
	return o.ds[len(o.ds)/2]
}

// splitmix is a tiny deterministic generator for test inputs.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestMedianTrackerMatchesOracle pins the two-heap running median
// against the sorted-slice oracle after every insertion, across
// several input shapes (random, sorted, reverse-sorted, heavy ties).
func TestMedianTrackerMatchesOracle(t *testing.T) {
	shapes := map[string]func(i int) time.Duration{
		"random":  func(i int) time.Duration { return time.Duration(splitmix(uint64(i)) % 1_000_000) },
		"sorted":  func(i int) time.Duration { return time.Duration(i) },
		"reverse": func(i int) time.Duration { return time.Duration(5000 - i) },
		"ties":    func(i int) time.Duration { return time.Duration(splitmix(uint64(i)) % 7) },
	}
	for name, gen := range shapes {
		t.Run(name, func(t *testing.T) {
			m := new(medianTracker)
			var o oracleMedian
			if got := m.Median(); got != 0 {
				t.Fatalf("empty tracker Median() = %v, want 0", got)
			}
			for i := 0; i < 5000; i++ {
				d := gen(i)
				m.Add(d)
				o.Add(d)
				if m.Len() != i+1 {
					t.Fatalf("after %d adds Len() = %d", i+1, m.Len())
				}
				if got, want := m.Median(), o.Median(); got != want {
					t.Fatalf("after %d adds Median() = %v, oracle %v", i+1, got, want)
				}
			}
		})
	}
}
