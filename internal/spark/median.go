package spark

import "time"

// medianTracker maintains the running median of completed task
// durations in O(log n) per insertion, replacing the insertion-sorted
// slice the speculation scan used to keep (O(n) memmove per completion,
// quadratic over a 100k-task stage). It is the classic two-heap
// construction: lo is a max-heap holding the smaller ⌊n/2⌋ durations,
// hi a min-heap holding the rest, and the median is hi's minimum —
// exactly the upper median sorted[n/2] the sorted slice indexed, so the
// speculation threshold is unchanged to the nanosecond (pinned against
// the sorted-slice oracle in median_test.go).
type medianTracker struct {
	lo []time.Duration // max-heap: smaller half
	hi []time.Duration // min-heap: larger half (never smaller than lo)
	n  int
}

// reset empties the tracker for roughly hint values, keeping the heaps'
// storage when it is large enough.
func (m *medianTracker) reset(hint int) {
	if hint < 0 {
		hint = 0
	}
	if k := hint/2 + 1; cap(m.lo) < k || cap(m.hi) < k {
		m.lo = make([]time.Duration, 0, k)
		m.hi = make([]time.Duration, 0, k)
	}
	m.lo, m.hi, m.n = m.lo[:0], m.hi[:0], 0
}

// Len returns the number of recorded durations.
func (m *medianTracker) Len() int { return m.n }

// Median returns the upper median (sorted[n/2], 0-indexed) of the
// recorded durations; zero when empty.
func (m *medianTracker) Median() time.Duration {
	if m.n == 0 {
		return 0
	}
	return m.hi[0]
}

// Add records one duration.
func (m *medianTracker) Add(d time.Duration) {
	if len(m.hi) == 0 || d >= m.hi[0] {
		m.hi = pushMin(m.hi, d)
	} else {
		m.lo = pushMax(m.lo, d)
	}
	// Rebalance to |lo| = ⌊n/2⌋, |hi| = ⌈n/2⌉.
	if len(m.lo) > len(m.hi) {
		var v time.Duration
		m.lo, v = popMax(m.lo)
		m.hi = pushMin(m.hi, v)
	} else if len(m.hi) > len(m.lo)+1 {
		var v time.Duration
		m.hi, v = popMin(m.hi)
		m.lo = pushMax(m.lo, v)
	}
	m.n++
}

// The sift helpers are hand-rolled on plain slices (rather than
// container/heap) so insertions stay free of interface allocations.

func pushMin(h []time.Duration, v time.Duration) []time.Duration {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func popMin(h []time.Duration) ([]time.Duration, time.Duration) {
	v := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h[l] < h[s] {
			s = l
		}
		if r < n && h[r] < h[s] {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return h, v
}

func pushMax(h []time.Duration, v time.Duration) []time.Duration {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func popMax(h []time.Duration) ([]time.Duration, time.Duration) {
	v := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h[l] > h[s] {
			s = l
		}
		if r < n && h[r] > h[s] {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return h, v
}
