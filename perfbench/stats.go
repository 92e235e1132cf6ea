package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile: the tail is the highest percentile that still has this
// many samples above it.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count); it sorts a copy and returns NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q·n samples at
// or below it.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// tail applies the tail rule to samples: it returns the value of the
// highest percentile with at least tailBeyond samples strictly beyond
// it, and that percentile. With n samples that is the sample of rank
// n−tailBeyond, at percentile 100·(n−tailBeyond)/n. ok is false when
// there are too few samples for any percentile to qualify.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return math.NaN(), 0, false
	}
	s := sortedCopy(xs)
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sumOf(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// digest hashes a multiset of response bodies independently of their
// order: the bodies are sorted, then hashed with length prefixes.
func digest(bodies [][]byte) string {
	s := make([]string, len(bodies))
	for i, b := range bodies {
		s[i] = string(b)
	}
	sort.Strings(s)
	h := sha256.New()
	var n [8]byte
	for _, b := range s {
		l := uint64(len(b))
		for i := range n {
			n[i] = byte(l >> (8 * i))
		}
		h.Write(n[:])
		h.Write([]byte(b))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
