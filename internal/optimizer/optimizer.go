// Package optimizer solves the paper's Section VI configuration
// problem: minimise Cost = f(P, DiskTypes, DiskSize_HDFS,
// DiskSize_Local, Time) over the Google Cloud provisioning space, where
// Time comes from the calibrated Doppio model (so the search costs
// model evaluations, not cluster-hours).
package optimizer

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/experiments/sweep"
	"repro/internal/spark"
	"repro/internal/units"
)

// SpecEvaluator predicts the application runtime on a candidate
// configuration. Evaluators must be safe for concurrent use: the
// searches fan evaluations out over a worker pool.
type SpecEvaluator interface {
	Evaluate(spec cloud.ClusterSpec) (time.Duration, error)
}

// Evaluator is the plain-function evaluator form (the simulator-backed
// evaluator and most test evaluators). It implements SpecEvaluator.
type Evaluator func(spec cloud.ClusterSpec) (time.Duration, error)

// Evaluate implements SpecEvaluator.
func (f Evaluator) Evaluate(spec cloud.ClusterSpec) (time.Duration, error) { return f(spec) }

// SimEvaluator builds an Evaluator that runs the full cluster simulator
// — the "measured" side used to verify the optimizer's picks (paper
// Section VI-2).
func SimEvaluator(build func(spark.ClusterConfig) spark.App) Evaluator {
	return func(spec cloud.ClusterSpec) (time.Duration, error) {
		cfg := spec.ClusterConfig()
		res, err := spark.Run(cfg, build(cfg))
		if err != nil {
			return 0, err
		}
		return res.Total, nil
	}
}

// Candidate is one evaluated configuration.
type Candidate struct {
	Spec cloud.ClusterSpec
	Time time.Duration
	Cost float64
}

// Space is the discrete search space.
type Space struct {
	Slaves     int
	VCPUs      []int
	HDFSTypes  []cloud.DiskType
	HDFSSizes  []units.ByteSize
	LocalTypes []cloud.DiskType
	LocalSizes []units.ByteSize
	// HeapGBs is the optional per-node executor-heap axis. Empty keeps
	// the legacy memory-free space: every spec carries HeapGB 0 and the
	// search is unchanged down to the bit pattern of its costs.
	HeapGBs []float64
}

// heaps returns the heap axis with the memory-free default applied.
func (s Space) heaps() []float64 {
	if len(s.HeapGBs) == 0 {
		return []float64{0}
	}
	return s.HeapGBs
}

// DefaultSpace mirrors the paper's exploration: 16-vCPU workers (their
// fixed choice from [33]) plus smaller machines, disk sizes from 20 GB
// to 3.2 TB, both disk types for Spark Local, pd-standard for HDFS
// (the paper reports SSD HDFS brings no further savings — the optimizer
// can check that by including it).
func DefaultSpace(slaves int) Space {
	sizes := []units.ByteSize{
		20 * units.GB, 50 * units.GB, 100 * units.GB, 200 * units.GB,
		500 * units.GB, units.TB, 2 * units.TB, ByteTB(3.2),
	}
	return Space{
		Slaves:     slaves,
		VCPUs:      []int{4, 8, 16, 32},
		HDFSTypes:  []cloud.DiskType{cloud.PDStandard, cloud.PDSSD},
		HDFSSizes:  []units.ByteSize{500 * units.GB, units.TB, 2 * units.TB, 4 * units.TB},
		LocalTypes: []cloud.DiskType{cloud.PDStandard, cloud.PDSSD},
		LocalSizes: sizes,
	}
}

// ByteTB builds fractional-terabyte sizes (3.2 TB appears throughout
// the paper's sweeps).
func ByteTB(v float64) units.ByteSize {
	return units.ByteSize(v * 1024 * 1024 * float64(units.MB))
}

// Size reports the number of candidate configurations in the space.
func (s Space) Size() int {
	return len(s.VCPUs) * len(s.HDFSTypes) * len(s.HDFSSizes) *
		len(s.LocalTypes) * len(s.LocalSizes) * len(s.heaps())
}

// Specs enumerates the space's candidate configurations in
// deterministic row-major order.
func (s Space) Specs() []cloud.ClusterSpec {
	out := make([]cloud.ClusterSpec, 0, s.Size())
	for _, v := range s.VCPUs {
		for _, ht := range s.HDFSTypes {
			for _, hs := range s.HDFSSizes {
				for _, lt := range s.LocalTypes {
					for _, ls := range s.LocalSizes {
						for _, hp := range s.heaps() {
							out = append(out, cloud.ClusterSpec{
								Slaves: s.Slaves, VCPUs: v,
								HDFSType: ht, HDFSSize: hs,
								LocalType: lt, LocalSize: ls,
								HeapGB: hp,
							})
						}
					}
				}
			}
		}
	}
	return out
}

// candCompare is the total order on candidates: cost, then runtime,
// then nodes, cores and device names. Every code path that ranks
// candidates (GridSearch, PrunedSearch, Best) uses it, so equal-cost
// configurations order identically across runs and across search
// strategies — the pre-fix sort was stable only on cost, which made
// optimizer tables flap between -parallel runs.
func candCompare(a, b Candidate) int {
	switch {
	case a.Cost != b.Cost:
		return cmpOrd(a.Cost, b.Cost)
	case a.Time != b.Time:
		return cmpOrd(a.Time, b.Time)
	case a.Spec.Slaves != b.Spec.Slaves:
		return cmpOrd(a.Spec.Slaves, b.Spec.Slaves)
	case a.Spec.VCPUs != b.Spec.VCPUs:
		return cmpOrd(a.Spec.VCPUs, b.Spec.VCPUs)
	case a.Spec.HDFSType != b.Spec.HDFSType:
		return cmpOrd(a.Spec.HDFSType.String(), b.Spec.HDFSType.String())
	case a.Spec.HDFSSize != b.Spec.HDFSSize:
		return cmpOrd(a.Spec.HDFSSize, b.Spec.HDFSSize)
	case a.Spec.LocalType != b.Spec.LocalType:
		return cmpOrd(a.Spec.LocalType.String(), b.Spec.LocalType.String())
	case a.Spec.LocalSize != b.Spec.LocalSize:
		return cmpOrd(a.Spec.LocalSize, b.Spec.LocalSize)
	default:
		return cmpOrd(a.Spec.HeapGB, b.Spec.HeapGB)
	}
}

func cmpOrd[T int | float64 | time.Duration | units.ByteSize | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// GridSearch evaluates the full space and returns candidates sorted
// cheapest-first under the candCompare total order: PrunedSearch
// without constraints. On a CompiledEvaluator it is the search walk
// (see pairScope); any other evaluator fans out over a
// GOMAXPROCS-sized worker pool, so each simulator-backed evaluation
// gains the full core count. Ranking erases enumeration order, since
// candCompare is a total order, so both give the same list
// (TestGridSearchBatchMatchesPool pins the equivalence).
func GridSearch(space Space, eval SpecEvaluator, pricing cloud.Pricing) ([]Candidate, error) {
	rep, err := PrunedSearchTop(space, eval, pricing, Constraints{}, 0)
	return rep.Candidates, err
}

// poolSearch evaluates and prices every spec of the space through the
// worker pool, in Specs order.
func poolSearch(space Space, eval SpecEvaluator, pricing cloud.Pricing) ([]Candidate, error) {
	outcomes := sweep.Map(space.Specs(), 0, func(spec cloud.ClusterSpec) (Candidate, error) {
		d, err := eval.Evaluate(spec)
		if err != nil {
			return Candidate{}, fmt.Errorf("optimizer: evaluating %v: %w", spec, err)
		}
		return Candidate{Spec: spec, Time: d, Cost: spec.Cost(d, pricing)}, nil
	})
	return sweep.Values(outcomes)
}

// candKey pairs a candidate's cost with its slab index so sorting
// moves 16-byte keys instead of 64-byte candidates.
type candKey struct {
	cost float64
	idx  int32
}

// keyLess orders keys by cost, deferring exact-cost ties to the
// candCompare total order. Small enough to inline into sortKeys's
// loops — a closure-based sort pays an indirect call per comparison,
// which at grid sizes is most of the sort's cost.
func keyLess(a, b candKey, tie func(a, b int32) bool) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return tie(a.idx, b.idx)
}

// sortKeys is a median-of-three quicksort with an insertion-sort floor,
// specialised to candKey so the hot float comparison stays inline. Grid
// subspaces are small (tens to thousands of points), so no depth guard
// is needed; ties recurse through the tie callback only on exact cost
// collisions.
func sortKeys(keys []candKey, tie func(a, b int32) bool) {
	for len(keys) > 12 {
		m := len(keys) / 2
		last := len(keys) - 1
		if keyLess(keys[m], keys[0], tie) {
			keys[0], keys[m] = keys[m], keys[0]
		}
		if keyLess(keys[last], keys[m], tie) {
			keys[m], keys[last] = keys[last], keys[m]
			if keyLess(keys[m], keys[0], tie) {
				keys[0], keys[m] = keys[m], keys[0]
			}
		}
		pivot := keys[m]
		i, j := 0, last
		for i <= j {
			for keyLess(keys[i], pivot, tie) {
				i++
			}
			for keyLess(pivot, keys[j], tie) {
				j--
			}
			if i <= j {
				keys[i], keys[j] = keys[j], keys[i]
				i++
				j--
			}
		}
		// Recurse into the smaller side, iterate on the larger: bounds
		// stack depth by log n.
		if j < len(keys)-i {
			sortKeys(keys[:j+1], tie)
			keys = keys[i:]
		} else {
			sortKeys(keys[i:], tie)
			keys = keys[:j+1]
		}
	}
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i - 1
		for j >= 0 && keyLess(k, keys[j], tie) {
			keys[j+1] = keys[j]
			j--
		}
		keys[j+1] = k
	}
}

// selectKeys returns the first k of keys under keyLess, sorted, as a
// prefix of keys (all of keys, sorted, when k is 0 or at least
// len(keys)). It keeps the k best keys seen so far in a max-heap at
// the front, so each later key costs one comparison against the
// heap's root — almost always a float compare — and a sift only when
// it displaces the root. keyLess is a total order over distinct
// candidates, so the k it keeps are exactly the prefix a full sort
// would give.
func selectKeys(keys []candKey, k int, tie func(a, b int32) bool) []candKey {
	if k <= 0 || k >= len(keys) {
		sortKeys(keys, tie)
		return keys
	}
	top := keys[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(top, i, tie)
	}
	for _, key := range keys[k:] {
		if keyLess(key, top[0], tie) {
			top[0] = key
			siftDown(top, 0, tie)
		}
	}
	sortKeys(top, tie)
	return top
}

// siftDown restores the max-heap order of h (every key no less than
// its children under keyLess) below position i.
func siftDown(h []candKey, i int, tie func(a, b int32) bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && keyLess(h[c], h[c+1], tie) {
			c++
		}
		if !keyLess(h[i], h[c], tie) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// gridScratch is the searches' reusable working set; pooling it makes
// the steady-state search allocate only the returned candidate slice
// and its heap variants.
type gridScratch struct {
	keys  []candKey
	cands []Candidate // the walk's feasible candidates
	// The walk's axes and pairScope's tables.
	vcpus  []int
	heaps  []float64
	shapes []core.Shape
	free   []time.Duration
	mem    []time.Duration
}

var gridPool = sync.Pool{New: func() any { return new(gridScratch) }}

// grow returns s resized to n elements, reallocating only when its
// capacity is short; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// top returns the first k of cands under candCompare, cheapest first,
// in a new slice (all of them when k is 0 or at least len(cands)). It
// ranks pooled (cost, index) keys and copies each chosen candidate
// once. cands is left as it was.
func (g *gridScratch) top(cands []Candidate, k int) []Candidate {
	keys := grow(g.keys, len(cands))
	g.keys = keys
	for i, c := range cands {
		keys[i] = candKey{cost: c.Cost, idx: int32(i)}
	}
	keys = selectKeys(keys, k, func(a, b int32) bool { return candCompare(cands[a], cands[b]) < 0 })
	out := make([]Candidate, len(keys))
	for j, key := range keys {
		out[j] = cands[key.idx]
	}
	return out
}

// Best returns the cheapest candidate of a sorted or unsorted list
// (ties resolved by the candCompare total order).
func Best(cands []Candidate) (Candidate, error) {
	if len(cands) == 0 {
		return Candidate{}, fmt.Errorf("optimizer: no candidates")
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if candCompare(c, best) < 0 {
			best = c
		}
	}
	return best, nil
}

// CoordinateDescent performs the paper's gradient-descent-style search:
// from a starting spec, repeatedly move one coordinate (vCPUs, disk
// type, either disk size) to the neighbouring value that lowers cost,
// until no single move helps. It evaluates far fewer points than the
// grid and, on the convex-ish cost surfaces of Section VI, finds the
// same optimum.
// A visited-set memo makes revisits free: descent paths cross the same
// specs repeatedly (the start point is its own first neighbour wave's
// anchor, and adjacent waves share most of their neighbourhoods), so
// only first visits count toward the returned evaluation count.
func CoordinateDescent(space Space, start cloud.ClusterSpec, eval SpecEvaluator, pricing cloud.Pricing) (Candidate, int, error) {
	evals := 0
	visited := make(map[cloud.ClusterSpec]Candidate)
	score := func(s cloud.ClusterSpec) (Candidate, error) {
		if c, ok := visited[s]; ok {
			return c, nil
		}
		evals++
		d, err := eval.Evaluate(s)
		if err != nil {
			return Candidate{}, err
		}
		c := Candidate{Spec: s, Time: d, Cost: s.Cost(d, pricing)}
		visited[s] = c
		return c, nil
	}
	cur, err := score(start)
	if err != nil {
		return Candidate{}, evals, err
	}
	for {
		improved := false
		for _, n := range neighbours(space, cur.Spec) {
			c, err := score(n)
			if err != nil {
				return Candidate{}, evals, err
			}
			if c.Cost < cur.Cost {
				cur = c
				improved = true
			}
		}
		if !improved {
			return cur, evals, nil
		}
	}
}

// neighbours enumerates single-coordinate moves within the space.
func neighbours(space Space, s cloud.ClusterSpec) []cloud.ClusterSpec {
	var out []cloud.ClusterSpec
	add := func(n cloud.ClusterSpec) { out = append(out, n) }
	for _, v := range adjacentInts(space.VCPUs, s.VCPUs) {
		n := s
		n.VCPUs = v
		add(n)
	}
	for _, sz := range adjacentSizes(space.HDFSSizes, s.HDFSSize) {
		n := s
		n.HDFSSize = sz
		add(n)
	}
	for _, sz := range adjacentSizes(space.LocalSizes, s.LocalSize) {
		n := s
		n.LocalSize = sz
		add(n)
	}
	for _, hp := range adjacentFloats(space.HeapGBs, s.HeapGB) {
		n := s
		n.HeapGB = hp
		add(n)
	}
	// Disk-type switches are paired with every size: the cost surface has
	// a valley between "large HDD" and "small SSD" optima (the paper's
	// Fig. 13 vs Fig. 15), and a type flip at constant size cannot cross
	// it.
	for _, t := range space.LocalTypes {
		if t == s.LocalType {
			continue
		}
		for _, sz := range space.LocalSizes {
			n := s
			n.LocalType = t
			n.LocalSize = sz
			add(n)
		}
	}
	for _, t := range space.HDFSTypes {
		if t == s.HDFSType {
			continue
		}
		for _, sz := range space.HDFSSizes {
			n := s
			n.HDFSType = t
			n.HDFSSize = sz
			add(n)
		}
	}
	return out
}

func adjacentInts(vals []int, cur int) []int {
	sorted := append([]int(nil), vals...)
	sort.Ints(sorted)
	var out []int
	for i, v := range sorted {
		if v == cur {
			if i > 0 {
				out = append(out, sorted[i-1])
			}
			if i < len(sorted)-1 {
				out = append(out, sorted[i+1])
			}
			return out
		}
	}
	// Current value outside the space: allow any entry as a move.
	return sorted
}

func adjacentFloats(vals []float64, cur float64) []float64 {
	if len(vals) == 0 {
		// No heap axis: the coordinate does not exist, so no moves.
		return nil
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	var out []float64
	for i, v := range sorted {
		if v == cur {
			if i > 0 {
				out = append(out, sorted[i-1])
			}
			if i < len(sorted)-1 {
				out = append(out, sorted[i+1])
			}
			return out
		}
	}
	return sorted
}

func adjacentSizes(vals []units.ByteSize, cur units.ByteSize) []units.ByteSize {
	sorted := append([]units.ByteSize(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var out []units.ByteSize
	for i, v := range sorted {
		if v == cur {
			if i > 0 {
				out = append(out, sorted[i-1])
			}
			if i < len(sorted)-1 {
				out = append(out, sorted[i+1])
			}
			return out
		}
	}
	return sorted
}
