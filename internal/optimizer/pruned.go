package optimizer

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cloud"
)

// Constraints bound a provisioning search. Zero values mean
// unconstrained: a Deadline of 0 admits any runtime, a Budget of 0 any
// cost.
type Constraints struct {
	// Deadline is the longest admissible predicted runtime.
	Deadline time.Duration
	// Budget is the highest admissible dollar cost for the run.
	Budget float64
}

// constrained reports whether any bound is active.
func (c Constraints) constrained() bool { return c.Deadline > 0 || c.Budget > 0 }

// admits reports whether a candidate of runtime t and cost satisfies
// the constraints.
func (c Constraints) admits(t time.Duration, cost float64) bool {
	return (c.Deadline <= 0 || t <= c.Deadline) && (c.Budget <= 0 || cost <= c.Budget)
}

// SearchReport is a constrained search's result: the feasible
// candidates in candCompare order, plus an accounting of how much of
// the space the search actually evaluated. Evaluated + Pruned == Total
// always holds.
type SearchReport struct {
	// Candidates are the feasible configurations, cheapest first (only
	// the first top of them from PrunedSearchTop).
	Candidates []Candidate
	// Evaluated counts model evaluations performed.
	Evaluated int
	// Pruned counts configurations rejected without evaluation.
	Pruned int
	// Total is the size of the search space.
	Total int
}

// Filter drops candidates that violate the constraints, preserving
// order. It is the reference semantics for PrunedSearch:
// PrunedSearch(space, eval, pricing, cons).Candidates is provably — and
// property-tested — equal to Filter(GridSearch(space, eval, pricing),
// cons).
func Filter(cands []Candidate, cons Constraints) []Candidate {
	out := make([]Candidate, 0, len(cands))
	for _, c := range cands {
		if cons.admits(c.Time, c.Cost) {
			out = append(out, c)
		}
	}
	return out
}

// PrunedSearch is GridSearch under constraints, exact but lazy: it
// exploits the monotonicity of Eq. 1 in the parallelism axis to skip
// subspaces that cannot contain a feasible configuration, without ever
// skipping one that can.
//
// The pruning argument, from the paper's model structure:
//
//   - t_scale ∝ 1/(N·P) and the I/O limit terms ∝ 1/N, so along the P
//     axis (devices and N fixed) predicted runtime is non-increasing in
//     P: T(P) ≥ T(Pmax) for every P ≤ Pmax. Evaluating the largest P
//     first therefore yields a lower bound tFloor on the whole slice,
//     and as P decreases runtime only grows — the first P whose runtime
//     exceeds the deadline proves every smaller P infeasible.
//   - $/hr is strictly increasing in P and independent of runtime, so
//     cost(P) = $/hr(P)·T(P) has no such shape — but spec.Cost(tFloor)
//     is a valid lower bound on cost(P) for each P (same $/hr,
//     runtime ≥ tFloor ≥ 0, both non-negative), so a budget below it
//     proves P infeasible without evaluation.
//
// Both bounds rest on runtime being non-increasing in P — Eq. 1's
// guaranteed shape for the Doppio evaluator — and under it they only
// ever reject points whose true (time, cost) Filter would also have
// rejected. The result is therefore exactly Filter(GridSearch(...)),
// with strictly fewer evaluations whenever a constraint binds
// (TestPrunedMatchesGrid pins the equivalence on randomized monotone
// spaces and pricings).
//
// A heap axis (Space.HeapGBs) changes which monotonicity is available:
// the t_mem_limit term's device bound grows with P (more concurrent
// working sets spill more), so runtime is no longer guaranteed
// non-increasing in P. It IS non-increasing in the heap — a larger heap
// only removes spill and GC (TestMemLimitMonotoneInHeap in
// internal/core pins this) — and $/hr is strictly increasing in it, the
// exact structure the P argument needs. Heap-axis searches therefore
// prune along descending HeapGB per (devices, P) slice and evaluate
// every P; memory-free spaces keep the legacy P pruning unchanged.
//
// On a CompiledEvaluator, constrained and unconstrained searches take
// the same walk (see pairScope); unconstrained, it prunes nothing and
// reports Evaluated == Total. An unconstrained search on any other
// evaluator fans out over a worker pool instead.
func PrunedSearch(space Space, eval SpecEvaluator, pricing cloud.Pricing, cons Constraints) (SearchReport, error) {
	return PrunedSearchTop(space, eval, pricing, cons, 0)
}

// PrunedSearchTop is PrunedSearch keeping only the top cheapest
// feasible candidates: its Candidates are exactly the first top of
// PrunedSearch's (all of them when top is 0 or exceeds their number).
// Evaluated, Pruned and Total do not depend on top. The search selects
// them with a bounded heap instead of sorting every feasible
// candidate, so a caller that shows a handful of configurations does
// not pay for ranking the whole space.
func PrunedSearchTop(space Space, eval SpecEvaluator, pricing cloud.Pricing, cons Constraints, top int) (SearchReport, error) {
	total := space.Size()
	if total == 0 {
		return SearchReport{}, fmt.Errorf("optimizer: empty search space")
	}
	rep := SearchReport{Total: total}
	g := gridPool.Get().(*gridScratch)
	defer gridPool.Put(g)
	if _, compiled := eval.(*CompiledEvaluator); !compiled && !cons.constrained() {
		cands, err := poolSearch(space, eval, pricing)
		if err != nil {
			return SearchReport{}, err
		}
		rep.Candidates, rep.Evaluated = g.top(cands, top), total
		return rep, nil
	}
	g.cands = g.cands[:0]

	heapAxis := len(space.HeapGBs) > 0
	// Parallelism values, largest first (the space may list them in any
	// order): with no heap axis the head of each P slice is its runtime
	// lower bound.
	g.vcpus = append(g.vcpus[:0], space.VCPUs...)
	slices.Sort(g.vcpus)
	slices.Reverse(g.vcpus)
	// Heap values, largest first, for heap-axis slices: a slice's k-th
	// point carries heaps[k].
	g.heaps = append(g.heaps[:0], space.heaps()...)
	slices.Sort(g.heaps)
	slices.Reverse(g.heaps)
	scope := newPairScope(eval, space, g)

	// pruneSlice walks one monotone slice of the bound pair, descending
	// along the axis that guarantees non-increasing runtime: with a heap
	// axis the heaps at P = vcpus[v], without one the P axis. The head
	// evaluation is the slice's runtime floor, a deadline miss proves the
	// rest infeasible, and $/hr·tFloor lower-bounds each later point's
	// cost.
	sliceLen := len(g.vcpus)
	if heapAxis {
		sliceLen = len(g.heaps)
	}
	pruneSlice := func(base cloud.ClusterSpec, price cloud.PairPrice, v int) error {
		var tFloor time.Duration
		dead := false
		for k := 0; k < sliceLen; k++ {
			if dead {
				rep.Pruned++
				continue
			}
			h := 0
			if heapAxis {
				h = k
			} else {
				v = k
			}
			spec := base
			spec.VCPUs, spec.HeapGB = g.vcpus[v], g.heaps[h]
			if k > 0 && cons.Budget > 0 && price.Cost(spec.VCPUs, spec.HeapGB, tFloor) > cons.Budget {
				// $/hr at this point times the slice's runtime floor already
				// exceeds the budget; the true cost is at least that.
				rep.Pruned++
				continue
			}
			d, err := scope.evaluate(spec, v, h)
			if err != nil {
				return fmt.Errorf("optimizer: evaluating %v: %w", spec, err)
			}
			rep.Evaluated++
			if k == 0 || d < tFloor {
				tFloor = d
			}
			if cons.Deadline > 0 && d > cons.Deadline {
				// Runtime is non-increasing along the slice: every remaining
				// point is at least as slow.
				dead = true
			}
			if cost := price.Cost(spec.VCPUs, spec.HeapGB, d); cons.admits(d, cost) {
				g.cands = append(g.cands, Candidate{Spec: spec, Time: d, Cost: cost})
			}
		}
		return nil
	}

	// The walk visits device pairs in space order: one slice per pair
	// without a heap axis, one per (pair, P) with one. Each pair's disk
	// prices are resolved once, for every spec priced on it.
	for _, ht := range space.HDFSTypes {
		for _, hs := range space.HDFSSizes {
			local := 0
			for _, lt := range space.LocalTypes {
				for _, ls := range space.LocalSizes {
					base := cloud.ClusterSpec{
						Slaves:   space.Slaves,
						HDFSType: ht, HDFSSize: hs,
						LocalType: lt, LocalSize: ls,
					}
					if err := scope.bind(base, local); err != nil {
						return SearchReport{}, err
					}
					local++
					price := pricing.PairPrice(base)
					for v := range g.vcpus {
						if err := pruneSlice(base, price, v); err != nil {
							return SearchReport{}, err
						}
						if !heapAxis {
							break
						}
					}
				}
			}
		}
	}
	rep.Candidates = g.top(g.cands, top)
	return rep, nil
}
