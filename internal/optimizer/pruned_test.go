package optimizer

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/units"
)

// monotoneEval builds a deterministic evaluator with the Doppio model's
// guaranteed shape: runtime non-increasing in P (Eq. 1's t_scale term
// falls as 1/(N·P) and the I/O limits are independent of P). The
// device- and node-dependent coefficients come from an FNV hash of the
// spec, so every (space, seed) pair exercises a different surface.
func monotoneEval(seed uint64) Evaluator {
	coeff := func(spec cloud.ClusterSpec, salt uint64) uint64 {
		h := fnv.New64a()
		var buf [8]byte
		put := func(v uint64) {
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
		put(seed)
		put(salt)
		put(uint64(spec.Slaves))
		put(uint64(spec.HDFSType))
		put(uint64(spec.HDFSSize))
		put(uint64(spec.LocalType))
		put(uint64(spec.LocalSize))
		return h.Sum64()
	}
	return func(spec cloud.ClusterSpec) (time.Duration, error) {
		scale := time.Duration(coeff(spec, 1)%uint64(4*time.Hour)) / time.Duration(spec.VCPUs)
		io := time.Duration(coeff(spec, 2) % uint64(2*time.Hour))
		if scale > io {
			return scale, nil
		}
		return io, nil
	}
}

// countingEval wraps an evaluator, counting calls.
func countingEval(inner Evaluator, n *atomic.Int64) Evaluator {
	return func(spec cloud.ClusterSpec) (time.Duration, error) {
		n.Add(1)
		return inner(spec)
	}
}

// randSpace draws a small random search space: distinct sorted vCPU
// values plus random device subsets.
func randSpace(r *rand.Rand) Space {
	vals := []int{1, 2, 4, 8, 16, 32, 64}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	vcpus := append([]int(nil), vals[:1+r.Intn(4)]...)
	types := [][]cloud.DiskType{
		{cloud.PDStandard},
		{cloud.PDSSD},
		{cloud.PDStandard, cloud.PDSSD},
	}
	sizes := []units.ByteSize{
		20 * units.GB, 100 * units.GB, 500 * units.GB, units.TB, 4 * units.TB,
	}
	pick := func() []units.ByteSize {
		n := 1 + r.Intn(3)
		out := make([]units.ByteSize, 0, n)
		for _, i := range r.Perm(len(sizes))[:n] {
			out = append(out, sizes[i])
		}
		return out
	}
	return Space{
		Slaves:     1 + r.Intn(32),
		VCPUs:      vcpus,
		HDFSTypes:  types[r.Intn(len(types))],
		HDFSSizes:  pick(),
		LocalTypes: types[r.Intn(len(types))],
		LocalSizes: pick(),
	}
}

func randPricing(r *rand.Rand) cloud.Pricing {
	p := cloud.DefaultPricing()
	p.VCPUPerHour *= 0.5 + r.Float64()
	p.StandardPerGBMonth *= 0.5 + r.Float64()
	p.SSDPerGBMonth *= 0.5 + r.Float64()
	return p
}

// TestPrunedMatchesGrid is the satellite property test: over ~200
// randomized (space, pricing, constraints) triples with model-shaped
// evaluators, PrunedSearch returns exactly Filter(GridSearch(...)) and
// its accounting always satisfies Evaluated + Pruned == Total.
func TestPrunedMatchesGrid(t *testing.T) {
	r := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 200; trial++ {
		space := randSpace(r)
		pricing := randPricing(r)
		eval := monotoneEval(r.Uint64())

		grid, err := GridSearch(space, eval, pricing)
		if err != nil {
			t.Fatalf("trial %d: grid: %v", trial, err)
		}

		// Derive constraints that actually land inside the result
		// distribution so all prune branches get exercised: none, a
		// deadline quantile, a budget quantile, and both.
		var cons Constraints
		switch trial % 4 {
		case 1:
			cons.Deadline = grid[r.Intn(len(grid))].Time
		case 2:
			cons.Budget = grid[r.Intn(len(grid))].Cost
		case 3:
			cons.Deadline = grid[r.Intn(len(grid))].Time
			cons.Budget = grid[r.Intn(len(grid))].Cost
		}

		rep, err := PrunedSearch(space, eval, pricing, cons)
		if err != nil {
			t.Fatalf("trial %d: pruned: %v", trial, err)
		}
		want := Filter(grid, cons)
		if !reflect.DeepEqual(rep.Candidates, want) {
			t.Fatalf("trial %d (cons %+v): pruned returned %d candidates, filter %d:\n got %+v\nwant %+v",
				trial, cons, len(rep.Candidates), len(want), rep.Candidates, want)
		}
		if rep.Evaluated+rep.Pruned != rep.Total || rep.Total != space.Size() {
			t.Fatalf("trial %d: accounting %d evaluated + %d pruned != %d total (space %d)",
				trial, rep.Evaluated, rep.Pruned, rep.Total, space.Size())
		}
	}
}

// TestPrunedSavesEvaluations pins the point of pruning: under a binding
// deadline, PrunedSearch performs strictly fewer evaluator calls than
// the space holds, and the report's Evaluated matches the real count.
func TestPrunedSavesEvaluations(t *testing.T) {
	space := DefaultSpace(10)
	pricing := cloud.DefaultPricing()
	base := monotoneEval(7)

	grid, err := GridSearch(space, base, pricing)
	if err != nil {
		t.Fatal(err)
	}
	// A deadline at the fast end of the distribution: most slices should
	// die after their first (largest-P) evaluation.
	cons := Constraints{Deadline: grid[0].Time}

	var calls atomic.Int64
	rep, err := PrunedSearch(space, countingEval(base, &calls), pricing, cons)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(calls.Load()); got != rep.Evaluated {
		t.Fatalf("reported %d evaluations, evaluator saw %d", rep.Evaluated, got)
	}
	if rep.Evaluated >= space.Size() {
		t.Fatalf("binding deadline pruned nothing: %d evaluations for %d points", rep.Evaluated, space.Size())
	}
	if rep.Pruned == 0 {
		t.Fatal("expected a non-zero pruned count")
	}
	if !reflect.DeepEqual(rep.Candidates, Filter(grid, cons)) {
		t.Fatal("pruned candidates diverge from filtered grid")
	}
}

// TestPrunedUnconstrainedEqualsGrid covers the fall-through: with no
// constraints the search is the plain grid (and reports full
// evaluation) over the entire DefaultSpace.
func TestPrunedUnconstrainedEqualsGrid(t *testing.T) {
	space := DefaultSpace(10)
	pricing := cloud.DefaultPricing()
	eval := monotoneEval(11)

	grid, err := GridSearch(space, eval, pricing)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := PrunedSearch(space, eval, pricing, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Candidates, grid) {
		t.Fatal("unconstrained pruned search diverges from grid")
	}
	if rep.Evaluated != space.Size() || rep.Pruned != 0 {
		t.Fatalf("unconstrained search reported %d evaluated, %d pruned (space %d)",
			rep.Evaluated, rep.Pruned, space.Size())
	}
}

// TestGridSearchBatchMatchesPool pins the equivalence of the search
// walk (a CompiledEvaluator's pairs priced through PredictBatch and
// MemTotal) and the classic worker-pool path (per-spec Evaluate) over
// the same evaluator: byte-identical candidate lists on the full
// default space.
func TestGridSearchBatchMatchesPool(t *testing.T) {
	model := calibrateOnCloud(t)
	eval := ModelEvaluator(model)
	space := DefaultSpace(10)
	pricing := cloud.DefaultPricing()

	walk, err := GridSearch(space, eval, pricing)
	if err != nil {
		t.Fatal(err)
	}
	// Wrapping the method in the plain function type hides the
	// CompiledEvaluator, forcing the pool path over the identical
	// predictions.
	pool, err := GridSearch(space, Evaluator(eval.Evaluate), pricing)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(walk, pool) {
		t.Fatalf("walk and pool grid searches diverge:\n walk %+v\n pool %+v", walk[0], pool[0])
	}
}

// TestCoordinateDescentMemo pins the visited-set satellite: descent
// never calls the evaluator twice for the same spec, and the reported
// count equals the number of distinct specs probed.
func TestCoordinateDescentMemo(t *testing.T) {
	space := DefaultSpace(10)
	pricing := cloud.DefaultPricing()
	seen := make(map[cloud.ClusterSpec]int)
	eval := func(spec cloud.ClusterSpec) (time.Duration, error) {
		seen[spec]++
		return monotoneEval(3)(spec)
	}
	start := cloud.ClusterSpec{
		Slaves: 10, VCPUs: 16,
		HDFSType: cloud.PDStandard, HDFSSize: units.TB,
		LocalType: cloud.PDStandard, LocalSize: units.TB,
	}
	_, evals, err := CoordinateDescent(space, start, Evaluator(eval), pricing)
	if err != nil {
		t.Fatal(err)
	}
	for spec, n := range seen {
		if n > 1 {
			t.Fatalf("spec %v evaluated %d times; memo should make revisits free", spec, n)
		}
	}
	if evals != len(seen) {
		t.Fatalf("reported %d evaluations, evaluator saw %d distinct specs", evals, len(seen))
	}
}

// TestCandCompareTotalOrder pins the tie-break satellite: equal-cost,
// equal-time candidates order deterministically by shape and device
// fields, so GridSearch output is stable across enumeration orders.
func TestCandCompareTotalOrder(t *testing.T) {
	spec := func(v int, lt cloud.DiskType, ls units.ByteSize) cloud.ClusterSpec {
		return cloud.ClusterSpec{
			Slaves: 4, VCPUs: v,
			HDFSType: cloud.PDStandard, HDFSSize: units.TB,
			LocalType: lt, LocalSize: ls,
		}
	}
	a := Candidate{Spec: spec(8, cloud.PDSSD, units.TB), Time: time.Hour, Cost: 10}
	b := Candidate{Spec: spec(8, cloud.PDStandard, units.TB), Time: time.Hour, Cost: 10}
	c := Candidate{Spec: spec(16, cloud.PDSSD, units.TB), Time: time.Hour, Cost: 10}
	d := Candidate{Spec: spec(8, cloud.PDSSD, 2*units.TB), Time: time.Hour, Cost: 10}

	// Device names order lexicographically ("pd-ssd" < "pd-standard"),
	// more vCPUs after fewer, larger local disks after smaller.
	if candCompare(a, b) >= 0 || candCompare(a, c) >= 0 || candCompare(a, d) >= 0 {
		t.Fatal("tie-break order violated")
	}
	if candCompare(a, a) != 0 {
		t.Fatal("identical candidates must compare equal")
	}
	// Antisymmetry on every pair.
	for _, x := range []Candidate{a, b, c, d} {
		for _, y := range []Candidate{a, b, c, d} {
			if candCompare(x, y) != -candCompare(y, x) {
				t.Fatalf("candCompare not antisymmetric for %+v vs %+v", x, y)
			}
		}
	}
}

// BenchmarkPrunedSearch prices the constrained search on the default
// space with a mid-distribution deadline — the setting where pruning
// pays.
func BenchmarkPrunedSearch(b *testing.B) {
	model := benchModel()
	eval := ModelEvaluator(model)
	space := benchSpace()
	pricing := cloud.DefaultPricing()
	grid, err := GridSearch(space, eval, pricing)
	if err != nil {
		b.Fatal(err)
	}
	cons := Constraints{Deadline: grid[len(grid)/4].Time}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PrunedSearch(space, eval, pricing, cons); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSortCandsMatchesCompareSort checks the keyed ranking against a
// comparison sort under candCompare, on candidates drawn from few
// costs and runtimes so that most comparisons fall through to the
// tie-breaks. The full ranking must equal the sort, and the top-K
// selection for every K in {1, 5, n-1, n, n+10} must be exactly the
// sort's first K, leaving its input as it was.
func TestSortCandsMatchesCompareSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	space := DefaultSpace(4)
	space.HeapGBs = []float64{2, 8}
	specs := space.Specs()
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(len(specs) + 1)
		cands := make([]Candidate, n)
		for i := range cands {
			cands[i] = Candidate{
				Spec: specs[r.Intn(len(specs))],
				Time: time.Duration(r.Intn(3)) * time.Minute,
				Cost: float64(r.Intn(4)),
			}
		}
		in := slices.Clone(cands)
		want := slices.Clone(cands)
		slices.SortFunc(want, candCompare)
		if got := new(gridScratch).top(cands, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d): keyed sort diverges from candCompare order", trial, n)
		}
		for _, k := range []int{1, 5, n - 1, n, n + 10} {
			if k < 1 {
				continue // k = 0 asks for every candidate, checked above
			}
			if got := new(gridScratch).top(cands, k); !reflect.DeepEqual(got, want[:min(k, n)]) {
				t.Fatalf("trial %d (n=%d, k=%d): selection is not the sort's prefix", trial, n, k)
			}
			if !reflect.DeepEqual(cands, in) {
				t.Fatalf("trial %d (n=%d, k=%d): selection reordered its input", trial, n, k)
			}
		}
	}
}

// TestPrunedSearchTopIsPrefix checks PrunedSearchTop on the compiled
// evaluator against PrunedSearch through the per-spec Evaluate path:
// the candidates must be the full list's first top, and the
// accounting must not move. It covers the memory-free and heap-axis
// spaces, the unconstrained grid, a deadline, a budget, and a deadline
// that admits fewer candidates than top.
func TestPrunedSearchTopIsPrefix(t *testing.T) {
	model := benchModel()
	pricing := cloud.DefaultPricing()
	for _, heaps := range [][]float64{nil, {32, 0.5, 7.5, 2}} {
		space := DefaultSpace(12)
		space.HeapGBs = heaps
		eval := ModelEvaluator(model)
		perSpec := Evaluator(eval.Evaluate)
		grid, err := GridSearch(space, perSpec, pricing)
		if err != nil {
			t.Fatal(err)
		}
		times := make([]time.Duration, len(grid))
		for i, c := range grid {
			times[i] = c.Time
		}
		slices.Sort(times)
		scarce := Constraints{Deadline: times[2]}
		for _, cons := range []Constraints{{}, {Deadline: grid[len(grid)/4].Time}, {Budget: grid[len(grid)/2].Cost}, scarce} {
			full, err := PrunedSearch(space, perSpec, pricing, cons)
			if err != nil {
				t.Fatal(err)
			}
			if cons == scarce && len(full.Candidates) >= 5 {
				t.Fatalf("heaps %v: deadline %v admits %d candidates, want fewer than 5", heaps, cons.Deadline, len(full.Candidates))
			}
			for _, top := range []int{0, 1, 5, 50, len(grid) + 10} {
				got, err := PrunedSearchTop(space, eval, pricing, cons, top)
				if err != nil {
					t.Fatal(err)
				}
				want := full
				if top > 0 && top < len(want.Candidates) {
					want.Candidates = want.Candidates[:top]
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("heaps %v, %+v, top %d: got %d candidates (evaluated %d, pruned %d), want %d (evaluated %d, pruned %d)",
						heaps, cons, top, len(got.Candidates), got.Evaluated, got.Pruned,
						len(want.Candidates), want.Evaluated, want.Pruned)
				}
			}
		}
	}
}
