package optimizer

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/units"
)

// heapEval builds a deterministic evaluator with the shape the
// heap-axis pruning is allowed to assume — runtime non-increasing in
// HeapGB — while deliberately NOT monotone in P: a spill term that
// grows with P and shrinks linearly to zero at 64 GB of heap, on top of
// the usual hashed surface. This is the model's behaviour once memory
// binds (t_mem_limit's device bound grows with the wave size P·ws).
func heapEval(seed uint64) Evaluator {
	base := monotoneEval(seed)
	return func(spec cloud.ClusterSpec) (time.Duration, error) {
		d, err := base(spec)
		if err != nil {
			return 0, err
		}
		if spec.HeapGB < 64 {
			noHeap := spec
			noHeap.HeapGB = 0
			spill, err := base(noHeap)
			if err != nil {
				return 0, err
			}
			frac := (64 - spec.HeapGB) / 64
			d += time.Duration(float64(spill) / 4 * frac * float64(spec.VCPUs))
		}
		return d, nil
	}
}

func randHeapSpace(r *rand.Rand) Space {
	s := randSpace(r)
	heaps := []float64{2, 4, 8, 16, 32, 64}
	r.Shuffle(len(heaps), func(i, j int) { heaps[i], heaps[j] = heaps[j], heaps[i] })
	s.HeapGBs = append([]float64(nil), heaps[:1+r.Intn(3)]...)
	return s
}

// TestPrunedMatchesGridHeapAxis extends the exactness property to
// heap-axis spaces: with an evaluator monotone in heap but not in P,
// PrunedSearch still returns exactly Filter(GridSearch(...)) and its
// accounting closes.
func TestPrunedMatchesGridHeapAxis(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 200; trial++ {
		space := randHeapSpace(r)
		pricing := randPricing(r)
		eval := heapEval(r.Uint64())

		grid, err := GridSearch(space, eval, pricing)
		if err != nil {
			t.Fatalf("trial %d: grid: %v", trial, err)
		}
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
			t.Fatalf("trial %d (cons %+v): pruned returned %d candidates, filter %d",
				trial, cons, len(rep.Candidates), len(want))
		}
		if rep.Evaluated+rep.Pruned != rep.Total || rep.Total != space.Size() {
			t.Fatalf("trial %d: accounting %d evaluated + %d pruned != %d total (space %d)",
				trial, rep.Evaluated, rep.Pruned, rep.Total, space.Size())
		}
	}
}

// heapSpace is the default space restricted for model-backed heap
// tests: small enough to grid-search with real compilations.
func heapSpace(slaves int) Space {
	return Space{
		Slaves:     slaves,
		VCPUs:      []int{4, 8, 16},
		HDFSTypes:  []cloud.DiskType{cloud.PDStandard},
		HDFSSizes:  []units.ByteSize{units.TB},
		LocalTypes: []cloud.DiskType{cloud.PDStandard, cloud.PDSSD},
		LocalSizes: []units.ByteSize{500 * units.GB, 2 * units.TB},
		HeapGBs:    []float64{1, 4, 16, 64},
	}
}

// TestGridSearchBatchMatchesPoolHeap pins the walk/pool equivalence on
// a space with a heap axis, where the memory part of Eq. 1 (priced once
// per Local disk, heap and P by the walk) and the memory price are both
// live.
func TestGridSearchBatchMatchesPoolHeap(t *testing.T) {
	model := calibrateOnCloud(t)
	eval := ModelEvaluator(model)
	space := heapSpace(10)
	pricing := cloud.DefaultPricing()

	walk, err := GridSearch(space, eval, pricing)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := GridSearch(space, Evaluator(eval.Evaluate), pricing)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(walk, pool) {
		t.Fatalf("walk and pool grid searches diverge on the heap axis:\n walk %+v\n pool %+v", walk[0], pool[0])
	}
}

// TestModelHeapTradeoff checks the optimizer actually trades memory
// against runtime on the real model: with the heap axis enabled, small
// heaps must predict runtimes at least as long as large ones on the
// same devices and shape, and the heap axis must change the cost
// ranking (memory is priced).
func TestModelHeapTradeoff(t *testing.T) {
	model := calibrateOnCloud(t)
	eval := ModelEvaluator(model)
	pricing := cloud.DefaultPricing()

	devs := cloud.ClusterSpec{
		Slaves: 10, VCPUs: 8,
		HDFSType: cloud.PDStandard, HDFSSize: units.TB,
		LocalType: cloud.PDStandard, LocalSize: 500 * units.GB,
	}
	var prev time.Duration
	for i, heap := range []float64{64, 16, 4, 1, 0.25} {
		spec := devs
		spec.HeapGB = heap
		d, err := eval.Evaluate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && d < prev {
			t.Fatalf("heap %v GB predicted %v, faster than larger heap's %v", heap, d, prev)
		}
		prev = d
		// Memory is priced: burn rate strictly increases with heap.
		if spec.HeapGB > 0 && spec.DollarsPerHour(pricing) <= devs.DollarsPerHour(pricing) {
			t.Fatalf("heap %v GB does not raise the burn rate", heap)
		}
	}
}

// TestPrunedHeapAxisSavesEvaluations pins that heap-descending pruning
// pays on the real model under a binding deadline.
func TestPrunedHeapAxisSavesEvaluations(t *testing.T) {
	model := calibrateOnCloud(t)
	eval := ModelEvaluator(model)
	space := heapSpace(10)
	pricing := cloud.DefaultPricing()

	grid, err := GridSearch(space, eval, pricing)
	if err != nil {
		t.Fatal(err)
	}
	// Deadline at the fast end: most heap slices die after the
	// largest-heap evaluation.
	fastest := grid[0].Time
	for _, c := range grid[1:] {
		if c.Time < fastest {
			fastest = c.Time
		}
	}
	cons := Constraints{Deadline: fastest}
	rep, err := PrunedSearch(space, eval, pricing, cons)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Candidates, Filter(grid, cons)) {
		t.Fatal("heap-axis pruned candidates diverge from filtered grid")
	}
	if rep.Pruned == 0 {
		t.Fatalf("binding deadline pruned nothing on the heap axis (%d evaluated)", rep.Evaluated)
	}
}

// TestCoordinateDescentHeapMoves checks descent explores the heap
// coordinate when the space has one and stays put when it does not.
func TestCoordinateDescentHeapMoves(t *testing.T) {
	space := heapSpace(10)
	pricing := cloud.DefaultPricing()
	start := cloud.ClusterSpec{
		Slaves: 10, VCPUs: 8,
		HDFSType: cloud.PDStandard, HDFSSize: units.TB,
		LocalType: cloud.PDStandard, LocalSize: 500 * units.GB,
		HeapGB: 1,
	}
	// Runtime falls hyperbolically in heap, so every heap step buys back
	// far more runtime than the memory it prices in: descent must walk
	// the heap ladder all the way up.
	eval := Evaluator(func(spec cloud.ClusterSpec) (time.Duration, error) {
		heap := spec.HeapGB
		if heap < 1 {
			heap = 1
		}
		return time.Hour + time.Duration(float64(80*time.Hour)/heap), nil
	})
	best, _, err := CoordinateDescent(space, start, eval, pricing)
	if err != nil {
		t.Fatal(err)
	}
	if best.Spec.HeapGB != 64 {
		t.Fatalf("descent stopped at heap %v GB, want 64", best.Spec.HeapGB)
	}

	// No heap axis: the coordinate must not move.
	space.HeapGBs = nil
	best, _, err = CoordinateDescent(space, start, eval, pricing)
	if err != nil {
		t.Fatal(err)
	}
	if best.Spec.HeapGB != start.HeapGB {
		t.Fatalf("descent moved a non-existent heap coordinate to %v", best.Spec.HeapGB)
	}
}
