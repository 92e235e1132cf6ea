package optimizer

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
)

// TestEvaluatorMatchesPerPointPath pins the compiled evaluator to the
// per-point path its documentation names: for every spec of the
// default space, with and without a heap axis, on cloud-calibrated
// models, Evaluate and every candidate time the search walk returns
// must equal AppModel.Predict(core.PlatformFor(spec.ClusterConfig())).Total
// bit for bit. Each search runs on a fresh evaluator, as the first
// search on a calibration does: GridSearch on the space and on the
// space with every axis shuffled, so the walk meets device pairs and
// heaps in another order, and PrunedSearchTop under a binding deadline.
func TestEvaluatorMatchesPerPointPath(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrations + per-point predictions over the default space")
	}
	r := rand.New(rand.NewSource(20261019))
	pricing := cloud.DefaultPricing()
	for _, name := range []string{"sql", "trianglecount", "svm", "terasort"} {
		model := calibrateWorkloadOnCloud(t, name)
		for _, slaves := range []int{3, 10, 37} {
			for _, heaps := range [][]float64{nil, {0.5, 2, 7.5, 32}} {
				space := DefaultSpace(slaves)
				space.HeapGBs = heaps
				tag := fmt.Sprintf("%s slaves=%d heaps=%v", name, slaves, heaps)
				specs := space.Specs()
				want := make(map[cloud.ClusterSpec]time.Duration, len(specs))
				single := ModelEvaluator(model)
				for _, spec := range specs {
					pred, err := model.Predict(core.PlatformFor(spec.ClusterConfig()), core.ModeDoppio)
					if err != nil {
						t.Fatalf("%s %v: per-point: %v", name, spec, err)
					}
					want[spec] = pred.Total
					got, err := single.Evaluate(spec)
					if err != nil {
						t.Fatalf("%s %v: Evaluate: %v", name, spec, err)
					}
					if got != pred.Total {
						t.Fatalf("%s %v: Evaluate %v, per-point %v", name, spec, got, pred.Total)
					}
				}

				grid, err := GridSearch(space, ModelEvaluator(model), pricing)
				if err != nil {
					t.Fatalf("%s: GridSearch: %v", tag, err)
				}
				checkCandidates(t, tag+" grid", grid, want, pricing)
				if len(grid) != len(specs) {
					t.Fatalf("%s: GridSearch returned %d candidates for %d specs", tag, len(grid), len(specs))
				}

				shuffled := space
				shuffled.VCPUs = shuffle(r, space.VCPUs)
				shuffled.HDFSTypes = shuffle(r, space.HDFSTypes)
				shuffled.HDFSSizes = shuffle(r, space.HDFSSizes)
				shuffled.LocalTypes = shuffle(r, space.LocalTypes)
				shuffled.LocalSizes = shuffle(r, space.LocalSizes)
				shuffled.HeapGBs = shuffle(r, space.HeapGBs)
				sgrid, err := GridSearch(shuffled, ModelEvaluator(model), pricing)
				if err != nil {
					t.Fatalf("%s: shuffled GridSearch: %v", tag, err)
				}
				if !reflect.DeepEqual(sgrid, grid) {
					t.Fatalf("%s: GridSearch on the shuffled space diverges", tag)
				}

				cons := Constraints{Deadline: grid[len(grid)/2].Time}
				rep, err := PrunedSearchTop(space, ModelEvaluator(model), pricing, cons, 0)
				if err != nil {
					t.Fatalf("%s: PrunedSearchTop: %v", tag, err)
				}
				checkCandidates(t, tag+" pruned", rep.Candidates, want, pricing)
				if !reflect.DeepEqual(rep.Candidates, Filter(grid, cons)) {
					t.Fatalf("%s: PrunedSearchTop diverges from the filtered grid", tag)
				}
				if rep.Pruned == 0 {
					t.Fatalf("%s: deadline %v pruned nothing", tag, cons.Deadline)
				}
			}
		}
	}
}

// checkCandidates requires every candidate's time to be its spec's
// per-point prediction and its cost the spec's price for that time.
func checkCandidates(t *testing.T, tag string, cands []Candidate, want map[cloud.ClusterSpec]time.Duration, pricing cloud.Pricing) {
	t.Helper()
	for _, c := range cands {
		w, ok := want[c.Spec]
		if !ok {
			t.Fatalf("%s: candidate %v is not in the space", tag, c.Spec)
		}
		if c.Time != w || c.Cost != c.Spec.Cost(w, pricing) {
			t.Fatalf("%s %v: time %v cost %v, per-point %v cost %v", tag, c.Spec, c.Time, c.Cost, w, c.Spec.Cost(w, pricing))
		}
	}
}

// shuffle returns a shuffled copy of s (nil for an empty s).
func shuffle[T any](r *rand.Rand, s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := append([]T(nil), s...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestMemLimitIndependentOfHDFSDisk pins the physics the search walk
// relies on to price t_mem_limit once per Local disk: on
// cloud-calibrated models, for each Local disk of the default space,
// each heap and each P, every stage's t_mem_limit through the per-point
// path (AppModel.Predict on spec.ClusterConfig()) is identical for all
// HDFS disks.
func TestMemLimitIndependentOfHDFSDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrations + per-point predictions over the default space")
	}
	space := DefaultSpace(10)
	for _, name := range []string{"sql", "trianglecount", "svm", "terasort"} {
		model := calibrateWorkloadOnCloud(t, name)
		for _, lt := range space.LocalTypes {
			for _, ls := range space.LocalSizes {
				for _, heap := range []float64{0.5, 2, 7.5, 32} {
					for _, v := range space.VCPUs {
						var want []core.StagePrediction
						for _, ht := range space.HDFSTypes {
							for _, hs := range space.HDFSSizes {
								spec := cloud.ClusterSpec{
									Slaves: space.Slaves, VCPUs: v,
									HDFSType: ht, HDFSSize: hs,
									LocalType: lt, LocalSize: ls,
									HeapGB: heap,
								}
								pred, err := model.Predict(core.PlatformFor(spec.ClusterConfig()), core.ModeDoppio)
								if err != nil {
									t.Fatalf("%s %v: %v", name, spec, err)
								}
								if want == nil {
									want = pred.Stages
									continue
								}
								for j, sp := range pred.Stages {
									if sp.TMemLimit != want[j].TMemLimit {
										t.Fatalf("%s %v stage %s: t_mem_limit %v, %v on the first HDFS disk",
											name, spec, sp.Name, sp.TMemLimit, want[j].TMemLimit)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestEvaluatorConcurrent shares one fresh evaluator between goroutines
// that evaluate the same heap-axis specs in different orders, so first
// uses of a disk and a device pair race each other; every result must
// still equal the per-point path. Run it under -race.
func TestEvaluatorConcurrent(t *testing.T) {
	model := benchModel()
	space := DefaultSpace(8)
	space.HDFSSizes = space.HDFSSizes[:2]
	space.LocalSizes = space.LocalSizes[:3]
	space.HeapGBs = []float64{0, 1, 16}
	specs := space.Specs()
	want := make([]time.Duration, len(specs))
	for i, spec := range specs {
		pred, err := model.Predict(core.PlatformFor(spec.ClusterConfig()), core.ModeDoppio)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pred.Total
	}
	eval := ModelEvaluator(model)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		order := rand.New(rand.NewSource(int64(g))).Perm(len(specs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				got, err := eval.Evaluate(specs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("%v: concurrent Evaluate %v, per-point %v", specs[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
