package optimizer

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
)

// TestEvaluatorMatchesPerPointPath pins the compiled evaluator to the
// per-point path its documentation names: for every spec of the
// default space, with and without a heap axis, on cloud-calibrated
// models, Evaluate and EvaluateBatch must equal
// AppModel.Predict(core.PlatformFor(spec.ClusterConfig())).Total bit
// for bit. Each path runs on a fresh evaluator, as the first search on
// a calibration does, and the batch path also sees the specs shuffled,
// so runs of one device combination are broken up.
func TestEvaluatorMatchesPerPointPath(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrations + per-point predictions over the default space")
	}
	r := rand.New(rand.NewSource(20261019))
	for _, name := range []string{"sql", "trianglecount", "svm", "terasort"} {
		model := calibrateWorkloadOnCloud(t, name)
		for _, slaves := range []int{3, 10, 37} {
			for _, heaps := range [][]float64{nil, {0.5, 2, 7.5, 32}} {
				space := DefaultSpace(slaves)
				space.HeapGBs = heaps
				specs := space.Specs()
				want := make([]time.Duration, len(specs))
				for i, spec := range specs {
					pred, err := model.Predict(core.PlatformFor(spec.ClusterConfig()), core.ModeDoppio)
					if err != nil {
						t.Fatalf("%s %v: per-point: %v", name, spec, err)
					}
					want[i] = pred.Total
				}

				single := ModelEvaluator(model)
				for i, spec := range specs {
					got, err := single.Evaluate(spec)
					if err != nil {
						t.Fatalf("%s %v: Evaluate: %v", name, spec, err)
					}
					if got != want[i] {
						t.Fatalf("%s %v: Evaluate %v, per-point %v", name, spec, got, want[i])
					}
				}

				got := make([]time.Duration, len(specs))
				if err := ModelEvaluator(model).EvaluateBatch(specs, got); err != nil {
					t.Fatalf("%s slaves=%d heaps=%v: EvaluateBatch: %v", name, slaves, heaps, err)
				}
				for i := range specs {
					if got[i] != want[i] {
						t.Fatalf("%s %v: EvaluateBatch %v, per-point %v", name, specs[i], got[i], want[i])
					}
				}

				perm := r.Perm(len(specs))
				shuffled := make([]cloud.ClusterSpec, len(specs))
				for i, j := range perm {
					shuffled[i] = specs[j]
				}
				if err := ModelEvaluator(model).EvaluateBatch(shuffled, got); err != nil {
					t.Fatalf("%s slaves=%d heaps=%v: shuffled EvaluateBatch: %v", name, slaves, heaps, err)
				}
				for i, j := range perm {
					if got[i] != want[j] {
						t.Fatalf("%s %v: shuffled EvaluateBatch %v, per-point %v", name, shuffled[i], got[i], want[j])
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
