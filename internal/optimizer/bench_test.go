package optimizer

import (
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/spark"
	"repro/internal/units"
)

// benchModel is a hand-built multi-stage model of gatk4-ish shape (no
// calibration: benchmarks must not depend on simulator runs). Sizes are
// per-task volumes; the absolute numbers only need to be plausible.
func benchModel() core.AppModel {
	return core.AppModel{
		Name: "bench",
		Stages: []core.StageModel{
			{
				Name: "ingest",
				Groups: []core.GroupModel{{
					Name: "map", Count: 640, ComputePerTask: 2 * time.Second,
					Ops: []core.OpModel{
						{Kind: spark.OpHDFSRead, BytesPerTask: 128 * units.MB, T: units.MBps(180)},
						{Kind: spark.OpShuffleWrite, BytesPerTask: 48 * units.MB},
					},
				}},
				DeltaScale: 800 * time.Millisecond,
				DeltaWrite: 300 * time.Millisecond,
			},
			{
				Name: "shuffle",
				Groups: []core.GroupModel{
					{
						Name: "reduce", Count: 512, ComputePerTask: 1500 * time.Millisecond,
						Ops: []core.OpModel{
							{Kind: spark.OpShuffleRead, BytesPerTask: 60 * units.MB, ReqSize: 2 * units.MB},
							{Kind: spark.OpPersistWrite, BytesPerTask: 32 * units.MB, CoupledRate: units.MBps(400)},
						},
					},
					{
						Name: "side", Count: 64, ComputePerTask: 3 * time.Second,
						Ops: []core.OpModel{
							{Kind: spark.OpHDFSRead, BytesPerTask: 64 * units.MB},
						},
					},
				},
				DeltaScale: time.Second,
				DeltaRead:  500 * time.Millisecond,
			},
			{
				Name: "iterate",
				Groups: []core.GroupModel{{
					Name: "cached", Count: 1024, ComputePerTask: 900 * time.Millisecond,
					Ops: []core.OpModel{
						{Kind: spark.OpPersistRead, BytesPerTask: 24 * units.MB, T: units.MBps(500)},
					},
				}},
			},
			{
				Name: "emit",
				Groups: []core.GroupModel{{
					Name: "write", Count: 320, ComputePerTask: 1200 * time.Millisecond,
					Ops: []core.OpModel{
						{Kind: spark.OpShuffleRead, BytesPerTask: 40 * units.MB, ReqSize: 2 * units.MB},
						{Kind: spark.OpHDFSWrite, BytesPerTask: 96 * units.MB, T: units.MBps(150)},
					},
				}},
				DeltaScale: 600 * time.Millisecond,
				DeltaWrite: 700 * time.Millisecond,
			},
		},
	}
}

// benchSpace is the acceptance grid: a 32-node cluster, 16 machine
// shapes, 4 device pairs = 64 candidate configurations per search.
func benchSpace() Space {
	return Space{
		Slaves:     32,
		VCPUs:      []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32},
		HDFSTypes:  []cloud.DiskType{cloud.PDStandard},
		HDFSSizes:  []units.ByteSize{units.TB},
		LocalTypes: []cloud.DiskType{cloud.PDStandard, cloud.PDSSD},
		LocalSizes: []units.ByteSize{500 * units.GB, 2 * units.TB},
	}
}

// BenchmarkGridSearch is the headline number of the analytical fast
// path: one full grid search on the 32-node × 16-core × 4-device grid
// through ModelEvaluator. The evaluator is warm — every device pair is
// compiled before the timer starts — so this is the search alone, the
// cost a long-lived evaluator (the experiments' shared one) pays per
// search; BenchmarkRecommendWarm prices what serve pays per recommend.
// Gated in docs/BENCH_model.json.
func BenchmarkGridSearch(b *testing.B) {
	model := benchModel()
	eval := ModelEvaluator(model)
	pricing := cloud.DefaultPricing()
	space := benchSpace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GridSearch(space, eval, pricing); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendSearch is a recommend on a fresh ModelEvaluator,
// so every disk is profiled and every device pair compiled inside the
// op: what serve pays for the first recommend on a cloud calibration,
// and what `doppio recommend` pays per run. PrunedSearch over the
// default 64-node space with a four-value heap axis and a binding
// deadline, then the R1 and R2 reference evaluations. Gated in
// docs/BENCH_model.json.
func BenchmarkRecommendSearch(b *testing.B) {
	model := benchModel()
	pricing := cloud.DefaultPricing()
	space := DefaultSpace(64)
	space.HeapGBs = []float64{2, 8, 32, 128}
	grid, err := GridSearch(space, ModelEvaluator(model), pricing)
	if err != nil {
		b.Fatal(err)
	}
	cons := Constraints{Deadline: grid[len(grid)/4].Time}
	refs := []cloud.ClusterSpec{cloud.R1(space.Slaves, 16), cloud.R2(space.Slaves, 16)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval := ModelEvaluator(model)
		if _, err := PrunedSearch(space, eval, pricing, cons); err != nil {
			b.Fatal(err)
		}
		for _, ref := range refs {
			if _, err := eval.Evaluate(ref); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRecommendWarm is what serve pays per recommend once a cloud
// calibration's evaluator is warm: the search and the R1 and R2
// references, on an evaluator that has compiled every device pair. One
// op is perfbench fresh's recommend mix, six requests: heap axes of 0,
// 2 and 4 values, each without and with a binding deadline, keeping
// the five cheapest candidates as a serve request with top 5 does.
// Gated in docs/BENCH_model.json.
func BenchmarkRecommendWarm(b *testing.B) {
	model := benchModel()
	eval := ModelEvaluator(model)
	pricing := cloud.DefaultPricing()
	type request struct {
		space Space
		cons  Constraints
	}
	var reqs []request
	for _, heaps := range [][]float64{nil, {4, 16}, {1, 4, 8, 24}} {
		space := DefaultSpace(64)
		space.HeapGBs = heaps
		grid, err := GridSearch(space, eval, pricing)
		if err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, request{space, Constraints{}}, request{space, Constraints{Deadline: grid[len(grid)/4].Time}})
	}
	refs := []cloud.ClusterSpec{cloud.R1(64, 16), cloud.R2(64, 16)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			if _, err := PrunedSearchTop(r.space, eval, pricing, r.cons, 5); err != nil {
				b.Fatal(err)
			}
			for _, ref := range refs {
				if _, err := eval.Evaluate(ref); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
