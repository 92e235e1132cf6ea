package core

import (
	"testing"
	"time"

	"repro/internal/units"
)

// BenchmarkPredictBatch is the steady-state cost of the compiled model:
// a 1024-shape slab through PredictBatch. Gated at 0 allocs/op in
// docs/BENCH_model.json — the whole point of compiling is that sweeps
// do arithmetic, not allocation.
func BenchmarkPredictBatch(b *testing.B) {
	cm, err := Compile(testApp(), testEnv(), ModeDoppio)
	if err != nil {
		b.Fatal(err)
	}
	shapes := make([]Shape, 1024)
	for i := range shapes {
		shapes[i] = Shape{N: 1 + i%32, P: 1 + i%36}
	}
	out := make([]time.Duration, len(shapes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cm.PredictBatch(shapes, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile prices the one-time compilation an environment pays
// before its predictions become table arithmetic.
func BenchmarkCompile(b *testing.B) {
	app := testApp()
	env := testEnv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(app, env, ModeDoppio); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppPredict is one full AppModel.Predict per point: a
// compile and an evaluation each time, for comparison with the
// steady-state PredictBatch.
func BenchmarkAppPredict(b *testing.B) {
	app := testApp()
	env := testEnv()
	pl := Platform{N: 10, P: 36, Curves: env.Curves, Replication: env.Replication, BlockSize: env.BlockSize}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.Predict(pl, ModeDoppio); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBatchMem is BenchmarkPredictBatch with the memory
// term live: the same 1024-shape slab against an environment whose
// 1 GB heap makes every stage spill. Gated at 0 allocs/op alongside the
// memory-free row — t_mem_limit must stay pure arithmetic.
func BenchmarkPredictBatchMem(b *testing.B) {
	env := testEnv()
	env.Memory = MemParams{HeapBytes: units.GB}
	cm, err := Compile(testApp(), env, ModeDoppio)
	if err != nil {
		b.Fatal(err)
	}
	shapes := make([]Shape, 1024)
	for i := range shapes {
		shapes[i] = Shape{N: 1 + i%32, P: 1 + i%36}
	}
	out := make([]time.Duration, len(shapes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cm.PredictBatch(shapes, out); err != nil {
			b.Fatal(err)
		}
	}
}
