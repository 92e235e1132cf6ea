package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/spark"
	"repro/internal/units"
)

// fuzzKinds are the op kinds a model may carry (everything but
// OpCompute, which Validate rejects).
var fuzzKinds = []spark.OpKind{
	spark.OpHDFSRead, spark.OpHDFSWrite,
	spark.OpShuffleRead, spark.OpShuffleWrite,
	spark.OpPersistRead, spark.OpPersistWrite,
}

// fuzzCurve derives a valid monotone-request-size curve from the rng.
func fuzzCurve(r *rand.Rand) *disk.Curve {
	n := 1 + r.Intn(5)
	pts := make([]disk.CurvePoint, n)
	req := units.ByteSize(1 + r.Intn(64))
	for i := range pts {
		pts[i] = disk.CurvePoint{
			ReqSize:   req * units.KB,
			Bandwidth: units.MBps(0.5 + 600*r.Float64()),
		}
		req *= units.ByteSize(2 + r.Intn(8))
	}
	return disk.MustCurve(pts)
}

// fuzzModel derives a valid model and environment from the rng. Zeros
// are sprinkled deliberately: zero bytes, zero T, zero coupled rate and
// zero deltas all take distinct branches in the compiler.
func fuzzModel(r *rand.Rand) (AppModel, Env) {
	env := Env{
		Curves: Curves{
			HDFSRead:   fuzzCurve(r),
			HDFSWrite:  fuzzCurve(r),
			LocalRead:  fuzzCurve(r),
			LocalWrite: fuzzCurve(r),
		},
		Replication: 1 + r.Intn(3),
		BlockSize:   units.ByteSize(1+r.Intn(256)) * units.MB,
	}
	// Half the models carry a memory term.
	if r.Intn(2) == 0 {
		env.Memory = fuzzMemParams(r)
	}
	app := AppModel{Name: "fuzz"}
	for s := 0; s < 1+r.Intn(4); s++ {
		st := StageModel{
			Name:       string(rune('a' + s)),
			DeltaScale: time.Duration(r.Intn(3)) * time.Second,
			DeltaRead:  time.Duration(r.Intn(2)) * time.Second,
			DeltaWrite: time.Duration(r.Intn(2)) * time.Second,
		}
		for g := 0; g < 1+r.Intn(3); g++ {
			gm := GroupModel{
				Name:           string(rune('p' + g)),
				Count:          1 + r.Intn(2000),
				ComputePerTask: time.Duration(r.Int63n(int64(10 * time.Second))),
			}
			for o := 0; o < r.Intn(4); o++ {
				op := OpModel{
					Kind:         fuzzKinds[r.Intn(len(fuzzKinds))],
					BytesPerTask: units.ByteSize(r.Int63n(int64(units.GB))),
				}
				if r.Intn(2) == 0 {
					op.ReqSize = units.ByteSize(r.Int63n(int64(64 * units.MB)))
				}
				if r.Intn(2) == 0 {
					op.T = units.MBps(1 + 400*r.Float64())
				}
				if r.Intn(3) == 0 {
					op.CoupledRate = units.MBps(1 + 800*r.Float64())
				}
				gm.Ops = append(gm.Ops, op)
			}
			st.Groups = append(st.Groups, gm)
		}
		app.Stages = append(app.Stages, st)
	}
	return app, env
}

// fuzzMemParams derives an enabled memory parameter set: partial sets
// take the default-resolution branches, tiny heaps the full-spill
// clamp.
func fuzzMemParams(r *rand.Rand) MemParams {
	m := MemParams{HeapBytes: units.ByteSize(1 + r.Int63n(int64(64*units.GB)))}
	if r.Intn(2) == 0 {
		m.Expansion = 0.5 + 4*r.Float64()
	}
	if r.Intn(2) == 0 {
		m.SpillReqSize = units.ByteSize(1+r.Intn(4096)) * units.KB
	}
	if r.Intn(2) == 0 {
		m.GCMaxPause = time.Duration(r.Int63n(int64(2 * time.Second)))
	}
	if r.Intn(2) == 0 {
		m.GCThreshold = r.Float64()
	}
	return m
}

// FuzzCompiledPredict holds every prediction API byte-identical to the
// classicPredict reference on randomized models, environments, shapes
// and modes: AppModel.Predict, the compiled model's Predict, Total and
// PredictBatch, WithMemory variants, and PredictFaulty without faults.
// Seeds live in testdata/fuzz/FuzzCompiledPredict.
func FuzzCompiledPredict(f *testing.F) {
	f.Add(uint64(1), 3, 8, 0)
	f.Add(uint64(42), 10, 36, 1)
	f.Add(uint64(7), 32, 16, 2)
	f.Add(uint64(1234567), 1, 1, 0)
	f.Fuzz(func(t *testing.T, seed uint64, n, p, mode int) {
		n = 1 + abs(n)%4096
		p = 1 + abs(p)%4096
		m := Mode(abs(mode) % 3)
		r := rand.New(rand.NewSource(int64(seed)))
		app, env := fuzzModel(r)
		if err := app.Validate(); err != nil {
			t.Fatalf("fuzzModel built an invalid model: %v", err)
		}
		pl := Platform{N: n, P: p, Curves: env.Curves, Replication: env.Replication, BlockSize: env.BlockSize, Memory: env.Memory}
		want := refPredict(app, pl, m)

		got, err := app.Predict(pl, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d shape (%d,%d) mode %v: compiled diverges\n got %+v\nwant %+v",
				seed, n, p, m, got, want)
		}

		cm, err := Compile(app, env, m)
		if err != nil {
			t.Fatal(err)
		}
		var out [1]time.Duration
		batch, err := cm.PredictBatch([]Shape{{N: n, P: p}}, out[:])
		if err != nil {
			t.Fatal(err)
		}
		if batch[0] != want.Total {
			t.Fatalf("seed %d shape (%d,%d) mode %v: batch total %v != %v",
				seed, n, p, m, batch[0], want.Total)
		}
		if total, err := cm.Total(n, p); err != nil || total != want.Total {
			t.Fatalf("seed %d shape (%d,%d) mode %v: Total %v (err %v) != %v",
				seed, n, p, m, total, err, want.Total)
		}
		checkFaultFree(t, app, pl, m, want)
		checkMemSplit(t, cm, n, p)

		// One memory variant derived through WithMemory must predict what
		// the reference predicts with that memory (half the time the
		// variant switches the term off).
		var mem MemParams
		if r.Intn(2) == 0 {
			mem = fuzzMemParams(r)
		}
		derived, err := cm.WithMemory(mem)
		if err != nil {
			t.Fatal(err)
		}
		pl.Memory = mem
		want = refPredict(app, pl, m)
		got, err = derived.Predict(n, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d shape (%d,%d) mode %v memory %+v: WithMemory diverges\n got %+v\nwant %+v",
				seed, n, p, m, mem, got, want)
		}
		if batch, err = derived.PredictBatch([]Shape{{N: n, P: p}}, out[:]); err != nil {
			t.Fatal(err)
		}
		if batch[0] != want.Total {
			t.Fatalf("seed %d shape (%d,%d) mode %v memory %+v: WithMemory batch total %v != %v",
				seed, n, p, m, mem, batch[0], want.Total)
		}
		checkFaultFree(t, app, pl, m, want)
		checkMemSplit(t, derived, n, p)
	})
}

// checkMemSplit holds Eq. 1's memory split on cm: Total is the
// memory-free model's Total plus the memory part, the stages'
// t_mem_limit summed, bit for bit, and MemTotal is that sum.
func checkMemSplit(t *testing.T, cm *CompiledModel, n, p int) {
	t.Helper()
	free, err := cm.WithMemory(MemParams{})
	if err != nil {
		t.Fatal(err)
	}
	freeTotal, err := free.Total(n, p)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := cm.Predict(n, p)
	if err != nil {
		t.Fatal(err)
	}
	var mem time.Duration
	for _, sp := range pred.Stages {
		mem += sp.TMemLimit
	}
	total, err := cm.Total(n, p)
	if err != nil {
		t.Fatal(err)
	}
	if total != freeTotal+mem {
		t.Fatalf("shape (%d,%d) mode %v: Total %v != memory-free %v + memory part %v",
			n, p, cm.Mode(), total, freeTotal, mem)
	}
	if got, err := cm.MemTotal(n, p); err != nil || got != mem {
		t.Fatalf("shape (%d,%d) mode %v: MemTotal %v (err %v) != Σ t_mem_limit %v",
			n, p, cm.Mode(), got, err, mem)
	}
}

// checkFaultFree holds PredictFaulty without faults to the reference:
// its Base, Total and every stage's terms must equal want's.
func checkFaultFree(t *testing.T, app AppModel, pl Platform, m Mode, want AppPrediction) {
	t.Helper()
	fp, err := app.PredictFaulty(pl, m, FaultParams{})
	if err != nil {
		t.Fatal(err)
	}
	if fp.Base != want.Total || fp.Total != want.Total || len(fp.Stages) != len(want.Stages) {
		t.Fatalf("shape (%d,%d) mode %v memory %+v: PredictFaulty base %v total %v over %d stages, want %v over %d",
			pl.N, pl.P, m, pl.Memory, fp.Base, fp.Total, len(fp.Stages), want.Total, len(want.Stages))
	}
	for i, fs := range fp.Stages {
		if fs.StagePrediction != want.Stages[i] || fs.Base != want.Stages[i].T {
			t.Fatalf("shape (%d,%d) mode %v memory %+v: PredictFaulty stage %d diverges\n got %+v\nwant %+v",
				pl.N, pl.P, m, pl.Memory, i, fs, want.Stages[i])
		}
	}
}

func abs(v int) int {
	if v < 0 {
		// Avoid the MinInt overflow: any fixed positive value keeps the
		// mapping deterministic.
		if v == -v {
			return 1
		}
		return -v
	}
	return v
}
