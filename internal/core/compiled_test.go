package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/spark"
	"repro/internal/units"
)

// refPredict is the pre-compilation prediction path — a direct loop
// over StageModel.Predict, which the compiled path must reproduce
// byte-for-byte.
func refPredict(a AppModel, pl Platform, mode Mode) AppPrediction {
	out := AppPrediction{App: a.Name}
	for _, s := range a.Stages {
		sp := s.Predict(pl, mode)
		out.Stages = append(out.Stages, sp)
		out.Total += sp.T
	}
	return out
}

// steppedCurve is a non-flat bandwidth curve so the compiled path is
// exercised with real request-size-dependent lookups.
func steppedCurve(base units.Rate) *disk.Curve {
	return disk.MustCurve([]disk.CurvePoint{
		{ReqSize: 4 * units.KB, Bandwidth: base / 8},
		{ReqSize: 512 * units.KB, Bandwidth: base / 2},
		{ReqSize: 16 * units.MB, Bandwidth: base},
		{ReqSize: units.GB, Bandwidth: base + base/4},
	})
}

func testEnv() Env {
	return Env{
		Curves: Curves{
			HDFSRead:   steppedCurve(units.MBps(180)),
			HDFSWrite:  steppedCurve(units.MBps(120)),
			LocalRead:  steppedCurve(units.MBps(400)),
			LocalWrite: steppedCurve(units.MBps(350)),
		},
		Replication: 2,
		BlockSize:   128 * units.MB,
	}
}

// testApp mixes HDFS, shuffle and persist ops across devices, with and
// without T caps, coupled rates and explicit request sizes, plus all
// three delta terms — every branch of the compiler.
func testApp() AppModel {
	return AppModel{
		Name: "compiled-test",
		Stages: []StageModel{
			{
				Name: "read-heavy",
				Groups: []GroupModel{{
					Name: "g0", Count: 300, ComputePerTask: 2 * time.Second,
					Ops: []OpModel{
						{Kind: spark.OpHDFSRead, BytesPerTask: 200 * units.MB, T: units.MBps(150)},
						{Kind: spark.OpShuffleWrite, BytesPerTask: 30 * units.MB},
					},
				}},
				DeltaScale: 700 * time.Millisecond,
				DeltaRead:  400 * time.Millisecond,
			},
			{
				Name: "mixed",
				Groups: []GroupModel{
					{
						Name: "g1", Count: 120, ComputePerTask: time.Second,
						Ops: []OpModel{
							{Kind: spark.OpShuffleRead, BytesPerTask: 45 * units.MB, ReqSize: 2 * units.MB},
							{Kind: spark.OpHDFSWrite, BytesPerTask: 64 * units.MB, CoupledRate: units.MBps(500)},
						},
					},
					{
						Name: "g2", Count: 40, ComputePerTask: 4 * time.Second,
						Ops: []OpModel{
							{Kind: spark.OpPersistRead, BytesPerTask: 16 * units.MB},
							{Kind: spark.OpPersistWrite, BytesPerTask: 16 * units.MB},
						},
					},
				},
				DeltaWrite: 900 * time.Millisecond,
			},
			{
				Name: "compute-only",
				Groups: []GroupModel{{
					Name: "g3", Count: 512, ComputePerTask: 750 * time.Millisecond,
				}},
				DeltaScale: time.Second,
			},
		},
	}
}

func TestCompiledPredictMatchesReference(t *testing.T) {
	app := testApp()
	env := testEnv()
	pl := Platform{Curves: env.Curves, Replication: env.Replication, BlockSize: env.BlockSize}
	for _, mode := range []Mode{ModeDoppio, ModePeakBW, ModeNoOverlap} {
		cm, err := Compile(app, env, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for _, sh := range []Shape{{1, 1}, {3, 8}, {10, 36}, {32, 16}, {100, 4}} {
			pl.N, pl.P = sh.N, sh.P
			want := refPredict(app, pl, mode)
			got, err := cm.Predict(sh.N, sh.P)
			if err != nil {
				t.Fatalf("%v %v: %v", mode, sh, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v %v: compiled prediction diverges\n got %+v\nwant %+v", mode, sh, got, want)
			}
			// The public wrapper must agree too.
			viaModel, err := app.Predict(pl, mode)
			if err != nil {
				t.Fatalf("%v %v: %v", mode, sh, err)
			}
			if !reflect.DeepEqual(viaModel, want) {
				t.Errorf("%v %v: AppModel.Predict diverges from reference", mode, sh)
			}
		}
	}
}

func TestCompiledBatchAndTotalMatchPredict(t *testing.T) {
	cm, err := Compile(testApp(), testEnv(), ModeDoppio)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []Shape{{2, 4}, {5, 16}, {8, 8}, {32, 2}, {7, 36}}
	out := make([]time.Duration, len(shapes))
	got, err := cm.PredictBatch(shapes, out)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range shapes {
		pred, err := cm.Predict(sh.N, sh.P)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != pred.Total {
			t.Errorf("shape %v: batch %v != Predict total %v", sh, got[i], pred.Total)
		}
		total, err := cm.Total(sh.N, sh.P)
		if err != nil {
			t.Fatal(err)
		}
		if total != pred.Total {
			t.Errorf("shape %v: Total %v != Predict total %v", sh, total, pred.Total)
		}
	}
}

func TestPredictBatchZeroAlloc(t *testing.T) {
	cm, err := Compile(testApp(), testEnv(), ModeDoppio)
	if err != nil {
		t.Fatal(err)
	}
	shapes := make([]Shape, 64)
	for i := range shapes {
		shapes[i] = Shape{N: 1 + i%8, P: 1 + i%32}
	}
	out := make([]time.Duration, len(shapes))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := cm.PredictBatch(shapes, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PredictBatch allocates %.1f times per call, want 0", allocs)
	}
}

func TestPredictBatchErrors(t *testing.T) {
	cm, err := Compile(testApp(), testEnv(), ModeDoppio)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cm.PredictBatch(make([]Shape, 3), make([]time.Duration, 2)); err == nil {
		t.Error("short out slab accepted")
	}
	if _, err := cm.PredictBatch([]Shape{{0, 4}}, make([]time.Duration, 1)); err == nil {
		t.Error("zero N accepted")
	}
	if _, err := cm.Predict(3, 0); err == nil {
		t.Error("zero P accepted")
	}
	if _, err := cm.Total(-1, 4); err == nil {
		t.Error("negative N accepted")
	}
}

func TestCompileValidates(t *testing.T) {
	if _, err := Compile(AppModel{Name: "empty"}, testEnv(), ModeDoppio); err == nil {
		t.Error("empty model compiled")
	}
	bad := testEnv()
	bad.Replication = 0
	if _, err := Compile(testApp(), bad, ModeDoppio); err == nil {
		t.Error("bad env compiled")
	}
	cm, err := Compile(testApp(), testEnv(), ModeDoppio)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cm.WithMemory(MemParams{HeapBytes: -1}); err == nil {
		t.Error("WithMemory accepted a negative heap")
	}
	if _, err := cm.WithMemory(MemParams{HeapBytes: units.GB, GCThreshold: 2}); err == nil {
		t.Error("WithMemory accepted a GC threshold above 1")
	}
}

func TestTopBottleneckMatchesCensus(t *testing.T) {
	app := testApp()
	env := testEnv()
	cm, err := Compile(app, env, ModeDoppio)
	if err != nil {
		t.Fatal(err)
	}
	pl := Platform{Curves: env.Curves, Replication: env.Replication, BlockSize: env.BlockSize}
	for _, sh := range []Shape{{1, 1}, {3, 8}, {10, 36}, {64, 32}} {
		pl.N, pl.P = sh.N, sh.P
		// Reference census: the rule the sweep endpoint has always used.
		counts := map[string]int{}
		top := ""
		for _, s := range app.Stages {
			st := s.Predict(pl, ModeDoppio)
			counts[st.Bottleneck]++
			if top == "" || counts[st.Bottleneck] > counts[top] {
				top = st.Bottleneck
			}
		}
		got, err := cm.TopBottleneck(sh.N, sh.P)
		if err != nil {
			t.Fatal(err)
		}
		if got != top {
			t.Errorf("shape %v: TopBottleneck = %q, census says %q", sh, got, top)
		}
	}
}

// TestWithMemoryMatchesCompile pins WithMemory to its definition:
// deriving a memory variant from a compiled model equals compiling the
// environment with Env.Memory set, for every prediction method, every
// mode, and heaps from full spill to none — starting from a memory-free
// compile and from one whose memory term is already on.
func TestWithMemoryMatchesCompile(t *testing.T) {
	app := testApp()
	heaps := []units.ByteSize{0, 64 * units.MB, 512 * units.MB, 2 * units.GB, 8 * units.GB, units.TB}
	shapes := []Shape{{1, 1}, {3, 8}, {10, 36}, {32, 16}, {64, 32}}
	var spilled, free bool
	for _, mode := range []Mode{ModeDoppio, ModePeakBW, ModeNoOverlap} {
		for _, baseHeap := range []units.ByteSize{0, units.GB} {
			env := testEnv()
			env.Memory = MemParams{HeapBytes: baseHeap}
			base, err := Compile(app, env, mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, heap := range heaps {
				m := MemParams{HeapBytes: heap, GCMaxPause: 300 * time.Millisecond}
				derived, err := base.WithMemory(m)
				if err != nil {
					t.Fatal(err)
				}
				env.Memory = m
				want, err := Compile(app, env, mode)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]time.Duration, len(shapes))
				ref := make([]time.Duration, len(shapes))
				if _, err := derived.PredictBatch(shapes, got); err != nil {
					t.Fatal(err)
				}
				if _, err := want.PredictBatch(shapes, ref); err != nil {
					t.Fatal(err)
				}
				for i, sh := range shapes {
					tag := fmt.Sprintf("%v base heap %v heap %v shape %v", mode, baseHeap, heap, sh)
					gp, _ := derived.Predict(sh.N, sh.P)
					wp, _ := want.Predict(sh.N, sh.P)
					if !reflect.DeepEqual(gp, wp) {
						t.Fatalf("%s: Predict diverges\n got %+v\nwant %+v", tag, gp, wp)
					}
					gt, _ := derived.Total(sh.N, sh.P)
					if gt != wp.Total || got[i] != ref[i] || got[i] != wp.Total {
						t.Fatalf("%s: Total %v, PredictBatch %v, want %v", tag, gt, got[i], wp.Total)
					}
					gb, _ := derived.TopBottleneck(sh.N, sh.P)
					wb, _ := want.TopBottleneck(sh.N, sh.P)
					if gb != wb {
						t.Fatalf("%s: TopBottleneck %q, want %q", tag, gb, wb)
					}
					limited := false
					for _, st := range wp.Stages {
						limited = limited || st.TMemLimit > 0
					}
					spilled = spilled || limited
					free = free || (heap > 0 && !limited)
				}
			}
		}
	}
	if !spilled || !free {
		t.Fatalf("heaps did not cover both regimes: spilled=%v free=%v", spilled, free)
	}
}
