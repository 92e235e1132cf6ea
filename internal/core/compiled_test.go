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

// classicPredict is the reference implementation of Eq. 1 the tests
// keep: the stage's terms derived term by term from the uncompiled
// model, with the overlap rule written out. The compiled model must
// reproduce it byte for byte, so it follows the same floating-point
// expression order.
func classicPredict(s StageModel, pl Platform, mode Mode) StagePrediction {
	pred := StagePrediction{Name: s.Name}

	// t_scale: Σ_g Count_g/(N·P) · t_avg_g + δ_scale.
	var scaleSec, weighted float64
	total := 0
	for _, g := range s.Groups {
		tg := g.TaskTime(pl, mode).Seconds()
		scaleSec += float64(g.Count) / float64(pl.N*pl.P) * tg
		weighted += float64(g.Count) * tg
		total += g.Count
	}
	if total > 0 {
		pred.TAvg = units.SecDuration(weighted / float64(total))
	}
	pred.TScale = units.SecDuration(scaleSec) + s.DeltaScale

	// I/O limit terms: Σ D/BW per (device, direction), index 0 the Local
	// device and 1 HDFS; directional limits take the binding device, and
	// a device serving both directions must fit their sum.
	var readSec, writeSec [2]float64
	for _, g := range s.Groups {
		for _, op := range g.Ops {
			bw := effBW(op, pl, mode)
			if bw <= 0 || op.BytesPerTask <= 0 {
				continue
			}
			vol := units.ByteSize(int64(g.Count)) * opVolume(op, pl)
			sec := float64(vol) / float64(bw)
			d := 1
			if op.Kind.OnLocal() {
				d = 0
			}
			if op.Kind.IsRead() {
				readSec[d] += sec
			} else {
				writeSec[d] += sec
			}
		}
	}
	n := float64(pl.N)
	if r := maxf(readSec[0], readSec[1]); r > 0 {
		pred.TReadLimit = units.SecDuration(r/n) + s.DeltaRead
	}
	if w := maxf(writeSec[0], writeSec[1]); w > 0 {
		pred.TWriteLimit = units.SecDuration(w/n) + s.DeltaWrite
	}
	for d := 0; d < 2; d++ {
		combined := readSec[d] + writeSec[d]
		if combined <= 0 {
			continue
		}
		lim := units.SecDuration(combined / n)
		if readSec[d] > 0 {
			lim += s.DeltaRead
		}
		if writeSec[d] > 0 {
			lim += s.DeltaWrite
		}
		if lim > pred.TDeviceLimit {
			pred.TDeviceLimit = lim
		}
	}

	// t_mem_limit: heap-overflow spill through the Local device plus
	// expected GC stalls.
	if me, on := pl.Memory.resolve(pl.Curves); on {
		nf, pf := float64(pl.N), float64(pl.P)
		var memScale, memDev float64
		for _, g := range s.Groups {
			a, b := me.groupTerms(float64(g.Count), me.expansion*float64(g.ioBytes()), nf, pf)
			memScale += a
			memDev += b
		}
		pred.TMemLimit = units.SecDuration(maxf(memScale, memDev))
	}

	if mode == ModeNoOverlap {
		pred.T = pred.TScale + pred.TReadLimit + pred.TWriteLimit + pred.TMemLimit
		pred.Bottleneck = "sum"
		return pred
	}
	pred.T = pred.TScale
	pred.Bottleneck = "scale"
	if pred.TReadLimit > pred.T {
		pred.T = pred.TReadLimit
		pred.Bottleneck = "read"
	}
	if pred.TWriteLimit > pred.T {
		pred.T = pred.TWriteLimit
		pred.Bottleneck = "write"
	}
	if pred.TDeviceLimit > pred.T {
		pred.T = pred.TDeviceLimit
		pred.Bottleneck = "device"
	}
	if pred.TMemLimit > 0 && pred.TMemLimit > pred.T {
		pred.Bottleneck = "memory"
	}
	pred.T += pred.TMemLimit
	return pred
}

// refPredict sums classicPredict over the stages.
func refPredict(a AppModel, pl Platform, mode Mode) AppPrediction {
	out := AppPrediction{App: a.Name}
	for _, s := range a.Stages {
		sp := classicPredict(s, pl, mode)
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
	if _, err := cm.MemTotal(3, -2); err == nil {
		t.Error("MemTotal accepted a negative P")
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
	for _, mode := range []Mode{ModeDoppio, ModePeakBW, ModeNoOverlap} {
		for _, heap := range []units.ByteSize{0, 256 * units.MB} {
			env := testEnv()
			env.Memory = MemParams{HeapBytes: heap}
			cm, err := Compile(app, env, mode)
			if err != nil {
				t.Fatal(err)
			}
			pl := Platform{Curves: env.Curves, Replication: env.Replication, BlockSize: env.BlockSize, Memory: env.Memory}
			for _, sh := range []Shape{{1, 1}, {3, 8}, {10, 36}, {64, 32}} {
				pl.N, pl.P = sh.N, sh.P
				// Reference census: the rule the sweep endpoint has always used.
				counts := map[string]int{}
				top := ""
				for _, s := range app.Stages {
					st := classicPredict(s, pl, mode)
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
					t.Errorf("%v heap %v shape %v: TopBottleneck = %q, census says %q", mode, heap, sh, got, top)
				}
			}
		}
	}
}

// TestCompileAllocsSameInEveryMode: resolving the peak bandwidth in
// ModePeakBW must not copy the curve's sample table per op.
func TestCompileAllocsSameInEveryMode(t *testing.T) {
	app, env := testApp(), testEnv()
	allocs := map[Mode]float64{}
	for _, mode := range []Mode{ModeDoppio, ModePeakBW, ModeNoOverlap} {
		allocs[mode] = testing.AllocsPerRun(50, func() {
			if _, err := Compile(app, env, mode); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[ModePeakBW] != allocs[ModeDoppio] || allocs[ModeNoOverlap] != allocs[ModeDoppio] {
		t.Errorf("Compile allocations differ by mode: %v", allocs)
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
