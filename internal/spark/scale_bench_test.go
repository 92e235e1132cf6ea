package spark

// Scale benchmarks: a production-size input (64 nodes × 32 cores,
// >100k tasks), a mid-size jittered run, the memory layer's spill path
// and a degraded run at a product shape. docs/BENCH_simcore.json and
// docs/BENCH_simfault.json gate them — refreshing the baselines is
// described in docs/PERF.md.
//
//	go test -bench 'BenchmarkSim' -benchmem -run '^$' ./internal/spark

import (
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/units"
)

// scaleApp is a synthetic two-stage map/reduce application sized like a
// production batch job: scaleTasks map tasks reading HDFS blocks and
// writing shuffle output, and one reduce wave pulling it back in.
func scaleApp(slaves, cores int) App {
	mapTasks := scaleTasks
	reduceTasks := slaves * cores
	perMap := 32 * units.MB
	perReduce := units.ByteSize(int64(mapTasks) * int64(perMap) / int64(reduceTasks))
	return App{
		Name: "scale",
		Stages: []Stage{
			{Name: "map", Groups: []TaskGroup{{
				Name:  "map",
				Count: mapTasks,
				Ops: []Op{
					IOC(OpHDFSRead, perMap, 0, 0, 40*time.Millisecond),
					Compute(120 * time.Millisecond),
					IO(OpShuffleWrite, perMap/2, 0, 0),
				},
			}}},
			{Name: "reduce", Groups: []TaskGroup{{
				Name:  "reduce",
				Count: reduceTasks,
				Ops: []Op{
					IOC(OpShuffleRead, perReduce/2, ShuffleReadReqSize(perReduce/2, mapTasks), units.MBps(60), 200*time.Millisecond),
					Compute(500 * time.Millisecond),
					IO(OpHDFSWrite, perReduce/4, 0, 0),
				},
			}}},
		},
	}
}

const (
	scaleSlaves = 64
	scaleCores  = 32
	scaleTasks  = 102_400 // 64 nodes × 32 cores × 50 full waves
)

// BenchmarkSimScalePerTask runs the 64×32×102,400 input without jitter:
// the simulator's throughput on one large, homogeneous application.
func BenchmarkSimScalePerTask(b *testing.B) {
	ssd := disk.NewSSD()
	cfg := DefaultTestbed(scaleSlaves, scaleCores, ssd, ssd)
	cfg.ComputeJitter = 0
	app := scaleApp(scaleSlaves, scaleCores)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, app)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stages[0].Tasks != scaleTasks {
			b.Fatalf("map stage ran %d tasks", res.Stages[0].Tasks)
		}
	}
}

// BenchmarkSimMedium is a mid-size jittered run, the shape of the
// configs the product builds.
func BenchmarkSimMedium(b *testing.B) {
	ssd := disk.NewSSD()
	cfg := DefaultTestbed(8, 8, ssd, ssd) // default jitter 0.15
	app := scaleAppSized(8, 8, 6400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, app); err != nil {
			b.Fatal(err)
		}
	}
}

// scaleAppSized is scaleApp with an explicit map-task count.
func scaleAppSized(slaves, cores, mapTasks int) App {
	app := scaleApp(slaves, cores)
	app.Stages[0].Groups[0].Count = mapTasks
	return app
}

// BenchmarkSimFaultPerTask prices a degraded run at a product shape:
// the default testbed (jitter on) at 64 slaves × 4 cores, the cold
// request stream's mid-range fault spec (task and fetch failures at 1%,
// 7 failures per task, a 2 s backoff), and speculation with 1%
// stragglers. It fails unless retries and parent recomputes both
// happen, so the fault-recovery paths stay priced.
func BenchmarkSimFaultPerTask(b *testing.B) {
	ssd := disk.NewSSD()
	cfg := DefaultTestbed(64, 4, ssd, ssd)
	cfg.Speculation = true
	cfg.StragglerFraction = 0.01
	cfg.StragglerSlowdown = 3
	cfg.Faults = FaultConfig{
		TaskFailureProb:         0.01,
		ShuffleFetchFailureProb: 0.01,
		MaxTaskFailures:         7,
		RetryBackoff:            2,
		Seed:                    7,
	}
	app := scaleAppSized(64, 4, 6400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, app)
		if err != nil {
			b.Fatal(err)
		}
		if res.Faults.Retries == 0 || res.Faults.Recomputes == 0 {
			b.Fatalf("benchmark config must retry and recompute, got %+v", res.Faults)
		}
	}
}

// BenchmarkSimMemSpill is the memory layer's hot path: the mid-size
// jittered input with a heap small enough that every wave spills and
// collects, so each task pays reservation accounting, spill I/O through
// the Local device and a seeded GC stall on top of the fallback path
// BenchmarkSimMedium prices.
func BenchmarkSimMemSpill(b *testing.B) {
	ssd := disk.NewSSD()
	cfg := DefaultTestbed(8, 8, ssd, ssd) // default jitter 0.15
	cfg.Memory = MemoryConfig{HeapGB: 0.5}
	app := scaleAppSized(8, 8, 6400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, app)
		if err != nil {
			b.Fatal(err)
		}
		if res.Mem.SpilledTasks == 0 {
			b.Fatal("benchmark config must exercise the spill path")
		}
	}
}
