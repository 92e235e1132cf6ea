package core

import (
	"runtime"
	"testing"

	"repro/internal/disk"
	"repro/internal/spark"
	"repro/internal/workloads"
)

// coldPairs is a fixed mix of the (workload, slaves) calibrations a cold
// serve request pays for: sql across its 1..1024 slave range, and the
// heavier svm, terasort and trianglecount at two counts each (≤256).
// Most counts do not divide the calibration apps' group counts, so the
// sample runs take the per-task simulator path, as cold requests do.
var coldPairs = []struct {
	workload string
	slaves   int
}{
	{"sql", 1}, {"sql", 64}, {"sql", 500}, {"sql", 1000},
	{"svm", 13}, {"svm", 150},
	{"terasort", 7}, {"terasort", 90},
	{"trianglecount", 29}, {"trianglecount", 256},
}

// BenchmarkCalibrate is the cold-path baseline: one op calibrates every
// coldPairs entry (four sample runs each) on the physical-testbed
// devices, exactly as serve's calibration cache does on a miss. Gated in
// docs/BENCH_e2e.json.
func BenchmarkCalibrate(b *testing.B) {
	ssd, hdd := disk.NewSSD(), disk.NewHDD()
	builds := make([]func(spark.ClusterConfig) spark.App, len(coldPairs))
	for i, p := range coldPairs {
		w, err := workloads.Get(p.workload)
		if err != nil {
			b.Fatal(err)
		}
		builds[i] = w.Build
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range coldPairs {
			// Each calibration starts on an empty simulator park, as after
			// a collection, so B/op and allocs/op price one fresh
			// simulator per pair whenever the collector runs.
			b.StopTimer()
			runtime.GC()
			b.StartTimer()
			base := spark.DefaultTestbed(p.slaves, 1, ssd, ssd)
			if _, err := Calibrate(base, ssd, hdd, builds[j]); err != nil {
				b.Fatalf("%s at %d slaves: %v", p.workload, p.slaves, err)
			}
		}
	}
}
