package campaign

import (
	"context"
	"testing"
)

// BenchmarkCampaignStudy evaluates the 64 points of perfbench's
// model-mode study at its seed 7 through one worker's Runner pool, as
// Run does, without checkpoint I/O. The workloads' calibrations are
// shared and warmed before timing, so an op is the simulations and the
// model predictions of one campaign pass.
func BenchmarkCampaignStudy(b *testing.B) {
	cfg := Config{
		Name: "perfbench",
		Mode: ModeModel,
		Base: Base{Cores: 4, Seed: 8},
		Axes: Axes{
			Workloads: []string{"sql", "terasort", "svm", "trianglecount"},
			Nodes:     []int{4, 7},
			Devices:   []string{"hdd", "ssd"},
			HeapGBs:   []float64{0, 2},
			FetchFail: []float64{0, 0.05},
		},
	}.withDefaults()
	points := cfg.Points()
	pass := func() {
		runners := make(runnerPool, 1)
		for _, p := range points {
			if _, err := runners.evaluate(context.Background(), cfg, p); err != nil {
				b.Fatalf("%s: %v", p.Name(), err)
			}
		}
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
