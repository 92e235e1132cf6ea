package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/spark"
	"repro/internal/workloads"
)

func init() {
	register(Experiment{ID: "ablation-model", Title: "Ablation: Doppio vs peak-bandwidth vs no-overlap model variants", Run: ablationModel})
	register(Experiment{ID: "ablation-gc", Title: "Ablation: MarkDuplicate GC model on/off (paper §V-A1)", Run: ablationGC})
}

// ablationModel quantifies why the paper's two I/O-aware ingredients
// matter: the request-size-aware bandwidth lookup (vs Ernest-style peak
// bandwidth) and the CPU/I/O overlap max() composition (vs additive).
func ablationModel(ctx context.Context) (*Table, error) {
	cal, err := SharedTestbedCalibration(ctx, "gatk4")
	if err != nil {
		return nil, err
	}
	w := mustWorkload("gatk4")
	t := &Table{
		ID: "ablation-model", Title: "GATK4 total-runtime prediction error by model variant, 10 slaves",
		Columns: []string{"config", "P", "exp (min)", "doppio", "peak-bw", "no-overlap"},
	}
	for _, c := range hybridConfigs {
		for _, p := range []int{12, 24} {
			cfg := spark.DefaultTestbed(10, p, c.HDFS(), c.Local())
			res, err := runSim(w, cfg)
			if err != nil {
				return nil, err
			}
			pl := core.PlatformFor(cfg)
			row := []string{c.Name, fmt.Sprint(p), fmtMin(res.Total)}
			for _, mode := range []core.Mode{core.ModeDoppio, core.ModePeakBW, core.ModeNoOverlap} {
				pred, err := cal.Model.Predict(pl, mode)
				if err != nil {
					return nil, err
				}
				row = append(row, fmtPct(core.ErrorRate(pred.Total, res.Total)))
			}
			t.AddRow(row...)
		}
	}
	t.Note("peak-bw collapses on HDD-local configs (it prices 30KB reads at sequential bandwidth); no-overlap overpredicts everywhere (it double-counts I/O hidden under computation)")
	return t, nil
}

// ablationGC isolates the GC model behind the MD flatness observation.
func ablationGC(context.Context) (*Table, error) {
	withGC := workloads.DefaultGATK4Params()
	noGC := withGC
	noGC.GCPerCore = 0

	ssd := disk.NewSSD()
	t := &Table{
		ID: "ablation-gc", Title: "MarkDuplicate runtime (min) on SSDs vs P, with and without the GC model",
		Columns: []string{"P", "with GC", "without GC"},
	}
	for _, p := range []int{12, 24, 36} {
		cfg := spark.DefaultTestbed(3, p, ssd, ssd)
		a, err := spark.Run(cfg, withGC.Build(cfg))
		if err != nil {
			return nil, err
		}
		b, err := spark.Run(cfg, noGC.Build(cfg))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(p),
			fmtMin(a.MustStage("MD").Duration()),
			fmtMin(b.MustStage("MD").Duration()))
	}
	t.Note("with GC, MD stays near flat in P (the paper's observed behaviour); without it, MD scales like any compute stage — GC is why the analytic model misses MD at high P (paper §V-A1)")
	return t, nil
}
