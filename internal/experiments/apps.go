package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/spark"
)

// appFigure describes one of the Fig. 8–12 model-validation figures:
// a workload, its phase decomposition, which disks the comparison
// switches, and the paper's published average error and headline gap.
type appFigure struct {
	id, title  string
	workload   string
	phases     []string
	switchHDFS bool // true: both disks switch; false: only Spark Local
	paperErr   string
	paperGap   string
}

var appFigures = []appFigure{
	{"fig8a", "Fig. 8a: Logistic Regression, 1200M examples (cached)", "lr-small",
		[]string{"dataValidator", "iter"}, true, "5.3%", "2x on dataValidator"},
	{"fig8b", "Fig. 8b: Logistic Regression, 4000M examples (persisted)", "lr-large",
		[]string{"dataValidator", "iter"}, true, "5.3%", "7.0x on iterations"},
	{"fig9", "Fig. 9: Support Vector Machine", "svm",
		[]string{"dataValidator", "iter", "subtract-map", "subtract"}, false, "8.4%", "6.2x on subtract"},
	{"fig10", "Fig. 10: PageRank", "pagerank",
		[]string{"graphLoader", "iter", "saveAsTextFile"}, true, "5.2%", "2.2x on iterations"},
	{"fig11", "Fig. 11: Triangle Count", "trianglecount",
		[]string{"graphLoader", "canonicalize", "computeTriangleCount"}, false, "3.6%", "6.5x on computeTriangleCount"},
	{"fig12", "Fig. 12: Terasort", "terasort",
		[]string{"NF", "SF"}, false, "3.9%", "2.6x overall"},
}

func init() {
	for _, f := range appFigures {
		f := f
		register(Experiment{ID: f.id, Title: f.title, Run: func(ctx context.Context) (*Table, error) { return runAppFigure(ctx, f) }})
	}
}

// runAppFigure produces the exp-vs-model comparison for one workload on
// the ten-slave cluster under the HDD and SSD configurations.
func runAppFigure(ctx context.Context, f appFigure) (*Table, error) {
	cal, err := SharedTestbedCalibration(ctx, f.workload)
	if err != nil {
		return nil, err
	}
	w := mustWorkload(f.workload)
	t := &Table{
		ID: f.id, Title: f.title + " — measured (exp) vs model (min), 10 slaves, P=36",
		Columns: []string{"config", "phase", "exp", "model", "err"},
	}

	type cfgCase struct {
		name        string
		hdfs, local disk.Device
	}
	cases := []cfgCase{
		{"SSD", disk.NewSSD(), disk.NewSSD()},
	}
	if f.switchHDFS {
		cases = append(cases, cfgCase{"HDD", disk.NewHDD(), disk.NewHDD()})
	} else {
		cases = append(cases, cfgCase{"HDD-local", disk.NewSSD(), disk.NewHDD()})
	}

	var sumErr float64
	var cells int
	phaseTimes := map[string]map[string]time.Duration{}
	for _, c := range cases {
		cfg := spark.DefaultTestbed(10, 36, c.hdfs, c.local)
		res, err := runSim(w, cfg)
		if err != nil {
			return nil, err
		}
		pred, err := cal.Model.Predict(core.PlatformFor(cfg), core.ModeDoppio)
		if err != nil {
			return nil, err
		}
		phaseTimes[c.name] = map[string]time.Duration{}
		for _, ph := range f.phases {
			meas := phaseTime(res, ph)
			mod := phasePrediction(pred, ph)
			e := core.ErrorRate(mod, meas)
			sumErr += e
			cells++
			phaseTimes[c.name][ph] = meas
			t.AddRow(c.name, ph, fmtMin(meas), fmtMin(mod), fmtPct(e))
		}
		meas, mod := res.Total, pred.Total
		e := core.ErrorRate(mod, meas)
		sumErr += e
		cells++
		phaseTimes[c.name]["total"] = meas
		t.AddRow(c.name, "total", fmtMin(meas), fmtMin(mod), fmtPct(e))
	}

	t.SetMetric("avg_error", sumErr/float64(cells))
	t.Note("average error: %s (paper: %s)", fmtPct(sumErr/float64(cells)), f.paperErr)
	hddName := cases[1].name
	for _, ph := range append(f.phases, "total") {
		h, s := phaseTimes[hddName][ph], phaseTimes["SSD"][ph]
		if s > 0 && h > 0 {
			gap := h.Seconds() / s.Seconds()
			t.SetMetric("gap_"+ph, gap)
			t.Note("HDD/SSD gap on %s: %s (paper headline: %s)", ph, fmtX(gap), f.paperGap)
		}
	}
	return t, nil
}

// ensure the fmt import is used even if note formats change.
var _ = fmt.Sprint
