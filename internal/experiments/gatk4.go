package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/spark"
	"repro/internal/units"
)

// hybridConfigs are Table III's four HDD/SSD combinations.
var hybridConfigs = []struct {
	Name        string
	HDFS, Local func() disk.Device
}{
	{"1 (hdfs=SSD local=SSD)", newSSD, newSSD},
	{"2 (hdfs=HDD local=SSD)", newHDD, newSSD},
	{"3 (hdfs=SSD local=HDD)", newSSD, newHDD},
	{"4 (hdfs=HDD local=HDD)", newHDD, newHDD},
}

func newSSD() disk.Device { return disk.NewSSD() }
func newHDD() disk.Device { return disk.NewHDD() }

func init() {
	register(Experiment{ID: "tab4", Title: "Table IV: I/O data size (GB) in different GATK4 stages", Run: tableIV})
	register(Experiment{ID: "fig2", Title: "Fig. 2: GATK4 stage runtimes, four disk configs, P=36, 3 slaves", Run: fig2})
	register(Experiment{ID: "fig3", Title: "Fig. 3: GATK4 runtime for 2HDD and 2SSD, P=12/24/36", Run: fig3})
	register(Experiment{ID: "fig7", Title: "Fig. 7: GATK4 measured (exp) vs Doppio model, 10 slaves", Run: fig7})
}

// tableIV regenerates Table IV from the simulator's own I/O accounting.
func tableIV(context.Context) (*Table, error) {
	w := mustWorkload("gatk4")
	ssd := disk.NewSSD()
	res, err := runSim(w, spark.DefaultTestbed(3, 36, ssd, ssd))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "tab4", Title: "I/O data size (GB) in different GATK4 stages",
		Columns: []string{"stage", "HDFS read", "Shuffle write", "Shuffle read", "HDFS write"},
	}
	for _, name := range []string{"MD", "BR", "SF"} {
		s := res.MustStage(name)
		t.AddRow(name,
			fmtGB(s.IO[spark.OpHDFSRead].Bytes),
			fmtGB(s.IO[spark.OpShuffleWrite].Bytes),
			fmtGB(s.IO[spark.OpShuffleRead].Bytes),
			fmtGB(s.IO[spark.OpHDFSWrite].Bytes))
	}
	t.Note("paper: MD 122/334/0/0, BR 122/0/334/0, SF 122/0/334/166 GB (HDFS write here includes 2x replication)")
	return t, nil
}

// fig2 measures the four Table III configurations at P=36 on three
// slaves.
func fig2(context.Context) (*Table, error) {
	w := mustWorkload("gatk4")
	t := &Table{
		ID: "fig2", Title: "GATK4 stage runtime (min), 500M read pairs, 3 slaves, P=36",
		Columns: []string{"config", "MD", "BR", "SF", "total"},
	}
	for _, c := range hybridConfigs {
		res, err := runSim(w, spark.DefaultTestbed(3, 36, c.HDFS(), c.Local()))
		if err != nil {
			return nil, err
		}
		t.AddRow(c.Name,
			fmtMin(res.MustStage("MD").Duration()),
			fmtMin(res.MustStage("BR").Duration()),
			fmtMin(res.MustStage("SF").Duration()),
			fmtMin(res.Total))
	}
	t.Note("paper's shape: HDFS switch moves BR (<=30%%) and SF (<=90%%) but not MD; local HDD pushes BR and SF to ~126 min each")
	return t, nil
}

// fig3 sweeps P for the 2SSD and 2HDD configurations.
func fig3(context.Context) (*Table, error) {
	w := mustWorkload("gatk4")
	t := &Table{
		ID: "fig3", Title: "GATK4 stage runtime (min) vs per-node cores P, 3 slaves",
		Columns: []string{"config", "P", "MD", "BR", "SF"},
	}
	for _, c := range []struct {
		name string
		dev  func() disk.Device
	}{{"2SSD", newSSD}, {"2HDD", newHDD}} {
		for _, p := range []int{12, 24, 36} {
			res, err := runSim(w, spark.DefaultTestbed(3, p, c.dev(), c.dev()))
			if err != nil {
				return nil, err
			}
			t.AddRow(c.name, fmt.Sprint(p),
				fmtMin(res.MustStage("MD").Duration()),
				fmtMin(res.MustStage("BR").Duration()),
				fmtMin(res.MustStage("SF").Duration()))
		}
	}
	t.Note("paper's shape: BR/SF scale with P on SSDs, stay flat on HDDs (B=5); MD near flat on both (GC / shuffle-write bound)")
	return t, nil
}

// fig7 compares the simulator against the four-sample-run calibrated
// model on ten slaves, P ∈ {6,12,24}, all four disk configurations.
func fig7(ctx context.Context) (*Table, error) {
	cal, err := SharedTestbedCalibration(ctx, "gatk4")
	if err != nil {
		return nil, err
	}
	w := mustWorkload("gatk4")
	t := &Table{
		ID: "fig7", Title: "GATK4 measured (exp) vs model (min), 10 slaves",
		Columns: []string{"config", "P", "stage", "exp", "model", "err"},
	}
	var sumErr float64
	var cells int
	for _, c := range hybridConfigs {
		for _, p := range []int{6, 12, 24} {
			cfg := spark.DefaultTestbed(10, p, c.HDFS(), c.Local())
			res, err := runSim(w, cfg)
			if err != nil {
				return nil, err
			}
			pred, err := cal.Model.Predict(core.PlatformFor(cfg), core.ModeDoppio)
			if err != nil {
				return nil, err
			}
			for _, st := range []string{"MD", "BR", "SF"} {
				meas := res.MustStage(st).Duration()
				pr, _ := pred.Stage(st)
				e := core.ErrorRate(pr.T, meas)
				sumErr += e
				cells++
				t.AddRow(c.Name, fmt.Sprint(p), st, fmtMin(meas), fmtMin(pr.T), fmtPct(e))
			}
		}
	}
	t.SetMetric("avg_error", sumErr/float64(cells))
	t.Note("average per-stage error: %s (paper reports <6%%; MD carries the unmodelled GC effect, paper §V-A1)", fmtPct(sumErr/float64(cells)))
	return t, nil
}

// shuffleReadReqSize is re-exported for the fig5 annotation.
var gatk4ShuffleReqSize = spark.ShuffleReadReqSize(27*units.MB, 973)
