package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/disk"
	"repro/internal/spark"
	"repro/internal/units"
	"repro/internal/workloads"
)

func calibrateGATK4(t *testing.T) *Calibration {
	t.Helper()
	hdd, ssd := disk.NewHDD(), disk.NewSSD()
	w, err := workloads.Get("gatk4")
	if err != nil {
		t.Fatal(err)
	}
	base := spark.DefaultTestbed(3, 1, ssd, ssd)
	cal, err := Calibrate(base, ssd, hdd, w.Build)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// TestSamplePlatformsMatchPlatformFor pins Calibrate's shared curves:
// each sample platform must equal PlatformFor of its run's
// configuration, on the testbed devices and on cloud disks, with the
// memory layer off and on.
func TestSamplePlatformsMatchPlatformFor(t *testing.T) {
	for _, c := range []struct {
		name     string
		ssd, hdd disk.Device
		slaves   int
		heapGB   float64
	}{
		{"testbed", disk.NewSSD(), disk.NewHDD(), 10, 0},
		{"cloud", cloud.NewDisk(cloud.PDSSD, 500*units.GB), cloud.NewDisk(cloud.PDStandard, 200*units.GB), 3, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := spark.DefaultTestbed(c.slaves, 1, c.ssd, c.ssd)
			base.Memory = spark.MemoryConfig{HeapGB: c.heapGB}
			cfg1 := base.WithDisks(c.ssd, c.ssd).WithCores(1)
			cfg3 := base.WithDisks(c.ssd, c.hdd).WithCores(16)
			cfg4 := base.WithDisks(c.hdd, c.ssd).WithCores(16)
			pl1, pl3, pl4 := samplePlatforms(cfg1, cfg3, cfg4)
			for _, pc := range []struct {
				run int
				got Platform
				cfg spark.ClusterConfig
			}{{1, pl1, cfg1}, {3, pl3, cfg3}, {4, pl4, cfg4}} {
				if want := PlatformFor(pc.cfg); !reflect.DeepEqual(pc.got, want) {
					t.Errorf("run %d platform: %+v, PlatformFor: %+v", pc.run, pc.got, want)
				}
			}
		})
	}
}

func TestCalibrateReconstructsStructure(t *testing.T) {
	cal := calibrateGATK4(t)
	m := cal.Model
	if len(m.Stages) != 3 {
		t.Fatalf("stages = %d, want 3", len(m.Stages))
	}
	names := []string{"MD", "BR", "SF"}
	for i, n := range names {
		if m.Stages[i].Name != n {
			t.Errorf("stage %d = %s, want %s", i, m.Stages[i].Name, n)
		}
	}
	br, _ := m.Stage("BR")
	if len(br.Groups) != 2 {
		t.Fatalf("BR groups = %d, want 2 (filter + recal)", len(br.Groups))
	}
	// The recal group should have recovered T ≈ 60 MB/s and the ~28 KB
	// request size from the measurements alone.
	recal := br.Groups[1]
	if len(recal.Ops) != 1 || recal.Ops[0].Kind != spark.OpShuffleRead {
		t.Fatalf("recal ops = %+v", recal.Ops)
	}
	op := recal.Ops[0]
	if tm := op.T.PerSecMB(); tm < 50 || tm > 70 {
		t.Errorf("recovered T = %.1f MB/s, want ~60", tm)
	}
	if op.ReqSize < 25*units.KB || op.ReqSize > 32*units.KB {
		t.Errorf("recovered request size = %v, want ~28KB", op.ReqSize)
	}
	if op.BytesPerTask < 26*units.MB || op.BytesPerTask > 28*units.MB {
		t.Errorf("recovered reducer bytes = %v, want ~27MB", op.BytesPerTask)
	}
	// λ = task/IO should come out ≈ 20 on the SSD platform.
	ssd := disk.NewSSD()
	pl := Platform{N: 3, P: 1, Curves: CurvesFor(ssd, ssd), Replication: 2, BlockSize: 128 * units.MB}
	bp, err := recal.Analyze(0, pl)
	if err != nil {
		t.Fatal(err)
	}
	if bp.Lambda < 17 || bp.Lambda > 23 {
		t.Errorf("recovered λ = %.1f, want ~20", bp.Lambda)
	}
}

// TestCalibratedModelAccuracy is the heart of the reproduction: the
// four-sample-run calibrated model predicts GATK4 runtimes on a
// ten-slave cluster across disk configurations and core counts within
// the paper's 10% application-level error bound (Fig. 7 reports <6%
// average per stage; our MarkDuplicate carries the GC effect the paper
// explicitly excludes from its model, so MD is checked looser, as the
// paper itself does in Section V-A1).
func TestCalibratedModelAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("full prediction grid")
	}
	cal := calibrateGATK4(t)
	hdd, ssd := disk.NewHDD(), disk.NewSSD()
	w, _ := workloads.Get("gatk4")

	var sumErr float64
	var cells int
	for _, devs := range []struct {
		name        string
		hdfs, local disk.Device
	}{{"2SSD", ssd, ssd}, {"hddHDFS", hdd, ssd}, {"hddLocal", ssd, hdd}, {"2HDD", hdd, hdd}} {
		for _, p := range []int{6, 12, 24} {
			cfg := spark.DefaultTestbed(10, p, devs.hdfs, devs.local)
			res, err := spark.Run(cfg, w.Build(cfg))
			if err != nil {
				t.Fatal(err)
			}
			pred, err := cal.Model.Predict(PlatformFor(cfg), ModeDoppio)
			if err != nil {
				t.Fatal(err)
			}
			var expTotal, modTotal time.Duration
			for _, st := range []string{"MD", "BR", "SF"} {
				meas := res.MustStage(st).Duration()
				pr, ok := pred.Stage(st)
				if !ok {
					t.Fatalf("no prediction for %s", st)
				}
				e := ErrorRate(pr.T, meas)
				sumErr += e
				cells++
				limit := 0.15
				if st == "MD" {
					limit = 0.40 // GC is outside the model (paper §V-A1)
				}
				if e > limit {
					t.Errorf("%s P=%d %s: exp=%.1fmin model=%.1fmin err=%.0f%% (>%.0f%%)",
						devs.name, p, st, meas.Minutes(), pr.T.Minutes(), e*100, limit*100)
				}
				expTotal += meas
				modTotal += pr.T
			}
			// Application-level error must stay within the paper's 10%.
			if e := ErrorRate(modTotal, expTotal); e > 0.10 {
				t.Errorf("%s P=%d: app-level error %.1f%% > 10%%", devs.name, p, e*100)
			}
		}
	}
	if avg := sumErr / float64(cells); avg > 0.10 {
		t.Errorf("average per-stage error %.1f%% > 10%%", avg*100)
	}
}

func TestCalibrationNoWarningsForGATK4(t *testing.T) {
	cal := calibrateGATK4(t)
	// The SSD sample runs at P=1 must not be I/O-saturated for GATK4
	// (that is the paper's sanity check before fitting t_avg).
	for _, w := range cal.Warnings {
		t.Errorf("unexpected calibration warning: %s", w)
	}
}

func TestCalibrationRunsRecorded(t *testing.T) {
	cal := calibrateGATK4(t)
	for i, r := range []*spark.Result{cal.Run1, cal.Run2, cal.Run3, cal.Run4} {
		if r == nil {
			t.Fatalf("run %d missing", i+1)
		}
		if len(r.Stages) != 3 {
			t.Errorf("run %d has %d stages", i+1, len(r.Stages))
		}
	}
	if cal.Run1.Cores != 1 || cal.Run2.Cores != 2 || cal.Run3.Cores != 16 || cal.Run4.Cores != 16 {
		t.Error("sample runs used wrong core counts")
	}
	// Run 2 at P=2 should be roughly half run 1's wall time (scale
	// regime).
	ratio := cal.Run1.Total.Seconds() / cal.Run2.Total.Seconds()
	if ratio < 1.7 || ratio > 2.2 {
		t.Errorf("run1/run2 ratio = %.2f, want ~2 (both scale-bound)", ratio)
	}
}

// TestAblationPeakBW: replacing the request-size-aware lookup by peak
// bandwidth must blow up the HDD-local prediction error — the paper's
// core argument against Ernest-style models.
func TestAblationPeakBW(t *testing.T) {
	if testing.Short() {
		t.Skip("extra sim runs")
	}
	cal := calibrateGATK4(t)
	hdd, ssd := disk.NewHDD(), disk.NewSSD()
	w, _ := workloads.Get("gatk4")
	cfg := spark.DefaultTestbed(10, 24, ssd, hdd)
	res, err := spark.Run(cfg, w.Build(cfg))
	if err != nil {
		t.Fatal(err)
	}
	pl := PlatformFor(cfg)
	meas := res.MustStage("BR").Duration()

	good, _ := cal.Model.Predict(pl, ModeDoppio)
	bad, _ := cal.Model.Predict(pl, ModePeakBW)
	gp, _ := good.Stage("BR")
	bp, _ := bad.Stage("BR")
	if e := ErrorRate(gp.T, meas); e > 0.15 {
		t.Errorf("doppio BR error %.0f%%", e*100)
	}
	if e := ErrorRate(bp.T, meas); e < 0.5 {
		t.Errorf("peak-BW BR error only %.0f%%; ablation should fail badly", e*100)
	}
}
