package optimizer

import (
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/spark"
	"repro/internal/units"
	"repro/internal/workloads"
)

// calibrateOnCloud performs the paper's Section VI-1 procedure on
// virtual disks: sample runs on a three-slave cluster with 500 GB
// pd-ssd (runs 1, 2) and 200 GB pd-standard in the probed slot (runs 3,
// 4).
func calibrateOnCloud(t *testing.T) core.AppModel {
	t.Helper()
	return calibrateWorkloadOnCloud(t, "gatk4")
}

// calibrateWorkloadOnCloud is calibrateOnCloud for any registered
// workload: the calibration serve's recommend endpoint runs.
func calibrateWorkloadOnCloud(t *testing.T, name string) core.AppModel {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	ssd := cloud.NewDisk(cloud.PDSSD, 500*units.GB)
	hdd := cloud.NewDisk(cloud.PDStandard, 200*units.GB)
	base := spark.DefaultTestbed(3, 1, ssd, ssd)
	cal, err := core.Calibrate(base, ssd, hdd, w.Build)
	if err != nil {
		t.Fatal(err)
	}
	return cal.Model
}

func fixedEval(d time.Duration) Evaluator {
	return func(cloud.ClusterSpec) (time.Duration, error) { return d, nil }
}

func TestGridSearchSortsByCost(t *testing.T) {
	space := Space{
		Slaves:     2,
		VCPUs:      []int{4, 8},
		HDFSTypes:  []cloud.DiskType{cloud.PDStandard},
		HDFSSizes:  []units.ByteSize{units.TB},
		LocalTypes: []cloud.DiskType{cloud.PDStandard, cloud.PDSSD},
		LocalSizes: []units.ByteSize{100 * units.GB, units.TB},
	}
	cands, err := GridSearch(space, fixedEval(time.Hour), cloud.DefaultPricing())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != space.Size() {
		t.Fatalf("candidates = %d, want %d", len(cands), space.Size())
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Cost < cands[i-1].Cost {
			t.Fatal("not sorted by cost")
		}
	}
	// With identical runtimes the cheapest provisioning must win:
	// fewest vCPUs, smallest standard disk.
	best := cands[0].Spec
	if best.VCPUs != 4 || best.LocalType != cloud.PDStandard || best.LocalSize != 100*units.GB {
		t.Errorf("best = %v", best)
	}
}

func TestGridSearchEmptySpace(t *testing.T) {
	if _, err := GridSearch(Space{}, fixedEval(time.Hour), cloud.DefaultPricing()); err == nil {
		t.Error("empty space accepted")
	}
}

func TestBest(t *testing.T) {
	if _, err := Best(nil); err == nil {
		t.Error("Best(nil) should fail")
	}
	c, err := Best([]Candidate{{Cost: 5}, {Cost: 2}, {Cost: 9}})
	if err != nil || c.Cost != 2 {
		t.Errorf("Best = %+v, %v", c, err)
	}
}

// TestOptimalConfiguration reproduces Section VI-3/4: over the full
// space the optimum puts a small pd-ssd on Spark Local and pd-standard
// on HDFS; the HDD-only optimum provisions ~2 TB of local pd-standard;
// and both beat the R1/R2 provisioning guides by the paper's margins
// (38% and 57%).
func TestOptimalConfiguration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration + grid search")
	}
	model := calibrateOnCloud(t)
	eval := ModelEvaluator(model)
	pricing := cloud.DefaultPricing()

	space := DefaultSpace(10)
	space.VCPUs = []int{16} // the paper fixes 16-vCPU workers ([33])
	all, err := GridSearch(space, eval, pricing)
	if err != nil {
		t.Fatal(err)
	}
	best := all[0]
	if best.Spec.LocalType != cloud.PDSSD {
		t.Errorf("optimum local type = %v, paper finds pd-ssd", best.Spec.LocalType)
	}
	if best.Spec.LocalSize > 500*units.GB {
		t.Errorf("optimum local size = %v, paper finds a small SSD (200GB)", best.Spec.LocalSize)
	}
	if best.Spec.HDFSType != cloud.PDStandard {
		t.Errorf("optimum HDFS type = %v, paper: SSD HDFS brings no savings", best.Spec.HDFSType)
	}

	// HDD-only optimum: ~2 TB local (Fig. 13).
	hddSpace := space
	hddSpace.LocalTypes = []cloud.DiskType{cloud.PDStandard}
	hddSpace.HDFSTypes = []cloud.DiskType{cloud.PDStandard}
	hddAll, err := GridSearch(hddSpace, eval, pricing)
	if err != nil {
		t.Fatal(err)
	}
	hddBest := hddAll[0]
	if hddBest.Spec.LocalSize < units.TB || hddBest.Spec.LocalSize > 2*units.TB {
		t.Errorf("HDD optimum local size = %v, paper finds 2TB", hddBest.Spec.LocalSize)
	}
	if hddBest.Cost <= best.Cost {
		t.Error("HDD optimum should cost more than the SSD optimum")
	}
	// Paper: SSD optimum is ~1.1x cheaper than the HDD optimum.
	if ratio := hddBest.Cost / best.Cost; ratio < 1.02 || ratio > 1.35 {
		t.Errorf("HDD/SSD optimum cost ratio = %.2f, paper says ~1.1", ratio)
	}

	// Headline savings vs R1 (38%) and R2 (57%).
	check := func(name string, ref cloud.ClusterSpec, want float64) {
		d, err := eval.Evaluate(ref)
		if err != nil {
			t.Fatal(err)
		}
		refCost := ref.Cost(d, pricing)
		saving := 1 - best.Cost/refCost
		if saving < want-0.08 || saving > want+0.08 {
			t.Errorf("saving vs %s = %.0f%%, paper reports %.0f%%", name, saving*100, want*100)
		}
	}
	check("R1", cloud.R1(10, 16), 0.38)
	check("R2", cloud.R2(10, 16), 0.57)
}

// TestCoordinateDescentFindsGridOptimum checks the cheap search lands
// on (or very near) the exhaustive optimum while evaluating far fewer
// configurations.
func TestCoordinateDescentFindsGridOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration + searches")
	}
	model := calibrateOnCloud(t)
	eval := ModelEvaluator(model)
	pricing := cloud.DefaultPricing()
	space := DefaultSpace(10)
	space.VCPUs = []int{16}

	all, err := GridSearch(space, eval, pricing)
	if err != nil {
		t.Fatal(err)
	}
	start := cloud.ClusterSpec{
		Slaves: 10, VCPUs: 16,
		HDFSType: cloud.PDStandard, HDFSSize: units.TB,
		LocalType: cloud.PDStandard, LocalSize: units.TB,
	}
	got, evals, err := CoordinateDescent(space, start, eval, pricing)
	if err != nil {
		t.Fatal(err)
	}
	if evals >= space.Size() {
		t.Errorf("descent used %d evals, grid is only %d", evals, space.Size())
	}
	if got.Cost > all[0].Cost*1.05 {
		t.Errorf("descent cost $%.2f vs grid optimum $%.2f", got.Cost, all[0].Cost)
	}
}

// TestFig14Verification mirrors Section VI-2: fix 16 vCPU and 1 TB HDD
// HDFS, sweep the HDD local size; runtime must fall until 2 TB and stay
// flat after, and the model must track the simulator within the paper's
// error bound.
func TestFig14Verification(t *testing.T) {
	if testing.Short() {
		t.Skip("sim sweep")
	}
	w, _ := workloads.Get("gatk4")
	model := calibrateOnCloud(t)
	eval := ModelEvaluator(model)
	sim := SimEvaluator(w.Build)

	times := map[units.ByteSize]time.Duration{}
	for _, ls := range []units.ByteSize{200 * units.GB, 500 * units.GB, units.TB, 2 * units.TB, ByteTB(3.2)} {
		spec := cloud.ClusterSpec{
			Slaves: 10, VCPUs: 16,
			HDFSType: cloud.PDStandard, HDFSSize: units.TB,
			LocalType: cloud.PDStandard, LocalSize: ls,
		}
		st, err := sim(spec)
		if err != nil {
			t.Fatal(err)
		}
		mt, err := eval.Evaluate(spec)
		if err != nil {
			t.Fatal(err)
		}
		// The paper reports <4% here; our simulator's heterogeneous-group
		// queueing leaves a larger residual on the flat tail of the
		// curve (see EXPERIMENTS.md), so the per-point bound is looser.
		if e := core.ErrorRate(mt, st); e > 0.15 {
			t.Errorf("local=%v: model err %.1f%% > 15%%", ls, e*100)
		}
		times[ls] = st
	}
	if !(times[200*units.GB] > 2*times[units.TB]) {
		t.Error("runtime should fall steeply from 200GB to 1TB")
	}
	flat := times[2*units.TB].Seconds() / times[ByteTB(3.2)].Seconds()
	if flat < 0.95 || flat > 1.05 {
		t.Errorf("runtime should be flat past 2TB: ratio %.2f", flat)
	}
}
