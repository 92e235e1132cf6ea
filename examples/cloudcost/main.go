// Cloud cost optimisation (paper Section VI): calibrate the Doppio
// model with four sample runs on a three-slave virtual cluster, then
// search the Google Cloud configuration space for the cheapest way to
// run whole-genome analysis, and compare with the Spark (R1) and
// Cloudera (R2) provisioning guides.
//
//	go run ./examples/cloudcost
package main

import (
	"fmt"
	"log"

	"repro/internal/calib"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/units"
	"repro/internal/workloads"
)

func main() {
	w, err := workloads.Get("gatk4")
	if err != nil {
		log.Fatal(err)
	}

	// Section VI-1: four profiling sample runs on a small cluster —
	// P=1 and P=2 on 500 GB pd-ssd, then P=16 with a 200 GB pd-standard
	// probing the Spark Local and HDFS slots in turn.
	fmt.Println("calibrating (4 sample runs on 3 slaves)...")
	cal, _, err := calib.For(calib.Shared, calib.Cloud(w.Name))
	if err != nil {
		log.Fatal(err)
	}
	for _, warn := range cal.Warnings {
		fmt.Println("  warning:", warn)
	}

	eval := optimizer.ModelEvaluator(cal.Model)
	pricing := cloud.DefaultPricing()
	space := optimizer.DefaultSpace(10)
	space.VCPUs = []int{16}

	fmt.Printf("searching %d configurations with the model (no cluster hours burned)...\n\n", space.Size())
	cands, err := optimizer.GridSearch(space, eval, pricing)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cheapest five configurations:")
	for i := 0; i < 5 && i < len(cands); i++ {
		c := cands[i]
		fmt.Printf("  %-52s time=%5.0f min  cost=$%.2f\n", c.Spec.String(), c.Time.Minutes(), c.Cost)
	}
	best := cands[0]

	fmt.Println("\nprovisioning-guide references:")
	for _, ref := range []struct {
		name string
		spec cloud.ClusterSpec
	}{
		{"R1 (Spark docs: 1 disk per 2 cores)", cloud.R1(10, 16)},
		{"R2 (Cloudera: 1 disk per core)", cloud.R2(10, 16)},
	} {
		d, err := eval.Evaluate(ref.spec)
		if err != nil {
			log.Fatal(err)
		}
		c := ref.spec.Cost(d, pricing)
		fmt.Printf("  %-38s cost=$%.2f  -> optimal saves %.0f%%\n", ref.name, c, (1-best.Cost/c)*100)
	}

	// Section VI-2-style verification: run the real (simulated) cluster
	// on the chosen configuration and check the model's runtime.
	fmt.Println("\nverifying the optimum against the cluster simulator...")
	simTime, err := optimizer.SimEvaluator(w.Build)(best.Spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  model %.0f min vs measured %.0f min (err %.1f%%)\n",
		best.Time.Minutes(), simTime.Minutes(),
		core.ErrorRate(best.Time, simTime)*100)

	// The paper's gradient-descent-style alternative to the full grid.
	start := cloud.ClusterSpec{
		Slaves: 10, VCPUs: 16,
		HDFSType: cloud.PDStandard, HDFSSize: units.TB,
		LocalType: cloud.PDStandard, LocalSize: units.TB,
	}
	got, evals, err := optimizer.CoordinateDescent(space, start, eval, pricing)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncoordinate descent: %d evaluations (grid: %d) -> %v at $%.2f\n",
		evals, space.Size(), got.Spec, got.Cost)
}
