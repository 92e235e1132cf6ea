package spark

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/disk"
)

// FuzzDegradedRun drives randomized degraded-mode configurations —
// fault rates, straggler fractions, jitter, seeds, speculation knobs
// and cluster shapes — through Run twice and checks that
//
//   - both runs are deeply equal, Result or typed error: the pooled
//     attempts, slabs and queues carry no state between runs;
//   - a fatal error is a *TaskFailedError or a *NoHealthyNodesError;
//   - CoreSeconds ≤ Slaves·Cores·Total: no more core time than the
//     cluster had;
//   - every stage's HDFSBusy and LocalBusy ≤ Slaves·(End−Start): no
//     device is busier than the stage's wall time.
//
// The seed corpus covers the paper's degraded-measurement regimes:
// fig-13-style task-failure sweeps, fig-14-style fetch-failure /
// recompute runs, and fig-15-style straggler + speculation studies.
func FuzzDegradedRun(f *testing.F) {
	// slaves, cores, mapTasks, failP, fetchP, stragF, slow, jitter, spec, specMult, seed, fseed
	f.Add(8, 4, 128, 0.01, 0.0, 0.0, 0.0, 0.0, false, 0.0, uint64(42), uint64(7))   // fig-13: task failures
	f.Add(8, 4, 128, 0.005, 0.02, 0.0, 0.0, 0.0, false, 0.0, uint64(42), uint64(3)) // fig-14: fetch failures + recompute
	f.Add(8, 4, 128, 0.0, 0.0, 0.03, 5.0, 0.0, true, 1.5, uint64(42), uint64(0))    // fig-15: stragglers + speculation
	f.Add(6, 2, 120, 0.01, 0.01, 0.02, 4.0, 0.0, true, 2.0, uint64(1), uint64(11))  // everything on
	f.Add(4, 2, 30, 0.02, 0.0, 0.0, 0.0, 0.15, false, 0.0, uint64(9), uint64(5))    // jittered
	f.Add(3, 1, 33, 0.1, 0.05, 0.1, 6.0, 0.0, true, 1.2, uint64(13), uint64(17))    // indivisible counts, high rates
	f.Fuzz(func(t *testing.T, slaves, cores, mapTasks int,
		failP, fetchP, stragF, slow, jitter float64,
		spec bool, specMult float64, seed, fseed uint64) {
		mod := func(v, lo, hi int) int {
			if v < 0 {
				v = -v
			}
			if v < 0 { // math.MinInt
				v = 0
			}
			return lo + v%(hi-lo+1)
		}
		frac := func(v, hi float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return 0
			}
			return math.Mod(v, hi)
		}
		slaves = mod(slaves, 1, 10)
		cores = mod(cores, 1, 4)
		mapTasks = mod(mapTasks, 1, 160)

		ssd := disk.NewSSD()
		cfg := DefaultTestbed(slaves, cores, ssd, ssd)
		cfg.Seed = seed
		cfg.ComputeJitter = frac(jitter, 0.3)
		cfg.Speculation = spec
		cfg.SpeculationMultiplier = frac(specMult, 4)
		cfg.StragglerFraction = frac(stragF, 0.15)
		cfg.StragglerSlowdown = 1 + frac(slow, 8)
		cfg.Faults = FaultConfig{
			TaskFailureProb:         frac(failP, 0.12),
			ShuffleFetchFailureProb: frac(fetchP, 0.12),
			RetryBackoff:            0.05,
			Seed:                    fseed,
		}
		if err := cfg.Validate(); err != nil {
			t.Skipf("config rejected: %v", err)
		}
		app := scaleAppSized(slaves, cores, mapTasks)

		got, gotErr := Run(cfg, app)
		again, againErr := Run(cfg, app)
		if !reflect.DeepEqual(got, again) || !reflect.DeepEqual(gotErr, againErr) {
			t.Fatalf("two runs of one input diverge:\n first %+v (%v)\nsecond %+v (%v)", got, gotErr, again, againErr)
		}
		if gotErr != nil {
			var tf *TaskFailedError
			var nh *NoHealthyNodesError
			if !errors.As(gotErr, &tf) && !errors.As(gotErr, &nh) {
				t.Fatalf("untyped failure: %v", gotErr)
			}
			return
		}
		// The 1 µs slack absorbs float rounding in the per-node sums.
		if limit := float64(slaves*cores) * got.Total.Seconds(); got.CoreSeconds > limit+1e-6 {
			t.Errorf("CoreSeconds %.9f exceeds Slaves·Cores·Total = %.9f", got.CoreSeconds, limit)
		}
		for _, st := range got.Stages {
			limit := time.Duration(slaves) * (st.End - st.Start)
			if st.HDFSBusy > limit || st.LocalBusy > limit {
				t.Errorf("stage %s: HDFSBusy %v, LocalBusy %v exceed Slaves·(End−Start) = %v",
					st.Name, st.HDFSBusy, st.LocalBusy, limit)
			}
		}
	})
}
