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
// and cluster shapes — through Run twice, and once more on a Runner
// that has just run a different seed input on the same slave count,
// and checks that
//
//   - all three runs are deeply equal, Result or typed error: the
//     pooled attempts, slabs and queues carry no state between runs,
//     whether the runner is fresh or reused;
//   - a fatal error is a *TaskFailedError or a *NoHealthyNodesError;
//   - CoreSeconds ≤ Slaves·Cores·Total: no more core time than the
//     cluster had;
//   - every stage's HDFSBusy and LocalBusy ≤ Slaves·(End−Start): no
//     device is busier than the stage's wall time.
//
// The seed corpus is degradedSeeds.
func FuzzDegradedRun(f *testing.F) {
	for _, in := range degradedSeeds {
		f.Add(in.slaves, in.cores, in.mapTasks, in.failP, in.fetchP, in.stragF, in.slow, in.jitter,
			in.spec, in.specMult, in.seed, in.fseed)
	}
	f.Fuzz(func(t *testing.T, slaves, cores, mapTasks int,
		failP, fetchP, stragF, slow, jitter float64,
		spec bool, specMult float64, seed, fseed uint64) {
		in := degradedInput{slaves, cores, mapTasks, failP, fetchP, stragF, slow, jitter, spec, specMult, seed, fseed}
		cfg, app := in.build()
		if err := cfg.Validate(); err != nil {
			t.Skipf("config rejected: %v", err)
		}

		got, gotErr := Run(cfg, app)
		again, againErr := Run(cfg, app)
		if !reflect.DeepEqual(got, again) || !reflect.DeepEqual(gotErr, againErr) {
			t.Fatalf("two runs of one input diverge:\n first %+v (%v)\nsecond %+v (%v)", got, gotErr, again, againErr)
		}
		// A different seed input first, on this input's slave count so
		// the Runner reuses its storage; the memory layer is on for it,
		// so attempts pooled with its callbacks bound are reused too.
		prev := degradedSeeds[seed%uint64(len(degradedSeeds))]
		prev.slaves, prev.seed = slaves, seed+1
		prevCfg, prevApp := prev.build()
		prevCfg.Memory = MemoryConfig{HeapGB: 0.5, Expansion: 1}
		var rn Runner
		if _, err := rn.Run(prevCfg, prevApp); err != nil {
			var tf *TaskFailedError
			var nh *NoHealthyNodesError
			if !errors.As(err, &tf) && !errors.As(err, &nh) {
				t.Fatalf("untyped failure of the previous input %+v: %v", prev, err)
			}
		}
		kept := rn.r
		reused, reusedErr := rn.Run(cfg, app)
		if rn.r != kept {
			t.Fatal("the Runner rebuilt its storage for a run with the same slave count")
		}
		if !reflect.DeepEqual(got, reused) || !reflect.DeepEqual(gotErr, reusedErr) {
			t.Fatalf("a reused Runner diverges from a fresh run:\n fresh %+v (%v)\nreused %+v (%v)", got, gotErr, reused, reusedErr)
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
		if limit := float64(cfg.Slaves*cfg.ExecutorCores) * got.Total.Seconds(); got.CoreSeconds > limit+1e-6 {
			t.Errorf("CoreSeconds %.9f exceeds Slaves·Cores·Total = %.9f", got.CoreSeconds, limit)
		}
		for _, st := range got.Stages {
			limit := time.Duration(cfg.Slaves) * (st.End - st.Start)
			if st.HDFSBusy > limit || st.LocalBusy > limit {
				t.Errorf("stage %s: HDFSBusy %v, LocalBusy %v exceed Slaves·(End−Start) = %v",
					st.Name, st.HDFSBusy, st.LocalBusy, limit)
			}
		}
	})
}

// degradedInput is one FuzzDegradedRun input, before clamping.
type degradedInput struct {
	slaves, cores, mapTasks             int
	failP, fetchP, stragF, slow, jitter float64
	spec                                bool
	specMult                            float64
	seed, fseed                         uint64
}

// degradedSeeds cover the paper's degraded-measurement regimes:
// fig-13-style task-failure sweeps, fig-14-style fetch-failure /
// recompute runs, and fig-15-style straggler + speculation studies.
var degradedSeeds = []degradedInput{
	{8, 4, 128, 0.01, 0.0, 0.0, 0.0, 0.0, false, 0.0, 42, 7},   // fig-13: task failures
	{8, 4, 128, 0.005, 0.02, 0.0, 0.0, 0.0, false, 0.0, 42, 3}, // fig-14: fetch failures + recompute
	{8, 4, 128, 0.0, 0.0, 0.03, 5.0, 0.0, true, 1.5, 42, 0},    // fig-15: stragglers + speculation
	{6, 2, 120, 0.01, 0.01, 0.02, 4.0, 0.0, true, 2.0, 1, 11},  // everything on
	{4, 2, 30, 0.02, 0.0, 0.0, 0.0, 0.15, false, 0.0, 9, 5},    // jittered
	{3, 1, 33, 0.1, 0.05, 0.1, 6.0, 0.0, true, 1.2, 13, 17},    // indivisible counts, high rates
}

// build clamps the input into a valid-looking cluster and app; the
// caller still validates the config.
func (in degradedInput) build() (ClusterConfig, App) {
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
	slaves := mod(in.slaves, 1, 10)
	cores := mod(in.cores, 1, 4)
	mapTasks := mod(in.mapTasks, 1, 160)

	ssd := disk.NewSSD()
	cfg := DefaultTestbed(slaves, cores, ssd, ssd)
	cfg.Seed = in.seed
	cfg.ComputeJitter = frac(in.jitter, 0.3)
	cfg.Speculation = in.spec
	cfg.SpeculationMultiplier = frac(in.specMult, 4)
	cfg.StragglerFraction = frac(in.stragF, 0.15)
	cfg.StragglerSlowdown = 1 + frac(in.slow, 8)
	cfg.Faults = FaultConfig{
		TaskFailureProb:         frac(in.failP, 0.12),
		ShuffleFetchFailureProb: frac(in.fetchP, 0.12),
		RetryBackoff:            0.05,
		Seed:                    in.fseed,
	}
	return cfg, scaleAppSized(slaves, cores, mapTasks)
}
