package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/spark"
	"repro/internal/workloads"
)

// traceCampaign is the traced run of the campaign workload. The
// operation is one `doppio campaign run` + `merge` of the study, timed
// from outside exactly as the untraced run does, traceCampaignOps
// times. Coverage is measured on each operation's own timeline: the
// share of its wall time between the first point's start and the last
// point's progress line (the run reports the first point's time), the
// median over operations. The rest is process start-up, study loading
// and the merge process. After the first operation the benchmark times
// campaign.EvaluatePoint per point in-process and, in its own pass, each
// point's workload build, simulator run and calibration, then the
// checkpoint appends and the merge; the layer breakdown subtracts those
// from the first operation's per-point times.
const traceCampaignOps = 5

func traceCampaign(o opts) (*result, error) {
	dir := filepath.Join(o.workdir, "campaign-trace")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	study, cfg, err := campaignStudy(o, dir)
	if err != nil {
		return nil, err
	}
	points := cfg.Points()
	rec := newRecorder()
	ls := newLayerStats()
	pass := newOwnPass(rec, ls)
	op := rec.beginOp(0)
	rec.finish(op)
	ctx := context.Background()
	var its []*iteration
	var opMS, ratios []float64
	failed := 0
	for round := 0; round < traceCampaignOps; round++ {
		it, err := runIteration(o, study, filepath.Join(dir, "op"), len(points))
		if err != nil {
			return nil, err
		}
		its = append(its, it)
		failed += len(it.failures)
		opMS = append(opMS, float64(it.elapsed)/float64(time.Millisecond))
		ratios = append(ratios, 100*it.inPoints.Seconds()/it.elapsed.Seconds())
		if round == 0 {
			if err := traceCampaignLayers(rec, ls, pass, op, cfg, it, dir); err != nil {
				return nil, err
			}
		}
	}
	first := its[0]

	// Tracing overhead: the point loop once more without per-point
	// spans, then with them (both with the calibrations cached).
	start := time.Now()
	for _, p := range points {
		if _, err := campaign.EvaluatePoint(ctx, cfg, p); err != nil {
			return nil, err
		}
	}
	untraced := time.Since(start)
	probe := newRecorder()
	pop := probe.beginOp(0)
	start = time.Now()
	for _, p := range points {
		probe.timeDerived("campaign.point", pop, func() { _, err = campaign.EvaluatePoint(ctx, cfg, p) })
		if err != nil {
			return nil, err
		}
	}
	traced := time.Since(start)

	spans := rec.snapshot()
	spans[op].end = spans[op].start + first.elapsed
	self := selfTimes(spans)
	pointMS := sortedCopy(ls.vals["campaign.point_ms"])
	fixed := pass.fixed()
	fixed["campaign.point_ms_p50"] = median(pointMS)
	fixed["campaign.point_ms_p90"] = nearestRank(pointMS, 0.9)
	fixed["trace.coverage_pct"] = median(ratios)
	fixed["trace.overhead_pct"] = 100 * (traced.Seconds()/untraced.Seconds() - 1)
	fmt.Printf("# traced campaign seed %d: %d points; operation %v ms, %v%% of it on points\n",
		o.seed, len(points), roundAll(opMS, 1), roundAll(ratios, 1))
	printCoverage("campaign", 100*first.inPoints.Seconds()/first.elapsed.Seconds(), layerSelf(spans, self, map[int]bool{0: true}), first.elapsed,
		"process start-up, study loading and expansion, the merge process")
	fmt.Printf("# coverage campaign: median %.1f%% over %d operations\n", fixed["trace.coverage_pct"], len(opMS))
	fmt.Printf("# tracing overhead: point loop %.3f s with per-point spans vs %.3f s without (%+.2f%%)\n",
		traced.Seconds(), untraced.Seconds(), fixed["trace.overhead_pct"])
	if pass.mismatch > 0 {
		fmt.Printf("# own pass: %d simulator totals differ from the points'\n", pass.mismatch)
	}
	return &result{Correct: failed == 0, Attempted: len(points) * traceCampaignOps, Failed: failed, Metrics: ls.metrics(fixed)}, nil
}

// traceCampaignLayers records the operation's points as spans under op,
// each as long as the operation spent on it (the time between its
// progress line and the one before; the first point's time as the run
// reports it), and times their inner layers in the benchmark's own
// pass: campaign.EvaluatePoint per point, then the workload build,
// simulator run, calibration and prediction under each point span, and
// the checkpoint appends and the merge.
func traceCampaignLayers(rec *recorder, ls *layerStats, pass *ownPass, op int, cfg campaign.Config, it *iteration, dir string) error {
	inOp := map[string]time.Duration{}
	for i, name := range it.names {
		d := time.Duration(it.pointMS[i] * float64(time.Millisecond))
		if i == 0 {
			d = it.inPoints - time.Duration(sumOf(it.pointMS[1:])*float64(time.Millisecond))
		}
		inOp[name] = d
	}
	for _, p := range cfg.Points() {
		start := time.Now()
		res, err := campaign.EvaluatePoint(context.Background(), cfg, p)
		if err != nil {
			return err
		}
		ls.addDur("campaign.point_ms", time.Since(start), time.Millisecond)
		sp := rec.derived("campaign.point", op, inOp[p.Name()])
		if _, err := pass.point(cfg, p, res, sp); err != nil {
			return err
		}
	}
	return traceCheckpoint(ls, cfg, it.ckpt, dir)
}

// traceCheckpoint times appending the operation's checkpoint records to
// a fresh checkpoint, and merging the operation's checkpoint. They are
// per-layer metrics only: the appends are inside the points' spans and
// the merge inside the merge process.
func traceCheckpoint(ls *layerStats, cfg campaign.Config, ckpt, dir string) error {
	cp, err := campaign.ReadCheckpoint(ckpt)
	if err != nil {
		return err
	}
	app, err := campaign.CreateCheckpoint(filepath.Join(dir, "appends.jsonl"), cp.Header)
	if err != nil {
		return err
	}
	for _, r := range cp.Records {
		start := time.Now()
		if err := app.Append(r); err != nil {
			app.Close()
			return err
		}
		ls.addDur("campaign.checkpoint_append_us", time.Since(start), time.Microsecond)
	}
	if err := app.Close(); err != nil {
		return err
	}
	start := time.Now()
	_, err = campaign.Merge(cfg, []string{ckpt})
	ls.addDur("campaign.merge_ms", time.Since(start), time.Millisecond)
	return err
}

// point times, on the inputs campaign.EvaluatePoint used, the layer
// calls it makes: the workload build, the simulator run, and the model
// prediction, preceded on a workload's first point by the calibration
// EvaluatePoint then makes (and caches). It returns the calibration's
// duration, 0 when there was none.
func (o *ownPass) point(cfg campaign.Config, p campaign.Point, res campaign.PointResult, parent int) (time.Duration, error) {
	hd, err := cloud.ParseDevice(p.Device)
	if err != nil {
		return 0, err
	}
	ld, err := cloud.ParseDevice(p.Device)
	if err != nil {
		return 0, err
	}
	ccfg := spark.DefaultTestbed(p.Nodes, p.Cores, hd, ld)
	ccfg.Seed = p.Seed
	ccfg.Memory = spark.MemoryConfig{HeapGB: p.HeapGB}
	ccfg.Faults = spark.FaultConfig{ShuffleFetchFailureProb: p.FetchFailProb, MaxTaskFailures: cfg.Base.MaxTaskFailures, Seed: p.Seed}
	total, err := o.simulate(p.Workload, ccfg, simClass(ccfg), parent)
	if err != nil {
		return 0, err
	}
	if total.Seconds() != res.TotalSeconds {
		o.mismatch++
	}
	if cfg.Mode != campaign.ModeModel {
		return 0, nil
	}
	key := "campaign/" + p.Workload
	cal := o.cals[key]
	var calD time.Duration
	if cal == nil {
		w, err := workloads.Get(p.Workload)
		if err != nil {
			return 0, err
		}
		ssd, hdd := disk.NewSSD(), disk.NewHDD()
		base := spark.DefaultTestbed(10, 1, ssd, ssd)
		calD = o.rec.timeDerived("core.calibrate", parent, func() { cal, err = core.Calibrate(base, ssd, hdd, w.Build) })
		if err != nil {
			return 0, err
		}
		o.ls.addDur("core.calibrate_ms", calD, time.Millisecond)
		o.calCount++
		o.cals[key] = cal
	}
	pl := core.PlatformFor(ccfg)
	start := time.Now()
	if _, err := core.Compile(cal.Model, core.EnvOf(pl), core.ModeDoppio); err != nil {
		return 0, err
	}
	o.ls.addDur("core.compile_us", time.Since(start), time.Microsecond)
	d := o.rec.timeDerived("core.predict", parent, func() { _, err = cal.Model.Predict(pl, core.ModeDoppio) })
	o.ls.addDur("core.predict_us", d, time.Microsecond)
	return calD, err
}
