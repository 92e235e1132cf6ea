package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/experiments/sweep"
	"repro/internal/spark"
	"repro/internal/workloads"
)

// PointResult is the deterministic outcome of one point. Every field is
// a pure function of the study config and the point — no wall-clock
// values — which is what makes merged reports byte-identical across
// interrupted, resumed and sharded executions.
type PointResult struct {
	// TotalSeconds is the simulated application wall-clock time.
	TotalSeconds float64 `json:"total_seconds"`
	// CoreSeconds is the integral of busy cores over time (cloud cost
	// accounting).
	CoreSeconds float64 `json:"core_seconds"`
	// Tasks is the application's planned task count after data scaling.
	Tasks int `json:"tasks"`
	// Retries/Recomputes summarize fault recovery activity (zero on
	// fault-free points).
	Retries    int `json:"retries,omitempty"`
	Recomputes int `json:"recomputes,omitempty"`
	// SpilledTasks/SpillBytes/GCPauses/GCStallSeconds summarize memory
	// pressure on heap-limited points (all zero when the point's heap is
	// 0, so pre-memory checkpoints stay byte-identical).
	SpilledTasks   int     `json:"spilled_tasks,omitempty"`
	SpillBytes     int64   `json:"spill_bytes,omitempty"`
	GCPauses       int     `json:"gc_pauses,omitempty"`
	GCStallSeconds float64 `json:"gc_stall_seconds,omitempty"`
	// PredictedSeconds and ModelErrPct are ModeModel extras: the
	// analytical model's runtime for the point's platform and its
	// signed error vs the simulation.
	PredictedSeconds float64 `json:"predicted_seconds,omitempty"`
	ModelErrPct      float64 `json:"model_err_pct,omitempty"`
}

// ErrInterrupted reports a campaign that stopped before every point was
// checkpointed (cancellation, or point timeouts): the checkpoint is
// valid and `-resume` picks up where it left off.
var ErrInterrupted = errors.New("campaign interrupted before completion (resume with -resume)")

// RunOptions tunes one campaign execution.
type RunOptions struct {
	// CheckpointPath is the JSONL checkpoint file (required).
	CheckpointPath string
	// Resume loads the checkpoint and skips its completed points. When
	// false, an existing checkpoint is an error, never overwritten.
	Resume bool
	// Shards/Shard partition the point list for multi-process fan-out:
	// this process runs points with Index ≡ Shard (mod Shards). Zero
	// values mean the whole study (1 shard).
	Shards, Shard int
	// Parallel overrides the config's worker-pool size when positive.
	Parallel int
	// PointTimeout overrides the config's per-point deadline when
	// positive.
	PointTimeout time.Duration
	// Progress receives obs counter updates when non-nil.
	Progress *Progress
	// Log receives one line per completed point when non-nil.
	Log io.Writer

	// calibrate replaces the model mode's calibration source
	// (experiments.SharedTestbedCalibration) when non-nil.
	calibrate calibrator
}

// Summary is the outcome of one Run invocation.
type Summary struct {
	Name       string
	ConfigHash string
	// Total is the number of points in this process's shard slice.
	Total int
	// Skipped points were already in the checkpoint and were not
	// re-executed.
	Skipped int
	// Executed points were evaluated (and checkpointed) by this run.
	Executed int
	// Failed counts points (skipped or executed) whose recorded outcome
	// is a deterministic error.
	Failed int
	// Unfinished counts points left for a future -resume: never started,
	// or stopped by cancellation/point timeout.
	Unfinished int
	Elapsed    time.Duration
}

// Run executes (or resumes) one shard of a study. Completed points are
// appended to the checkpoint as they finish; the returned error is
// ErrInterrupted when any point remains for a future resume, and nil
// only when the shard's every point is durably checkpointed.
func Run(ctx context.Context, cfg Config, opts RunOptions) (Summary, error) {
	start := time.Now()
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Summary{}, err
	}
	if opts.CheckpointPath == "" {
		return Summary{}, fmt.Errorf("campaign: no checkpoint path")
	}
	shards, shard := opts.Shards, opts.Shard
	if shards <= 0 {
		shards = 1
	}
	if shard < 0 || shard >= shards {
		return Summary{}, fmt.Errorf("campaign: shard %d outside [0,%d)", shard, shards)
	}
	hash := cfg.Hash()
	points := Shard(cfg.Points(), shards, shard)
	sum := Summary{Name: cfg.Name, ConfigHash: hash, Total: len(points)}

	completed := map[string]Record{}
	var app *Appender
	header := Header{
		Kind: checkpointKind, Version: checkpointVersion,
		Campaign: cfg.Name, ConfigHash: hash, Shards: shards, Shard: shard,
	}
	if _, err := os.Stat(opts.CheckpointPath); err == nil {
		if !opts.Resume {
			return sum, fmt.Errorf("campaign: checkpoint %s already exists (resume with -resume, or remove it to start over)", opts.CheckpointPath)
		}
		cp, err := ReadCheckpoint(opts.CheckpointPath)
		if err != nil {
			return sum, err
		}
		if completed, err = cp.Completed(hash); err != nil {
			return sum, err
		}
		if cp.Header.Shards != shards || cp.Header.Shard != shard {
			return sum, fmt.Errorf("campaign: checkpoint %s was written as shard %d of %d, this run is shard %d of %d; refusing to resume",
				opts.CheckpointPath, cp.Header.Shard, cp.Header.Shards, shard, shards)
		}
		if app, err = OpenCheckpoint(opts.CheckpointPath, cp.ValidLen); err != nil {
			return sum, err
		}
	} else {
		var err error
		if app, err = CreateCheckpoint(opts.CheckpointPath, header); err != nil {
			return sum, err
		}
	}
	defer app.Close()

	// Partition this shard's points into already-done and still-to-run.
	var todo []Point
	for _, p := range points {
		if rec, ok := completed[cfg.PointHash(p)]; ok {
			sum.Skipped++
			if rec.Error != "" {
				sum.Failed++
			}
			continue
		}
		todo = append(todo, p)
	}
	opts.Progress.studyLoaded(len(points), sum.Skipped)

	parallel := opts.Parallel
	if parallel <= 0 {
		parallel = cfg.Parallel
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	timeout := opts.PointTimeout
	if timeout <= 0 {
		timeout = time.Duration(cfg.PointTimeout)
	}

	// Model mode calibrates ahead of the point loop: while the workers
	// simulate, one goroutine calibrates each workload still to run, so
	// a workload's first point finds its calibration done or joins the
	// one in flight instead of paying the four sample runs itself.
	calibrate := opts.calibrate
	if calibrate == nil {
		calibrate = experiments.SharedTestbedCalibration
	}
	if cfg.Mode == ModeModel {
		wctx, stop := context.WithCancel(ctx)
		warmed := make(chan struct{})
		go func() {
			defer close(warmed)
			warmCalibrations(wctx, todo, calibrate)
		}()
		defer func() {
			stop()
			<-warmed
		}()
	}

	runners := make(runnerPool, parallel)
	eval := func(pctx context.Context, p Point) (PointResult, error) {
		opts.Progress.pointStarted()
		defer opts.Progress.pointFinished()
		return runners.evaluate(pctx, cfg, p, calibrate)
	}
	sink := func(_ int, o sweep.Outcome[Point, PointResult]) error {
		if o.Err != nil && isEnvironmental(o.Err) {
			// Not an outcome of the point — leave it for a resume.
			opts.Progress.pointUnfinished()
			if opts.Log != nil {
				fmt.Fprintf(opts.Log, "# point %s deferred: %v\n", o.Point.Name(), o.Err)
			}
			return nil
		}
		rec := Record{
			Hash: cfg.PointHash(o.Point), Index: o.Point.Index, Name: o.Point.Name(),
			ElapsedMS: o.Elapsed.Milliseconds(),
		}
		if o.Err != nil {
			rec.Error = o.Err.Error()
			sum.Failed++
		} else {
			rec.Result = o.Value
		}
		if err := app.Append(rec); err != nil {
			return fmt.Errorf("campaign: appending checkpoint: %w", err)
		}
		sum.Executed++
		opts.Progress.pointCompleted(rec.Error != "")
		if opts.Log != nil {
			status := fmt.Sprintf("total=%.1fmin", rec.Result.TotalSeconds/60)
			if rec.Error != "" {
				status = "FAILED: " + rec.Error
			}
			fmt.Fprintf(opts.Log, "# point %d/%d %s %s (%.0fms)\n",
				sum.Skipped+sum.Executed, len(points), rec.Name, status, float64(rec.ElapsedMS))
		}
		return nil
	}

	_, sinkErr := sweep.StreamMap(ctx, todo,
		sweep.StreamOptions{Parallel: parallel, PointTimeout: timeout}, eval, sink)
	sum.Elapsed = time.Since(start)
	if sinkErr != nil {
		return sum, sinkErr
	}
	// Whatever was neither satisfied from the checkpoint nor durably
	// appended this run — deferred points and points the cancelled feed
	// never started — is work for a future -resume.
	sum.Unfinished = len(points) - sum.Skipped - sum.Executed
	if sum.Unfinished > 0 {
		return sum, fmt.Errorf("%w: %d of %d points still pending in %s",
			ErrInterrupted, sum.Unfinished, len(points), opts.CheckpointPath)
	}
	return sum, nil
}

// isEnvironmental reports errors that say nothing about the point
// itself: cancellation and deadlines. These are never checkpointed.
func isEnvironmental(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// calibrator returns a workload's shared testbed calibration, as
// experiments.SharedTestbedCalibration does.
type calibrator func(ctx context.Context, workload string) (*core.Calibration, error)

// warmCalibrations calibrates each distinct workload of points, in order
// of first appearance, one after another, until ctx is done. It drops
// errors: a failed calibration is not cached, so the point that needs
// it joins it or calibrates again, and reports the failure itself.
func warmCalibrations(ctx context.Context, points []Point, calibrate calibrator) {
	seen := map[string]bool{}
	for _, p := range points {
		if seen[p.Workload] {
			continue
		}
		seen[p.Workload] = true
		if ctx.Err() != nil {
			return
		}
		_, _ = calibrate(ctx, p.Workload)
	}
}

// runnerPool keeps one simulator per campaign worker for the duration
// of a Run: consecutive points share a cluster shape, so a Runner
// reuses the previous point's storage. Its capacity is the worker
// count, one Runner each; a timed-out point that returns its Runner to
// a full pool drops it.
type runnerPool chan *spark.Runner

// evaluate runs EvaluatePoint on a pooled Runner, calibrating through
// calibrate. It takes the Runner
// and gives it back without blocking, so a point that outlives its
// timeout keeps running with its Runner, and no other point gets that
// Runner until the point returns.
func (rp runnerPool) evaluate(ctx context.Context, cfg Config, p Point, calibrate calibrator) (PointResult, error) {
	var rn *spark.Runner
	select {
	case rn = <-rp:
	default:
		rn = new(spark.Runner)
	}
	res, err := evaluatePoint(ctx, cfg, p, rn, calibrate)
	select {
	case rp <- rn:
	default:
	}
	return res, err
}

// EvaluatePoint runs one point: build the workload on the point's
// cluster shape, apply the data-scale factor, simulate, and (in
// ModeModel) predict with the workload's calibrated model. The result
// is a deterministic function of (cfg, p).
func EvaluatePoint(ctx context.Context, cfg Config, p Point) (PointResult, error) {
	return evaluatePoint(ctx, cfg, p, new(spark.Runner), experiments.SharedTestbedCalibration)
}

// evaluatePoint is EvaluatePoint simulating on rn, which the caller
// owns for the duration of the call, and calibrating through calibrate.
func evaluatePoint(ctx context.Context, cfg Config, p Point, rn *spark.Runner, calibrate calibrator) (PointResult, error) {
	w, err := workloads.Get(p.Workload)
	if err != nil {
		return PointResult{}, err
	}
	hdfsDev, err := cloud.ParseDevice(p.Device)
	if err != nil {
		return PointResult{}, err
	}
	localDev, err := cloud.ParseDevice(p.Device)
	if err != nil {
		return PointResult{}, err
	}
	ccfg := spark.DefaultTestbed(p.Nodes, p.Cores, hdfsDev, localDev)
	ccfg.Seed = p.Seed
	ccfg.Memory = spark.MemoryConfig{HeapGB: p.HeapGB}
	ccfg.Faults = spark.FaultConfig{
		ShuffleFetchFailureProb: p.FetchFailProb,
		MaxTaskFailures:         cfg.Base.MaxTaskFailures,
		Seed:                    p.Seed,
	}
	if err := ccfg.Validate(); err != nil {
		return PointResult{}, err
	}
	sapp := scaleApp(w.Build(ccfg), p.DataScale)
	res, err := rn.Run(ccfg, sapp)
	if err != nil {
		return PointResult{}, err
	}
	out := PointResult{
		TotalSeconds:   res.Total.Seconds(),
		CoreSeconds:    res.CoreSeconds,
		Tasks:          appTasks(sapp),
		Retries:        res.Faults.Retries,
		Recomputes:     res.Faults.Recomputes,
		SpilledTasks:   res.Mem.SpilledTasks,
		SpillBytes:     int64(res.Mem.SpillBytes),
		GCPauses:       res.Mem.GCPauses,
		GCStallSeconds: res.Mem.GCStall.Seconds(),
	}
	if cfg.Mode == ModeModel {
		cal, err := calibrate(ctx, p.Workload)
		if err != nil {
			return PointResult{}, err
		}
		model := scaleModel(cal.Model, p.DataScale)
		pred, err := model.Predict(core.PlatformFor(ccfg), core.ModeDoppio)
		if err != nil {
			return PointResult{}, err
		}
		out.PredictedSeconds = pred.Total.Seconds()
		out.ModelErrPct = core.ErrorRate(pred.Total, res.Total) * 100
	}
	return out, nil
}

// scaleCount applies the data-scale factor to one partition count.
func scaleCount(count int, scale float64) int {
	if scale == 1 {
		return count
	}
	n := int(math.Round(float64(count) * scale))
	if n < 1 {
		n = 1
	}
	return n
}

// scaleApp models a proportionally larger (or smaller) input by scaling
// every task group's partition count at fixed per-partition volume —
// how Spark inputs actually grow when block size and parallelism
// settings stay put. Cache-or-persist decisions remain those the
// workload made for its published input (they were fixed at Build
// time); the data-volume axis sweeps partition population, not RDD
// placement.
func scaleApp(a spark.App, scale float64) spark.App {
	if scale == 1 {
		return a
	}
	stages := make([]spark.Stage, len(a.Stages))
	for si, s := range a.Stages {
		groups := make([]spark.TaskGroup, len(s.Groups))
		for gi, g := range s.Groups {
			g.Count = scaleCount(g.Count, scale)
			groups[gi] = g
		}
		s.Groups = groups
		stages[si] = s
	}
	a.Stages = stages
	return a
}

// scaleModel is scaleApp's analytical twin: the calibrated model's
// group counts scale the same way, so ModeModel predictions stay
// comparable across the data-scale axis.
func scaleModel(m core.AppModel, scale float64) core.AppModel {
	if scale == 1 {
		return m
	}
	stages := make([]core.StageModel, len(m.Stages))
	for si, s := range m.Stages {
		groups := make([]core.GroupModel, len(s.Groups))
		for gi, g := range s.Groups {
			g.Count = scaleCount(g.Count, scale)
			groups[gi] = g
		}
		s.Groups = groups
		stages[si] = s
	}
	m.Stages = stages
	return m
}

// appTasks counts the app's planned tasks.
func appTasks(a spark.App) int {
	n := 0
	for _, s := range a.Stages {
		n += s.Tasks()
	}
	return n
}
