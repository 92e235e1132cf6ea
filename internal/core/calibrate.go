package core

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/spark"
	"repro/internal/units"
)

// Calibration is the output of the paper's four-sample-run procedure
// (Section VI-1): a fitted AppModel plus the raw runs and any sanity
// warnings. The procedure is black-box: it only reads measured stage
// results (task/op timings, iostat-style request sizes), never the
// workload definition.
type Calibration struct {
	Model AppModel
	// Run1 (P=1, SSD/SSD), Run2 (P=2, SSD/SSD), Run3 (P=16, HDD local),
	// Run4 (P=16, HDD HDFS) are the sample runs.
	Run1, Run2, Run3, Run4 *spark.Result
	// Warnings collects sanity-check failures (e.g. "I/O already the
	// bottleneck at P=1"), the situations where the paper re-samples
	// with a resized disk.
	Warnings []string
}

// Calibrate performs the four sample runs on a small cluster and fits
// the model.
//
// base supplies the cluster shape (Slaves, memory, overheads); its disks
// and core count are overridden per run: SSDs everywhere at P=1 and P=2
// to measure t_avg, per-op per-core throughput T and δ_scale without I/O
// bottlenecks; then P=16 with an HDD as Spark Local (run 3) and as HDFS
// (run 4) to expose the I/O-limit terms and fit δ_read/δ_write.
//
// build constructs the application for a given cluster configuration
// (the caching plan may depend on cluster memory).
func Calibrate(base spark.ClusterConfig, ssd, hdd disk.Device, build func(spark.ClusterConfig) spark.App) (*Calibration, error) {
	cal := &Calibration{}

	runner := spark.Borrow(base.Slaves)
	defer spark.Park(runner)
	runCfg := func(hdfs, local disk.Device, p int) (*spark.Result, spark.ClusterConfig, error) {
		cfg := base.WithDisks(hdfs, local).WithCores(p)
		res, err := runner.Run(cfg, build(cfg))
		return res, cfg, err
	}

	var err error
	var cfg1, cfg3, cfg4 spark.ClusterConfig
	if cal.Run1, cfg1, err = runCfg(ssd, ssd, 1); err != nil {
		return nil, fmt.Errorf("core: sample run 1: %w", err)
	}
	if cal.Run2, _, err = runCfg(ssd, ssd, 2); err != nil {
		return nil, fmt.Errorf("core: sample run 2: %w", err)
	}
	if cal.Run3, cfg3, err = runCfg(ssd, hdd, 16); err != nil {
		return nil, fmt.Errorf("core: sample run 3: %w", err)
	}
	if cal.Run4, cfg4, err = runCfg(hdd, ssd, 16); err != nil {
		return nil, fmt.Errorf("core: sample run 4: %w", err)
	}

	if len(cal.Run2.Stages) != len(cal.Run1.Stages) ||
		len(cal.Run3.Stages) != len(cal.Run1.Stages) ||
		len(cal.Run4.Stages) != len(cal.Run1.Stages) {
		return nil, fmt.Errorf("core: sample runs disagree on stage structure")
	}

	pl1, pl3, pl4 := samplePlatforms(cfg1, cfg3, cfg4)

	model := AppModel{Name: cal.Run1.App}
	for si, s1 := range cal.Run1.Stages {
		sm := fitStageShape(s1)

		// Sanity check (paper: "t_stage > D/(N*BW)"): at P=1 on SSDs I/O
		// must not be the bottleneck, otherwise t_avg absorbs device
		// queueing and the fit degrades. The paper re-samples with a
		// doubled SSD; with fixed physical devices we warn.
		chk := sm.Predict(pl1, ModeDoppio)
		if lim := maxDur(chk.TReadLimit, chk.TWriteLimit); lim > 0 && s1.Duration() < lim {
			cal.Warnings = append(cal.Warnings,
				fmt.Sprintf("stage %s: I/O near saturation already at P=1 (measured %v < limit %v)",
					s1.Name, s1.Duration(), lim))
		}

		// δ_scale from runs 1 and 2: residual of the measured stage time
		// over the modelled parallel work, averaged. sm has no δ yet, so
		// its t_scale is exactly that work.
		pl2 := pl1
		pl2.P = 2
		w1 := chk.TScale
		w2 := sm.Predict(pl2, ModeDoppio).TScale
		r1 := s1.Duration() - w1
		r2 := cal.Run2.Stages[si].Duration() - w2
		sm.DeltaScale = (r1 + r2) / 2
		if sm.DeltaScale < 0 {
			sm.DeltaScale = 0
		}

		// Runs 3 and 4: with an HDD in the local (then HDFS) slot, fit the
		// δ of whichever I/O direction binds. The effective bandwidths
		// come from the device lookup tables at the request sizes the run
		// actually exhibited — the paper's iostat step.
		fitDelta(&sm, cal.Run3.Stages[si], pl3)
		fitDelta(&sm, cal.Run4.Stages[si], pl4)

		model.Stages = append(model.Stages, sm)
	}
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("core: calibration produced invalid model: %w", err)
	}
	cal.Model = model
	return cal, nil
}

// samplePlatforms returns PlatformFor of sample runs 1, 3 and 4. The
// runs place one SSD and one HDD in different slots (run 1 the SSD in
// both, run 3 the HDD as Local, run 4 the HDD as HDFS), so each device's
// read and write curves are profiled once and shared: a *disk.Curve is
// immutable.
func samplePlatforms(cfg1, cfg3, cfg4 spark.ClusterConfig) (pl1, pl3, pl4 Platform) {
	ssdRead, ssdWrite := disk.ProfileRead(cfg1.HDFSDisk, nil), disk.ProfileWrite(cfg1.HDFSDisk, nil)
	hddRead, hddWrite := disk.ProfileRead(cfg3.LocalDisk, nil), disk.ProfileWrite(cfg3.LocalDisk, nil)
	pl1 = platformWith(cfg1, Curves{HDFSRead: ssdRead, HDFSWrite: ssdWrite, LocalRead: ssdRead, LocalWrite: ssdWrite})
	pl3 = platformWith(cfg3, Curves{HDFSRead: ssdRead, HDFSWrite: ssdWrite, LocalRead: hddRead, LocalWrite: hddWrite})
	pl4 = platformWith(cfg4, Curves{HDFSRead: hddRead, HDFSWrite: hddWrite, LocalRead: ssdRead, LocalWrite: ssdWrite})
	return pl1, pl3, pl4
}

// fitStageShape reconstructs the stage's group/op structure and the
// uncontended per-op parameters from the P=1 SSD run.
func fitStageShape(s spark.StageResult) StageModel {
	sm := StageModel{Name: s.Name}
	for _, g := range s.Groups {
		gm := GroupModel{Name: g.Name, Count: g.Count}
		var ioTime time.Duration
		for _, opst := range g.OpTimes {
			if opst.Count == 0 || opst.Kind == spark.OpCompute {
				continue
			}
			avgT := opst.AvgTime()
			perTask := opst.Bytes / units.ByteSize(opst.Count)
			ioTime += avgT
			om := OpModel{Kind: opst.Kind, BytesPerTask: perTask}
			// iostat: request size observed for this op kind at stage
			// level.
			om.ReqSize = s.IO[opst.Kind].AvgReqSize()
			// T: measured per-core media throughput. Spark's metrics
			// decompose op time into blocked (I/O) and processing
			// (coupled compute) time; the media rate comes from the
			// blocked part. HDFS writes move replication-amplified
			// volume through the device, which the stage-level IOStat
			// reflects; recover the device-level rate.
			vol := perTask
			if opst.Kind == spark.OpHDFSWrite && opst.Bytes > 0 {
				ampl := float64(s.IO[opst.Kind].Bytes) / float64(opst.Bytes)
				vol = units.ByteSize(float64(perTask) * ampl)
			}
			coupled := opst.AvgCoupled()
			if blocked := avgT - coupled; blocked > 0 {
				om.T = units.Over(vol, blocked)
			}
			if coupled > 0 {
				om.CoupledRate = units.Over(vol, coupled)
			}
			gm.Ops = append(gm.Ops, om)
		}
		gm.ComputePerTask = g.AvgTaskTime() - ioTime
		if gm.ComputePerTask < 0 {
			gm.ComputePerTask = 0
		}
		sm.Groups = append(sm.Groups, gm)
	}
	return sm
}

// fitDelta fits δ_read or δ_write from an I/O-bound sample run: when the
// measured stage time exceeds the δ-free I/O limit prediction, the
// binding direction's δ is the residual. Fits from different probe runs
// keep the larger value (a constant must explain both).
func fitDelta(sm *StageModel, meas spark.StageResult, pl Platform) {
	bare := *sm
	bare.DeltaRead, bare.DeltaWrite = 0, 0
	pred := bare.Predict(pl, ModeDoppio)
	measT := meas.Duration()
	// Only fit when the stage is genuinely I/O-bound on this platform;
	// otherwise the residual belongs to δ_scale, already fitted.
	if pred.Bottleneck == "scale" || measT <= pred.TScale {
		return
	}
	rawLimit := maxDur(pred.TDeviceLimit, maxDur(pred.TReadLimit, pred.TWriteLimit))
	d := measT - rawLimit
	if d <= 0 || d >= measT/2 {
		return
	}
	if pred.TReadLimit >= pred.TWriteLimit {
		if d > sm.DeltaRead {
			sm.DeltaRead = d
		}
	} else {
		if d > sm.DeltaWrite {
			sm.DeltaWrite = d
		}
	}
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
