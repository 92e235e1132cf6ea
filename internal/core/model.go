// Package core implements the Doppio I/O-aware analytical performance
// model for in-memory cluster computing frameworks (paper Section IV).
//
// For every stage i the model computes
//
//	t_stage = max(t_scale, t_read_limit, t_write_limit) + t_mem_limit
//	t_scale       = M/(N·P) · t_avg          + δ_scale
//	t_read_limit  = D_read /(N · BW_read)    + δ_read
//	t_write_limit = D_write/(N · BW_write)   + δ_write
//	t_app = Σ t_stage
//
// t_mem_limit is this reproduction's extension for memory-constrained
// clusters: executor-heap spill served by the Local device plus
// occupancy-driven GC stalls (see memory.go and docs/MEMORY.md). It is
// zero — and the model byte-identical to the paper's Eq. 1 — unless
// Platform.Memory is set.
//
// with the two I/O-aware ingredients prior models missed: BW is the
// device's *effective* bandwidth at the stage's observed request size
// (a per-device lookup table, internal/disk.Curve), and t_avg is
// decomposed into CPU time plus per-operation I/O time at
// min(T, BW(reqSize)) so the model tracks how a task slows down when the
// device, not the per-core throughput T, becomes the limit.
//
// Model parameters are either constructed directly from a workload
// description or — faithfully to the paper's Section VI-1 — extracted
// from four profiling sample runs via Calibrate.
package core

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/spark"
	"repro/internal/units"
)

// Curves bundles the four effective-bandwidth lookup tables the model
// consumes: one per (device, direction) path. They come from the
// one-time fio profiling of each device (disk.ProfileRead/ProfileWrite).
type Curves struct {
	HDFSRead   *disk.Curve
	HDFSWrite  *disk.Curve
	LocalRead  *disk.Curve
	LocalWrite *disk.Curve
}

// CurvesFor profiles both devices of a cluster configuration. This is
// the "one-time disk profiling per data center" of Section VI-1.
func CurvesFor(hdfs, local disk.Device) Curves {
	return Curves{
		HDFSRead:   disk.ProfileRead(hdfs, nil),
		HDFSWrite:  disk.ProfileWrite(hdfs, nil),
		LocalRead:  disk.ProfileRead(local, nil),
		LocalWrite: disk.ProfileWrite(local, nil),
	}
}

// forOp returns the curve serving the given op kind.
func (c Curves) forOp(kind spark.OpKind) *disk.Curve {
	switch kind {
	case spark.OpHDFSRead:
		return c.HDFSRead
	case spark.OpHDFSWrite:
		return c.HDFSWrite
	case spark.OpShuffleRead, spark.OpPersistRead, spark.OpSpillRead:
		return c.LocalRead
	case spark.OpShuffleWrite, spark.OpPersistWrite, spark.OpSpillWrite:
		return c.LocalWrite
	default:
		return nil
	}
}

// Platform is the hardware/configuration point a prediction is made for.
type Platform struct {
	// N is the number of slave nodes.
	N int
	// P is the number of executor cores per node.
	P int
	// Curves are the effective-bandwidth tables of the platform's disks.
	Curves Curves
	// Replication is dfs.replication; HDFS writes are amplified by it.
	Replication int
	// BlockSize is dfs.blocksize, the default request size of HDFS ops.
	BlockSize units.ByteSize
	// Memory enables the t_mem_limit term (executor-heap spill and GC
	// stalls, see memory.go). The zero value disables it, leaving every
	// prediction byte-identical to the memory-free model.
	Memory MemParams
}

// Validate checks the platform: the cluster shape plus the environment
// (Env.Validate).
func (p Platform) Validate() error {
	if err := checkShape(p.N, p.P); err != nil {
		return err
	}
	return EnvOf(p).Validate()
}

// PlatformFor builds a Platform matching a simulator cluster config,
// profiling its devices.
func PlatformFor(cfg spark.ClusterConfig) Platform {
	return platformWith(cfg, CurvesFor(cfg.HDFSDisk, cfg.LocalDisk))
}

// platformWith is PlatformFor with the curves of cfg's disks already
// profiled.
func platformWith(cfg spark.ClusterConfig, c Curves) Platform {
	return Platform{
		N:           cfg.Slaves,
		P:           cfg.ExecutorCores,
		Curves:      c,
		Replication: cfg.HDFSReplication,
		BlockSize:   cfg.HDFSBlockSize,
		Memory:      MemParamsFor(cfg),
	}
}

// OpModel describes one I/O operation of a task for the model.
type OpModel struct {
	Kind spark.OpKind
	// BytesPerTask is the per-task volume.
	BytesPerTask units.ByteSize
	// ReqSize is the device request size (selects the bandwidth operating
	// point). Zero uses the HDFS block size for HDFS ops and the full
	// per-task volume otherwise.
	ReqSize units.ByteSize
	// T is the per-core throughput when the device is not a limit (the
	// paper's T, including client-side costs such as decompression).
	// Zero means device-limited only.
	T units.Rate
	// CoupledRate is the per-core rate of CPU work interleaved with the
	// op's I/O (bytes of data processed per second of pure computation).
	// The op's uncontended time is bytes·(1/min(T,BW) + 1/CoupledRate);
	// the device is free during the compute slices. Zero means none.
	// In real Spark this decomposition is observable as task time minus
	// blocked time.
	CoupledRate units.Rate
}

// GroupModel is a homogeneous set of tasks within a stage.
type GroupModel struct {
	Name string
	// Count is the group's task count (contributes to the stage's M).
	Count int
	// ComputePerTask is the pure-CPU portion of one task.
	ComputePerTask time.Duration
	// Ops are the task's I/O operations.
	Ops []OpModel
}

// StageModel carries everything needed to evaluate Eq. 1 for one stage.
type StageModel struct {
	Name   string
	Groups []GroupModel
	// DeltaScale, DeltaRead and DeltaWrite are the constant terms of
	// Eq. 1, absorbing serial/linear parts of the stage.
	DeltaScale time.Duration
	DeltaRead  time.Duration
	DeltaWrite time.Duration
}

// M returns the stage's task count.
func (s StageModel) M() int {
	n := 0
	for _, g := range s.Groups {
		n += g.Count
	}
	return n
}

// AppModel is the model of a whole application: Σ over stages.
type AppModel struct {
	Name   string
	Stages []StageModel
}

// Validate checks structural consistency.
func (a AppModel) Validate() error {
	if len(a.Stages) == 0 {
		return fmt.Errorf("core: app model %q has no stages", a.Name)
	}
	for _, s := range a.Stages {
		if len(s.Groups) == 0 {
			return fmt.Errorf("core: stage %q has no groups", s.Name)
		}
		for _, g := range s.Groups {
			if g.Count <= 0 {
				return fmt.Errorf("core: stage %q group %q has non-positive count", s.Name, g.Name)
			}
			for _, op := range g.Ops {
				if op.BytesPerTask < 0 || op.ReqSize < 0 {
					return fmt.Errorf("core: stage %q group %q: negative op sizes", s.Name, g.Name)
				}
				if op.Kind == spark.OpCompute {
					return fmt.Errorf("core: stage %q group %q: compute must use ComputePerTask", s.Name, g.Name)
				}
			}
		}
	}
	return nil
}

// Stage returns the named stage model, or false.
func (a AppModel) Stage(name string) (StageModel, bool) {
	for _, s := range a.Stages {
		if s.Name == name {
			return s, true
		}
	}
	return StageModel{}, false
}
