// Package spark is a flow-level discrete-event simulator of a Spark
// cluster: slave nodes with executor cores, an HDFS disk and a Spark
// Local disk each, a 10 Gb/s NIC, a stage/task scheduler with FIFO core
// assignment, shuffle write/read with the M×R small-block access pattern,
// RDD persist to local storage, and an optional GC model.
//
// It plays the role of the physical testbed in the paper: every
// "measured"/"exp" series in the reproduced figures comes from this
// simulator, while the "model" series comes from the analytical model in
// internal/core calibrated against profiling runs of this simulator —
// the same relationship the paper has between its cluster and its model.
package spark

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/units"
)

// ClusterConfig describes the simulated cluster, mirroring the paper's
// Tables I–III.
type ClusterConfig struct {
	// Slaves is N, the number of worker nodes (the master is not
	// simulated; it only runs the driver).
	Slaves int
	// ExecutorCores is P, the number of launched executor cores per node.
	ExecutorCores int
	// ExecutorMemory is SPARK_WORKER_MEMORY per node (90 GB on the
	// paper's testbed).
	ExecutorMemory units.ByteSize
	// StorageFraction is the share of executor memory usable for cached
	// RDDs (the paper assumes 40%).
	StorageFraction float64
	// HDFSDisk backs the HDFS data directory on every node.
	HDFSDisk disk.Device
	// LocalDisk backs spark.local.dir on every node.
	LocalDisk disk.Device
	// NICRate is the per-node network bandwidth (10 Gb/s on the testbed).
	NICRate units.Rate
	// HDFSBlockSize is dfs.blocksize (128 MB).
	HDFSBlockSize units.ByteSize
	// HDFSReplication is dfs.replication (2).
	HDFSReplication int
	// ModelNetwork enables the NIC flows for shuffle reads and HDFS
	// replication. The paper argues the 10 Gb/s network is never the
	// bottleneck; keeping the flows in the simulation lets us check that
	// claim rather than assume it.
	ModelNetwork bool
	// TaskLaunchOverhead is the scheduler+JVM overhead added to every
	// task. It is what the model's δ terms absorb.
	TaskLaunchOverhead DurationParam
	// StageSetupOverhead is the per-stage serial time (driver planning,
	// broadcast), also absorbed by δ_scale.
	StageSetupOverhead DurationParam
	// ComputeJitter is the relative spread of per-task compute times
	// (±ComputeJitter, deterministic per task index and Seed). Real task
	// durations vary — data skew, JIT, GC — which desynchronises task
	// waves so I/O and computation of different tasks overlap, the
	// pipeline behaviour the paper's Fig. 6 describes. Zero disables.
	ComputeJitter float64
	// Seed varies the jitter pattern; different seeds play the role of
	// the paper's five repeated measurement runs.
	Seed uint64
	// StragglerFraction injects slow tasks: this fraction of tasks run
	// their compute StragglerSlowdown times slower (deterministic per
	// seed). Real clusters always have a straggler tail — it is one of
	// the three factors (network, disk, stragglers) Ousterhout et al.
	// [5] decompose. Zero disables.
	StragglerFraction float64
	// StragglerSlowdown is the compute multiplier for straggler tasks
	// (default 3 when stragglers are enabled).
	StragglerSlowdown float64
	// Speculation enables Spark-style speculative execution: when a
	// task runs longer than SpeculationMultiplier times the median
	// completed task time of its stage, a copy launches on another node
	// and the first finisher wins.
	Speculation bool
	// SpeculationMultiplier is spark.speculation.multiplier (default
	// 1.5).
	SpeculationMultiplier float64
	// Faults injects deterministic task failures, node crashes and
	// shuffle-fetch failures with Spark-faithful recovery (see
	// FaultConfig). The zero value disables the fault layer entirely.
	Faults FaultConfig
	// Memory enables per-node executor-heap accounting: working-set
	// reservation per task, spill to the Local device when a wave's
	// resident set exceeds the heap, and occupancy-driven GC stalls
	// (see MemoryConfig). The zero value disables the memory layer
	// entirely.
	Memory MemoryConfig
}

// DurationParam is a plain duration in seconds used in configs so zero
// values read naturally in literals.
type DurationParam float64

// Seconds returns the parameter value in seconds.
func (d DurationParam) Seconds() float64 { return float64(d) }

// DefaultTestbed returns the paper's physical cluster defaults
// (Tables I and II) with the given slave count, core count and disks.
func DefaultTestbed(slaves, cores int, hdfs, local disk.Device) ClusterConfig {
	return ClusterConfig{
		Slaves:             slaves,
		ExecutorCores:      cores,
		ExecutorMemory:     90 * units.GB,
		StorageFraction:    0.4,
		HDFSDisk:           hdfs,
		LocalDisk:          local,
		NICRate:            units.MBps(10 * 1000 / 8), // 10 Gb/s ≈ 1220 MiB/s
		HDFSBlockSize:      128 * units.MB,
		HDFSReplication:    2,
		ModelNetwork:       true,
		TaskLaunchOverhead: 0.05,
		StageSetupOverhead: 2.0,
		ComputeJitter:      0.15,
	}
}

// Validate checks the configuration for inconsistencies.
func (c ClusterConfig) Validate() error {
	switch {
	case c.Slaves <= 0:
		return fmt.Errorf("spark: Slaves must be positive, got %d", c.Slaves)
	case c.ExecutorCores <= 0:
		return fmt.Errorf("spark: ExecutorCores must be positive, got %d", c.ExecutorCores)
	case c.ExecutorMemory < 0:
		return fmt.Errorf("spark: negative ExecutorMemory")
	case c.StorageFraction < 0 || c.StorageFraction > 1:
		return fmt.Errorf("spark: StorageFraction %v outside [0,1]", c.StorageFraction)
	case c.HDFSDisk == nil:
		return fmt.Errorf("spark: HDFSDisk is nil")
	case c.LocalDisk == nil:
		return fmt.Errorf("spark: LocalDisk is nil")
	case c.HDFSBlockSize <= 0:
		return fmt.Errorf("spark: HDFSBlockSize must be positive")
	case c.HDFSReplication <= 0:
		return fmt.Errorf("spark: HDFSReplication must be positive")
	case c.ModelNetwork && c.NICRate <= 0:
		return fmt.Errorf("spark: ModelNetwork requires positive NICRate")
	case c.ComputeJitter < 0 || c.ComputeJitter >= 1:
		return fmt.Errorf("spark: ComputeJitter %v outside [0,1)", c.ComputeJitter)
	case c.StragglerFraction < 0 || c.StragglerFraction >= 1:
		return fmt.Errorf("spark: StragglerFraction %v outside [0,1)", c.StragglerFraction)
	case c.StragglerFraction > 0 && c.StragglerSlowdown < 1:
		return fmt.Errorf("spark: StragglerSlowdown %v must be >= 1", c.StragglerSlowdown)
	}
	// Device sanity: a device reporting non-positive bandwidth (e.g. a
	// zero-sized virtual disk) would later trip the DES invariant panic
	// inside internal/sim. Surface it here as an input error instead.
	for _, d := range []struct {
		name string
		dev  disk.Device
	}{{"HDFSDisk", c.HDFSDisk}, {"LocalDisk", c.LocalDisk}} {
		for _, rs := range []units.ByteSize{units.KB, c.HDFSBlockSize} {
			if d.dev.ReadBandwidth(rs) <= 0 {
				return fmt.Errorf("spark: %s delivers no read bandwidth at %v requests (zero-sized or misconfigured device?)", d.name, rs)
			}
			if d.dev.WriteBandwidth(rs) <= 0 {
				return fmt.Errorf("spark: %s delivers no write bandwidth at %v requests (zero-sized or misconfigured device?)", d.name, rs)
			}
		}
	}
	if err := c.Memory.Validate(); err != nil {
		return err
	}
	return c.Faults.Validate(c.Slaves)
}

// StorageMemory returns the cluster-wide memory available for cached
// RDDs: N × executor memory × storage fraction.
func (c ClusterConfig) StorageMemory() units.ByteSize {
	return units.ByteSize(float64(c.Slaves) * float64(c.ExecutorMemory) * c.StorageFraction)
}

// FitsInStorage reports whether an RDD with the given in-memory
// (deserialised) footprint can be fully cached. RDDs that do not fit are
// persisted to Spark Local, the paper's Section III-B2 scenario.
func (c ClusterConfig) FitsInStorage(memFootprint units.ByteSize) bool {
	return memFootprint <= c.StorageMemory()
}

// WithCores returns a copy with a different P; used by core sweeps.
func (c ClusterConfig) WithCores(p int) ClusterConfig {
	c.ExecutorCores = p
	return c
}

// WithDisks returns a copy with different devices; used by disk-config
// sweeps (Table III's four hybrid configurations).
func (c ClusterConfig) WithDisks(hdfs, local disk.Device) ClusterConfig {
	c.HDFSDisk = hdfs
	c.LocalDisk = local
	return c
}
