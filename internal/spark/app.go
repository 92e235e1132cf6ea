package spark

import (
	"fmt"
	"time"

	"repro/internal/units"
)

// OpKind enumerates the per-task operations the simulator understands.
// They correspond to the RDD access kinds the paper models: HDFS
// read/write, shuffle read/write and persist read/write, plus pure CPU
// computation.
type OpKind int

// Task operation kinds.
const (
	OpCompute OpKind = iota
	OpHDFSRead
	OpHDFSWrite
	OpShuffleRead
	OpShuffleWrite
	OpPersistRead
	OpPersistWrite
	// OpSpillWrite and OpSpillRead are emitted by the simulator's
	// memory layer (never by applications): working-set overflow
	// written to the Local device when a wave outgrows the executor
	// heap, and re-read before the task completes.
	OpSpillWrite
	OpSpillRead
)

var opKindNames = [...]string{
	"Compute", "HDFSRead", "HDFSWrite", "ShuffleRead", "ShuffleWrite",
	"PersistRead", "PersistWrite", "SpillWrite", "SpillRead",
}

// String names the op kind.
func (k OpKind) String() string {
	if k < 0 || int(k) >= len(opKindNames) {
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
	return opKindNames[k]
}

// IsIO reports whether the op moves data to or from a disk.
func (k OpKind) IsIO() bool { return k != OpCompute }

// IsRead reports whether the op reads from a disk.
func (k OpKind) IsRead() bool {
	return k == OpHDFSRead || k == OpShuffleRead || k == OpPersistRead || k == OpSpillRead
}

// IsWrite reports whether the op writes to a disk.
func (k OpKind) IsWrite() bool {
	return k == OpHDFSWrite || k == OpShuffleWrite || k == OpPersistWrite || k == OpSpillWrite
}

// OnLocal reports whether the op targets the Spark Local disk (as
// opposed to the HDFS disk).
func (k OpKind) OnLocal() bool {
	return k == OpShuffleRead || k == OpShuffleWrite ||
		k == OpPersistRead || k == OpPersistWrite ||
		k == OpSpillRead || k == OpSpillWrite
}

// Op is one step of a task. Tasks execute their ops sequentially while
// holding an executor core — I/O does not overlap computation within a
// task, only across tasks, exactly the paper's pipeline model (Fig. 6).
type Op struct {
	Kind OpKind
	// Bytes is the data volume for I/O ops (per task).
	Bytes units.ByteSize
	// ReqSize is the I/O request size seen by the disk; it selects the
	// effective-bandwidth operating point. Zero picks a kind-specific
	// default (see DefaultReqSize).
	ReqSize units.ByteSize
	// StreamLimit is the per-core client-side throughput cap, the paper's
	// T (e.g. 60 MB/s for shuffle read including inline decompression).
	// Zero means the device is the only limit.
	StreamLimit units.Rate
	// CoupledCompute is CPU time interleaved with this op's I/O at
	// request granularity (Spark tasks process each fetched block before
	// pulling the next). The device is free for other tasks during the
	// compute slices. Real Spark exposes the same decomposition as task
	// time minus "blocked time" in its metrics. Only valid on I/O ops.
	CoupledCompute time.Duration
	// Duration is the CPU time for OpCompute.
	Duration time.Duration
}

// Compute builds a pure-CPU op.
func Compute(d time.Duration) Op { return Op{Kind: OpCompute, Duration: d} }

// IO builds an I/O op.
func IO(kind OpKind, bytes, reqSize units.ByteSize, streamLimit units.Rate) Op {
	return Op{Kind: kind, Bytes: bytes, ReqSize: reqSize, StreamLimit: streamLimit}
}

// IOC builds an I/O op with coupled (interleaved) computation.
func IOC(kind OpKind, bytes, reqSize units.ByteSize, streamLimit units.Rate, coupled time.Duration) Op {
	return Op{Kind: kind, Bytes: bytes, ReqSize: reqSize, StreamLimit: streamLimit, CoupledCompute: coupled}
}

// ComputeRate converts the op's coupled compute into a rate (bytes per
// second of CPU-side processing); zero when the op has none.
func (o Op) ComputeRate() units.Rate {
	if o.CoupledCompute <= 0 || o.Bytes <= 0 {
		return 0
	}
	return units.Over(o.Bytes, o.CoupledCompute)
}

// DefaultReqSize returns the request size used when an op does not
// specify one: HDFS ops use the HDFS block size; shuffle and persist ops
// use the full op volume (one sequential chunk), which callers normally
// override with the M×R shuffle math.
func (o Op) DefaultReqSize(blockSize units.ByteSize) units.ByteSize {
	if o.ReqSize > 0 {
		return o.ReqSize
	}
	switch o.Kind {
	case OpHDFSRead, OpHDFSWrite:
		if o.Bytes < blockSize {
			return o.Bytes
		}
		return blockSize
	default:
		return o.Bytes
	}
}

// TaskGroup is a homogeneous set of tasks within a stage. Stages may mix
// groups — e.g. GATK4's BaseRecalibrator runs both HDFS-read filter
// tasks and shuffle-read recalibration tasks in the same stage.
type TaskGroup struct {
	Name  string
	Count int
	Ops   []Op
	// GC, when non-nil, returns extra per-task CPU time as a function of
	// the per-node core count P. It models the JVM garbage-collection
	// pressure the paper observes on GATK4 MarkDuplicate (Section V-A1),
	// which is explicitly outside the analytic model.
	GC func(p int) time.Duration
}

// Bytes sums the group's per-task volume for the given op kind.
func (g TaskGroup) Bytes(kind OpKind) units.ByteSize {
	var total units.ByteSize
	for _, op := range g.Ops {
		if op.Kind == kind {
			total += op.Bytes
		}
	}
	return total
}

// Stage is a set of task groups separated from other stages by shuffle
// boundaries. By default stages run as a linear chain (each barriers on
// the previous one); when any stage in the app lists DependsOn, the DAG
// scheduler runs every stage whose dependencies have completed — as
// Spark's DAG scheduler does for independent branches of the lineage.
type Stage struct {
	Name   string
	Groups []TaskGroup
	// DependsOn names the stages that must complete before this one
	// starts. Only consulted when at least one stage in the app sets it;
	// otherwise the implicit linear chain applies.
	DependsOn []string
}

// Tasks returns the stage's total task count M.
func (s Stage) Tasks() int {
	n := 0
	for _, g := range s.Groups {
		n += g.Count
	}
	return n
}

// tasks is the app's task count over all stages.
func (a App) tasks() int {
	n := 0
	for _, s := range a.Stages {
		n += s.Tasks()
	}
	return n
}

// TotalBytes sums the stage's cluster-wide volume for an op kind.
func (s Stage) TotalBytes(kind OpKind) units.ByteSize {
	var total units.ByteSize
	for _, g := range s.Groups {
		total += units.ByteSize(int64(g.Count)) * g.Bytes(kind)
	}
	return total
}

// App is a Spark application: an ordered list of stages.
type App struct {
	Name   string
	Stages []Stage
}

// Validate checks the app for structural problems.
func (a App) Validate() error {
	if len(a.Stages) == 0 {
		return fmt.Errorf("spark: app %q has no stages", a.Name)
	}
	if err := a.validateDeps(); err != nil {
		return err
	}
	for si, s := range a.Stages {
		if len(s.Groups) == 0 {
			return fmt.Errorf("spark: app %q stage %d (%s) has no task groups", a.Name, si, s.Name)
		}
		for gi, g := range s.Groups {
			if g.Count <= 0 {
				return fmt.Errorf("spark: %s/%s group %d has non-positive count", a.Name, s.Name, gi)
			}
			if len(g.Ops) == 0 {
				return fmt.Errorf("spark: %s/%s group %d has no ops", a.Name, s.Name, gi)
			}
			for oi, op := range g.Ops {
				switch {
				case op.Kind == OpSpillRead || op.Kind == OpSpillWrite:
					return fmt.Errorf("spark: %s/%s group %d op %d: spill ops are emitted by the memory layer, not by applications", a.Name, s.Name, gi, oi)
				case op.Kind == OpCompute && op.Duration < 0:
					return fmt.Errorf("spark: %s/%s group %d op %d: negative compute", a.Name, s.Name, gi, oi)
				case op.Kind == OpCompute && op.CoupledCompute != 0:
					return fmt.Errorf("spark: %s/%s group %d op %d: coupled compute on a compute op", a.Name, s.Name, gi, oi)
				case op.Kind != OpCompute && op.Bytes < 0:
					return fmt.Errorf("spark: %s/%s group %d op %d: negative bytes", a.Name, s.Name, gi, oi)
				case op.ReqSize < 0:
					return fmt.Errorf("spark: %s/%s group %d op %d: negative request size", a.Name, s.Name, gi, oi)
				case op.CoupledCompute < 0:
					return fmt.Errorf("spark: %s/%s group %d op %d: negative coupled compute", a.Name, s.Name, gi, oi)
				}
			}
		}
	}
	return nil
}

// validateDeps checks the optional stage DAG: unique names, known
// dependency targets, no cycles.
func (a App) validateDeps() error {
	useDAG := false
	for _, s := range a.Stages {
		if len(s.DependsOn) > 0 {
			useDAG = true
			break
		}
	}
	if !useDAG {
		return nil
	}
	byName := map[string]int{}
	for i, s := range a.Stages {
		if _, dup := byName[s.Name]; dup {
			return fmt.Errorf("spark: app %q uses a stage DAG but stage name %q is not unique", a.Name, s.Name)
		}
		byName[s.Name] = i
	}
	for _, s := range a.Stages {
		for _, dep := range s.DependsOn {
			if _, ok := byName[dep]; !ok {
				return fmt.Errorf("spark: stage %q depends on unknown stage %q", s.Name, dep)
			}
		}
	}
	// Cycle check via colouring.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := make([]int, len(a.Stages))
	var visit func(i int) error
	visit = func(i int) error {
		switch colour[i] {
		case grey:
			return fmt.Errorf("spark: stage dependency cycle through %q", a.Stages[i].Name)
		case black:
			return nil
		}
		colour[i] = grey
		for _, dep := range a.Stages[i].DependsOn {
			if err := visit(byName[dep]); err != nil {
				return err
			}
		}
		colour[i] = black
		return nil
	}
	for i := range a.Stages {
		if err := visit(i); err != nil {
			return err
		}
	}
	return nil
}

// ShuffleReadReqSize computes the request size a reducer sees: each
// reducer pulls its slice from every one of the M mapper output files,
// so the block size is reducerBytes / M (paper Section III-C2:
// 27 MB / 973 ≈ 30 KB in GATK4). The result is floored at 1 KB to keep
// degenerate partitionings physical.
func ShuffleReadReqSize(reducerBytes units.ByteSize, mappers int) units.ByteSize {
	if mappers <= 0 {
		return reducerBytes
	}
	rs := reducerBytes / units.ByteSize(mappers)
	if rs < units.KB {
		rs = units.KB
	}
	return rs
}

// HDFSTasks returns the number of map tasks for an HDFS-resident input:
// one per block (paper: M = 122 GB / 128 MB = 973).
func HDFSTasks(input, blockSize units.ByteSize) int {
	if blockSize <= 0 {
		return 1
	}
	n := int((input + blockSize - 1) / blockSize)
	if n < 1 {
		n = 1
	}
	return n
}
