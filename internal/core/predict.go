package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/spark"
	"repro/internal/units"
)

// Mode selects the model variant. Beyond the paper's model the package
// offers two deliberately-crippled variants used by the ablation
// benches to demonstrate why the I/O-aware ingredients matter.
type Mode int

const (
	// ModeDoppio is the paper's full model.
	ModeDoppio Mode = iota
	// ModePeakBW replaces the request-size-aware bandwidth lookup by the
	// device's peak (large-request) bandwidth — the Ernest-style
	// assumption the paper criticises.
	ModePeakBW
	// ModeNoOverlap drops the max() overlap reasoning and adds the I/O
	// limit terms to the scaling term instead, i.e. it assumes CPU and
	// I/O never overlap across tasks.
	ModeNoOverlap
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeDoppio:
		return "doppio"
	case ModePeakBW:
		return "peak-bw"
	case ModeNoOverlap:
		return "no-overlap"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// StagePrediction is the evaluated Eq. 1 for one stage.
type StagePrediction struct {
	Name string
	// TScale, TReadLimit, TWriteLimit are the paper's three candidate
	// times. The directional limits take the *binding device*: paths on
	// independent devices proceed in parallel.
	TScale      time.Duration
	TReadLimit  time.Duration
	TWriteLimit time.Duration
	// TDeviceLimit generalises Eq. 1 to stages whose reads and writes
	// share one device (e.g. GATK4 SF reads the input from HDFS while
	// writing the output to HDFS): the device must serve the *sum* of
	// both directions. On the paper's testbed layouts, where each
	// direction binds on a different device, it coincides with
	// max(TReadLimit, TWriteLimit).
	TDeviceLimit time.Duration
	// TMemLimit is the additive memory term: executor-heap overflow
	// spilled through the Local device plus expected GC stalls (see
	// memory.go). Zero unless the platform sets Memory.
	TMemLimit time.Duration
	// T is the predicted stage time, max of the candidates plus
	// TMemLimit.
	T time.Duration
	// Bottleneck names which term won: "scale", "read", "write",
	// "device" or "memory" (when TMemLimit exceeds the max of the
	// others).
	Bottleneck string
	// TAvg is the modelled average task time on this platform (per-group
	// counts weighted), useful for diagnostics.
	TAvg time.Duration
}

// AppPrediction sums stage predictions.
type AppPrediction struct {
	App    string
	Stages []StagePrediction
	Total  time.Duration
}

// Stage returns the named stage prediction, or false.
func (p AppPrediction) Stage(name string) (StagePrediction, bool) {
	for _, s := range p.Stages {
		if s.Name == name {
			return s, true
		}
	}
	return StagePrediction{}, false
}

// effReqSize resolves an op's request size on a platform.
func effReqSize(op OpModel, pl Platform) units.ByteSize {
	if op.ReqSize > 0 {
		return op.ReqSize
	}
	switch op.Kind {
	case spark.OpHDFSRead, spark.OpHDFSWrite:
		if op.BytesPerTask < pl.BlockSize {
			return op.BytesPerTask
		}
		return pl.BlockSize
	default:
		return op.BytesPerTask
	}
}

// effBW returns the effective device bandwidth for an op on the
// platform, honouring the mode.
func effBW(op OpModel, pl Platform, mode Mode) units.Rate {
	curve := pl.Curves.forOp(op.Kind)
	if curve == nil {
		return 0
	}
	if mode == ModePeakBW {
		// Peak = the large-request end of the curve; Lookup clamps to
		// the last sample without copying the table.
		return curve.Lookup(math.MaxInt64)
	}
	return curve.Lookup(effReqSize(op, pl))
}

// opVolume returns the device-level volume of the op, including HDFS
// replication amplification on writes.
func opVolume(op OpModel, pl Platform) units.ByteSize {
	if op.Kind == spark.OpHDFSWrite {
		return op.BytesPerTask * units.ByteSize(pl.Replication)
	}
	return op.BytesPerTask
}

// ioTimeAt is the uncontended duration of one op in one task at the
// op's resolved effective bandwidth: bytes/min(T, BW(reqSize)), plus
// the interleaved compute when the op has a coupled rate (harmonic
// composition).
func ioTimeAt(op OpModel, pl Platform, bw units.Rate) time.Duration {
	rate := float64(bw)
	if op.T > 0 && float64(op.T) < rate {
		rate = float64(op.T)
	}
	if op.CoupledRate > 0 && rate > 0 {
		rate = 1 / (1/rate + 1/float64(op.CoupledRate))
	}
	return units.Rate(rate).TimeFor(opVolume(op, pl))
}

// perTaskBlockedTime is the pure I/O (blocked) portion of an op's
// uncontended time: bytes/min(T, BW), without the coupled compute.
func perTaskBlockedTime(op OpModel, pl Platform) time.Duration {
	bw := effBW(op, pl, ModeDoppio)
	rate := bw
	if op.T > 0 && op.T < rate {
		rate = op.T
	}
	return rate.TimeFor(opVolume(op, pl))
}

// TaskTime returns the modelled uncontended average task time of a group
// on the platform: compute plus per-op I/O at min(T, BW).
func (g GroupModel) TaskTime(pl Platform, mode Mode) time.Duration {
	t := g.ComputePerTask
	for _, op := range g.Ops {
		t += ioTimeAt(op, pl, effBW(op, pl, mode))
	}
	return t
}

// deviceIdx indexes the per-path D/BW sums: 0 is the Spark Local
// device, 1 is HDFS.
func deviceIdx(kind spark.OpKind) int {
	if kind.OnLocal() {
		return 0
	}
	return 1
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Predict evaluates Eq. 1 for the stage on the platform: the stage
// compiled on its own and evaluated at (N, P). It does not validate.
func (s StageModel) Predict(pl Platform, mode Mode) StagePrediction {
	cm := compile(AppModel{Name: s.Name, Stages: []StageModel{s}}, EnvOf(pl), mode)
	return cm.evalStage(&cm.stages[0], pl.N, pl.P)
}

// Predict evaluates the whole application: t_app = Σ t_stage. It is a
// thin wrapper over the compiled model — compile against the
// platform's environment, evaluate at (N, P). The fuzz target
// FuzzCompiledPredict holds it byte-identical to classicPredict, the
// term-by-term reference the tests keep.
func (a AppModel) Predict(pl Platform, mode Mode) (AppPrediction, error) {
	cm, err := a.compileFor(pl, mode)
	if err != nil {
		return AppPrediction{}, err
	}
	return cm.Predict(pl.N, pl.P)
}

// compileFor validates the model and the platform and compiles the
// model against the platform's environment.
func (a AppModel) compileFor(pl Platform, mode Mode) (*CompiledModel, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return compile(a, EnvOf(pl), mode), nil
}

// ErrorRate returns |predicted-measured| / measured; it is the metric
// the paper reports (<10% across its workloads).
func ErrorRate(predicted, measured time.Duration) float64 {
	if measured <= 0 {
		return 0
	}
	d := (predicted - measured).Seconds()
	if d < 0 {
		d = -d
	}
	return d / measured.Seconds()
}
