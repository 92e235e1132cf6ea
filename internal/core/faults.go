package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/spark"
	"repro/internal/units"
)

// FaultParams feeds the expected-runtime-under-faults estimator. It is
// the analytical mirror of spark.FaultConfig: the simulator injects
// individual failures; this model predicts their aggregate cost so
// degraded simulated runs can be checked against a closed form.
type FaultParams struct {
	// TaskFailureProb is the per-attempt failure probability.
	TaskFailureProb float64
	// ShuffleFetchFailureProb is the per-attempt fetch-failure
	// probability of shuffle-read tasks.
	ShuffleFetchFailureProb float64
	// MaxTaskFailures is the attempt budget (spark.task.maxFailures);
	// zero means the Spark default of 4.
	MaxTaskFailures int
	// RetryBackoff is the base retry delay; zero means one second.
	RetryBackoff time.Duration
}

// Enabled reports whether any fault source is configured.
func (f FaultParams) Enabled() bool {
	return f.TaskFailureProb > 0 || f.ShuffleFetchFailureProb > 0
}

// Validate checks the parameters.
func (f FaultParams) Validate() error {
	switch {
	case f.TaskFailureProb < 0 || f.TaskFailureProb >= 1:
		return fmt.Errorf("core: TaskFailureProb %v outside [0,1)", f.TaskFailureProb)
	case f.ShuffleFetchFailureProb < 0 || f.ShuffleFetchFailureProb >= 1:
		return fmt.Errorf("core: ShuffleFetchFailureProb %v outside [0,1)", f.ShuffleFetchFailureProb)
	case f.MaxTaskFailures < 0:
		return fmt.Errorf("core: negative MaxTaskFailures")
	case f.RetryBackoff < 0:
		return fmt.Errorf("core: negative RetryBackoff")
	}
	return nil
}

// FaultsFor converts a simulator fault configuration to model
// parameters, keeping experiment code honest about using the same
// numbers on both sides of a model-vs-simulation comparison.
func FaultsFor(f spark.FaultConfig) FaultParams {
	return FaultParams{
		TaskFailureProb:         f.TaskFailureProb,
		ShuffleFetchFailureProb: f.ShuffleFetchFailureProb,
		MaxTaskFailures:         f.MaxTaskFailures,
		RetryBackoff:            units.SecDuration(f.RetryBackoff.Seconds()),
	}
}

func (f FaultParams) maxTaskFailures() int {
	if f.MaxTaskFailures > 0 {
		return f.MaxTaskFailures
	}
	return 4
}

func (f FaultParams) backoffBase() time.Duration {
	if f.RetryBackoff > 0 {
		return f.RetryBackoff
	}
	return time.Second
}

// extraAttempts returns the expected number of failed attempts per task
// for per-attempt failure probability p under an attempt budget of K:
// Σ_{k=1..K-1} p^k, the truncated geometric mean (runs exhausting the
// budget abort the application and are excluded).
func (f FaultParams) extraAttempts(p float64) float64 {
	if p <= 0 {
		return 0
	}
	e, pk := 0.0, 1.0
	for k := 1; k < f.maxTaskFailures(); k++ {
		pk *= p
		e += pk
	}
	return e
}

// FaultyStagePrediction is one stage's degraded-runtime estimate.
type FaultyStagePrediction struct {
	// StagePrediction holds the degraded Eq. 1 terms; T is the expected
	// stage time under faults.
	StagePrediction
	// Base is the fault-free stage prediction for the same platform and
	// mode, so Inflation = T/Base.
	Base time.Duration
	// ExtraAttempts is the expected number of failed attempts across the
	// stage's tasks.
	ExtraAttempts float64
	// Recomputes is the expected number of parent map-task
	// recomputations triggered by fetch failures.
	Recomputes float64
}

// FaultyAppPrediction sums the degraded stage estimates.
type FaultyAppPrediction struct {
	App    string
	Stages []FaultyStagePrediction
	// Total is the expected application runtime under faults; Base is
	// the fault-free prediction.
	Total time.Duration
	Base  time.Duration
	// AbortProb is the probability that some task exhausts its attempt
	// budget and the application aborts (the estimate conditions on
	// survival).
	AbortProb float64
}

// Inflation returns Total/Base, the headline degradation factor the
// resilience sweeps compare across devices.
func (p FaultyAppPrediction) Inflation() float64 {
	if p.Base <= 0 {
		return 1
	}
	return p.Total.Seconds() / p.Base.Seconds()
}

// wasteFraction is the expected fraction of an attempt's work done
// before an injected failure: the failure point is uniform over the op
// boundaries, so half on average.
const wasteFraction = 0.5

// PredictFaulty evaluates the expected runtime under faults: a
// first-order extension of Eq. 1 where
//
//   - every failed attempt wastes wasteFraction of its work, inflating
//     both the scale term's core-seconds and the I/O terms' volumes by
//     (1 + E[extra attempts]·wasteFraction);
//   - each fetch failure on a shuffle-read stage additionally recomputes
//     one parent map task — re-reading the parent's HDFS input at block
//     sizes and re-writing its shuffle output at small request sizes —
//     charged to the consumer stage's terms. This is where the
//     request-size-aware curves make recovery device-dependent: the
//     recompute is cheap on SSD and brutal on HDD;
//   - the last wave's failures cannot hide behind other tasks, so the
//     scale term gains p·(wasteFraction·t_avg + backoff) of expected
//     tail latency.
//
// The degraded terms then go through Eq. 1's overlap rule, t_mem_limit
// included, exactly as the fault-free ones do.
//
// Stages are treated as a linear chain (stage i's parent is stage i-1),
// matching the simulator's implicit scheduling for chain apps.
func (a AppModel) PredictFaulty(pl Platform, mode Mode, f FaultParams) (FaultyAppPrediction, error) {
	if err := f.Validate(); err != nil {
		return FaultyAppPrediction{}, err
	}
	cm, err := a.compileFor(pl, mode)
	if err != nil {
		return FaultyAppPrediction{}, err
	}
	out := FaultyAppPrediction{App: a.Name, Stages: make([]FaultyStagePrediction, 0, len(a.Stages))}
	p := f.TaskFailureProb
	q := f.ShuffleFetchFailureProb
	inflate := 1 + f.extraAttempts(p)*wasteFraction
	survive := 1.0
	for i, s := range a.Stages {
		sp := cm.evalStage(&cm.stages[i], pl.N, pl.P)
		fs := FaultyStagePrediction{StagePrediction: sp, Base: sp.T}
		out.Base += sp.T
		// Strictly additive, like the simulator: no faults, no change.
		if !f.Enabled() {
			out.Stages = append(out.Stages, fs)
			out.Total += fs.T
			continue
		}

		// Work inflation applies to the load-dependent part of every
		// term; the δ constants are serial overheads failures do not
		// multiply. t_mem_limit is kept as it is.
		fs.TScale = scaleTerm(sp.TScale, s.DeltaScale, inflate)
		fs.TReadLimit = scaleTerm(sp.TReadLimit, s.DeltaRead, inflate)
		fs.TWriteLimit = scaleTerm(sp.TWriteLimit, s.DeltaWrite, inflate)
		fs.TDeviceLimit = scaleTerm(sp.TDeviceLimit, s.DeltaRead+s.DeltaWrite, inflate)
		fs.ExtraAttempts = f.extraAttempts(p) * float64(s.M())

		// Tail latency: a failure in the final wave delays the stage by
		// the wasted work plus the backoff before the retry.
		if p > 0 {
			fs.TScale += units.SecDuration(p * (wasteFraction*sp.TAvg.Seconds() + f.backoffBase().Seconds()))
		}

		// Fetch failures: each recomputes one parent map task, adding
		// the parent's op volumes to this stage's device loads and the
		// parent's task time to its core work.
		if q > 0 && i > 0 {
			parent := a.Stages[i-1]
			if g := shuffleReadTasks(s); g > 0 && len(parent.Groups) > 0 {
				rec := f.extraAttempts(q) * float64(g)
				fs.Recomputes = rec
				perRecompute := cm.stages[i-1].groups[0].tgSec
				fs.TScale += units.SecDuration(rec / float64(pl.N*pl.P) * perRecompute)
				rSec, wSec := opDeviceSeconds(parent.Groups[0].Ops, pl, mode)
				fs.TReadLimit += units.SecDuration(rec * rSec / float64(pl.N))
				fs.TWriteLimit += units.SecDuration(rec * wSec / float64(pl.N))
				fs.TDeviceLimit += units.SecDuration(rec * (rSec + wSec) / float64(pl.N))
				// A fetch-failed reducer's recovery is serial: backoff,
				// recompute, then a full re-attempt. A final-wave failure
				// cannot hide behind other tasks, so the chain extends the
				// stage tail with probability q.
				chain := f.backoffBase().Seconds() + perRecompute + sp.TAvg.Seconds()
				fs.TScale += units.SecDuration(q * chain)
			}
		}

		var b int
		fs.T, b = combine(fs.TScale, stageIOTerms{fs.TReadLimit, fs.TWriteLimit, fs.TDeviceLimit}, fs.TMemLimit, mode)
		fs.Bottleneck = bottleneckNames[b]
		out.Stages = append(out.Stages, fs)
		out.Total += fs.T

		// Budget exhaustion aborts the app: P(task survives) summed over
		// both failure channels, per task.
		pk := math.Pow(p, float64(f.maxTaskFailures()))
		qk := 0.0
		if i > 0 {
			qk = math.Pow(q, float64(f.maxTaskFailures()))
		}
		survive *= math.Pow((1-pk)*(1-qk), float64(s.M()))
	}
	out.AbortProb = 1 - survive
	return out, nil
}

// scaleTerm inflates the load-dependent part of an Eq. 1 term, leaving
// its δ constant alone. Zero terms stay zero.
func scaleTerm(t, delta time.Duration, factor float64) time.Duration {
	if t <= 0 {
		return t
	}
	load := t - delta
	if load < 0 {
		load = 0
	}
	return units.SecDuration(load.Seconds()*factor) + delta
}

// shuffleReadTasks counts the stage's tasks that perform shuffle reads
// (the population exposed to fetch failures).
func shuffleReadTasks(s StageModel) int {
	n := 0
	for _, g := range s.Groups {
		for _, op := range g.Ops {
			if op.Kind == spark.OpShuffleRead {
				n += g.Count
				break
			}
		}
	}
	return n
}

// opDeviceSeconds sums one task's device-seconds per direction at the
// platform's effective bandwidths — the per-recompute I/O load.
func opDeviceSeconds(ops []OpModel, pl Platform, mode Mode) (readSec, writeSec float64) {
	for _, op := range ops {
		bw := effBW(op, pl, mode)
		if bw <= 0 || op.BytesPerTask <= 0 {
			continue
		}
		sec := float64(opVolume(op, pl)) / float64(bw)
		if op.Kind.IsRead() {
			readSec += sec
		} else {
			writeSec += sec
		}
	}
	return readSec, writeSec
}
