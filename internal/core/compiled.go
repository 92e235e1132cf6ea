package core

import (
	"fmt"
	"time"

	"repro/internal/units"
)

// Env is the part of a Platform that does not depend on the cluster
// shape: the device bandwidth curves and the HDFS configuration. A
// model compiled against an Env can be evaluated for any (N, P) — that
// is what makes the compiled form reusable across a whole search grid,
// where the devices are fixed per subspace and only the shape varies.
type Env struct {
	Curves      Curves
	Replication int
	BlockSize   units.ByteSize
	// Memory enables the t_mem_limit term; the zero value disables it
	// (see memory.go).
	Memory MemParams
}

// EnvOf extracts the environment of a platform.
func EnvOf(pl Platform) Env {
	return Env{Curves: pl.Curves, Replication: pl.Replication, BlockSize: pl.BlockSize, Memory: pl.Memory}
}

// Validate checks the environment.
func (e Env) Validate() error {
	switch {
	case e.Replication <= 0:
		return fmt.Errorf("core: Replication must be positive, got %d", e.Replication)
	case e.BlockSize <= 0:
		return fmt.Errorf("core: BlockSize must be positive")
	case e.Curves.HDFSRead == nil || e.Curves.HDFSWrite == nil ||
		e.Curves.LocalRead == nil || e.Curves.LocalWrite == nil:
		return fmt.Errorf("core: incomplete curve set")
	}
	return e.Memory.Validate()
}

// platform reconstructs a Platform for the op-level helpers (which
// never read N or P).
func (e Env) platform() Platform {
	return Platform{N: 1, P: 1, Curves: e.Curves, Replication: e.Replication, BlockSize: e.BlockSize, Memory: e.Memory}
}

// checkShape validates a cluster shape with the same errors
// Platform.Validate reports, so a compiled model and AppModel.Predict
// fail identically.
func checkShape(n, p int) error {
	switch {
	case n <= 0:
		return fmt.Errorf("core: N must be positive, got %d", n)
	case p <= 0:
		return fmt.Errorf("core: P must be positive, got %d", p)
	}
	return nil
}

// Shape is one (N, P) cluster shape in a batch prediction.
type Shape struct {
	// N is the number of slave nodes, P the executor cores per node.
	N, P int
}

// compiledGroup is the per-group input of the t_scale term. count is
// stored pre-converted so the hot loop does no int-to-float work, but
// the arithmetic — count/(N·P)·t_g, summed in group order — is exactly
// the expression of the classicPredict reference in the tests.
type compiledGroup struct {
	count float64 // float64(GroupModel.Count)
	tgSec float64 // GroupModel.TaskTime(env, mode) in seconds
	// ioBytes is the per-task I/O volume in bytes; the t_mem_limit term
	// scales it by the memory model's expansion into the in-heap working
	// set (the rule of spark.MemoryConfig.TaskWorkingSet) when it
	// evaluates, so the stage terms do not depend on the memory
	// parameters (see WithMemory).
	ioBytes float64
}

// compiledStage is the flat, shape-independent residue of one
// StageModel against one Env: everything Eq. 1 needs except N and P.
type compiledStage struct {
	name   string
	groups []compiledGroup
	// readSec/writeSec are Σ D_op/BW_op device-seconds per (device,
	// direction) path, accumulated in (group, op) order. Index 0 is the
	// Spark Local device, 1 is HDFS.
	readSec  [2]float64
	writeSec [2]float64
	// tAvg is the count-weighted average task time (shape-independent).
	tAvg                              time.Duration
	deltaScale, deltaRead, deltaWrite time.Duration
}

// CompiledModel is an AppModel compiled against a fixed environment:
// all curve lookups, request-size resolution, replication amplification
// and per-op aggregation are done once, leaving per-prediction work of
// a handful of floating-point operations per stage. A CompiledModel is
// immutable after Compile and therefore safe for concurrent use; the
// prediction methods allocate nothing (PredictBatch is the zero-alloc
// steady-state API).
//
// It is the one implementation of Eq. 1: StageModel.Predict,
// AppModel.Predict and PredictFaulty all evaluate compiled stages. The
// tests hold it byte-identical to classicPredict, a term-by-term
// reference walk over the uncompiled model.
type CompiledModel struct {
	app    string
	mode   Mode
	stages []compiledStage
	// mem is the curve-resolved memory model; memOn gates every memory
	// branch so a memory-free environment evaluates the exact legacy
	// expressions. curves are the environment's curves, kept so
	// WithMemory can resolve other memory parameters against them.
	mem    memEnv
	memOn  bool
	curves Curves
}

// Compile flattens the model against the environment. The model and
// environment are validated once here instead of per prediction.
func Compile(a AppModel, env Env, mode Mode) (*CompiledModel, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	return compile(a, env, mode), nil
}

// compile assumes a validated model and environment.
func compile(a AppModel, env Env, mode Mode) *CompiledModel {
	pl := env.platform()
	cm := &CompiledModel{app: a.Name, mode: mode, stages: make([]compiledStage, 0, len(a.Stages)), curves: env.Curves}
	cm.mem, cm.memOn = env.Memory.resolve(env.Curves)
	for _, s := range a.Stages {
		cs := compiledStage{
			name:       s.Name,
			groups:     make([]compiledGroup, 0, len(s.Groups)),
			deltaScale: s.DeltaScale,
			deltaRead:  s.DeltaRead,
			deltaWrite: s.DeltaWrite,
		}
		var weighted float64
		total := 0
		// One op walk per group yields both its task time (GroupModel.
		// TaskTime) and its share of the per-path D/BW sums, accumulated
		// in (group, op) order, so each op's bandwidth is looked up once.
		for _, g := range s.Groups {
			t := g.ComputePerTask
			for _, op := range g.Ops {
				bw := effBW(op, pl, mode)
				t += ioTimeAt(op, pl, bw)
				if bw <= 0 || op.BytesPerTask <= 0 {
					continue
				}
				vol := units.ByteSize(int64(g.Count)) * opVolume(op, pl)
				sec := float64(vol) / float64(bw)
				d := deviceIdx(op.Kind)
				if op.Kind.IsRead() {
					cs.readSec[d] += sec
				} else {
					cs.writeSec[d] += sec
				}
			}
			tg := t.Seconds()
			cs.groups = append(cs.groups, compiledGroup{count: float64(g.Count), tgSec: tg, ioBytes: float64(g.ioBytes())})
			weighted += float64(g.Count) * tg
			total += g.Count
		}
		if total > 0 {
			cs.tAvg = units.SecDuration(weighted / float64(total))
		}
		cm.stages = append(cm.stages, cs)
	}
	return cm
}

// WithMemory returns the model compiled against the same environment
// but with its memory parameters replaced by m: exactly what Compile
// returns for that environment with Env.Memory = m, without redoing
// the stage terms, which do not depend on the memory parameters. The
// copy shares the receiver's stage terms (both are immutable) and
// resolves only the t_mem_limit scalars against the Local curves, so
// a search over heap sizes compiles each device pair once.
func (c *CompiledModel) WithMemory(m MemParams) (*CompiledModel, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cp := *c
	cp.mem, cp.memOn = m.resolve(c.curves)
	return &cp, nil
}

// App returns the compiled model's application name.
func (c *CompiledModel) App() string { return c.app }

// Mode returns the model variant the compilation resolved.
func (c *CompiledModel) Mode() Mode { return c.mode }

// stageIOTerms are one stage's shape-dependent I/O limit terms. They
// depend on N only, so batch evaluation computes them once per node
// count and reuses them across the P axis — reuse is byte-identical to
// recomputation because the operations are deterministic.
type stageIOTerms struct {
	read, write, dev time.Duration
}

// ioTerms evaluates the three I/O limit terms of Eq. 1: directional
// limits take the binding device, since independent devices serve their
// loads in parallel, and a device serving both directions must fit
// their sum.
func (cs *compiledStage) ioTerms(n int) stageIOTerms {
	var io stageIOTerms
	nf := float64(n)
	if r := maxf(cs.readSec[0], cs.readSec[1]); r > 0 {
		io.read = units.SecDuration(r/nf) + cs.deltaRead
	}
	if w := maxf(cs.writeSec[0], cs.writeSec[1]); w > 0 {
		io.write = units.SecDuration(w/nf) + cs.deltaWrite
	}
	for d := 0; d < 2; d++ {
		combined := cs.readSec[d] + cs.writeSec[d]
		if combined <= 0 {
			continue
		}
		lim := units.SecDuration(combined / nf)
		if cs.readSec[d] > 0 {
			lim += cs.deltaRead
		}
		if cs.writeSec[d] > 0 {
			lim += cs.deltaWrite
		}
		if lim > io.dev {
			io.dev = lim
		}
	}
	return io
}

// scale evaluates t_scale: Σ_g Count_g/(N·P)·t_avg_g + δ_scale, summed
// in group order.
func (cs *compiledStage) scale(n, p int) time.Duration {
	var scaleSec float64
	np := float64(n * p)
	for _, g := range cs.groups {
		scaleSec += g.count / np * g.tgSec
	}
	return units.SecDuration(scaleSec) + cs.deltaScale
}

// The values of StagePrediction.Bottleneck, indexed by combine's
// second result.
const (
	bnScale = iota
	bnRead
	bnWrite
	bnDevice
	bnSum
	bnMemory
)

var bottleneckNames = [...]string{"scale", "read", "write", "device", "sum", "memory"}

// combine applies the mode's overlap rule to one stage's Eq. 1 terms:
// the max of t_scale and the I/O limits (t_scale plus the directional
// limits under ModeNoOverlap), plus the additive t_mem_limit. It also
// returns the binding term, memory when t_mem_limit exceeds the others.
func combine(ts time.Duration, io stageIOTerms, mem time.Duration, mode Mode) (time.Duration, int) {
	if mode == ModeNoOverlap {
		return ts + io.read + io.write + mem, bnSum
	}
	t, b := ts, bnScale
	if io.read > t {
		t, b = io.read, bnRead
	}
	if io.write > t {
		t, b = io.write, bnWrite
	}
	if io.dev > t {
		t, b = io.dev, bnDevice
	}
	if mem > 0 && mem > t {
		b = bnMemory
	}
	return t + mem, b
}

// memLimit evaluates one stage's t_mem_limit for a shape without
// allocating; zero when the environment's memory model is off. The
// per-group expressions are memEnv.groupTerms, shared with the
// classicPredict reference.
func (c *CompiledModel) memLimit(cs *compiledStage, n, p int) time.Duration {
	if !c.memOn {
		return 0
	}
	nf, pf := float64(n), float64(p)
	var memScale, memDev float64
	for _, g := range cs.groups {
		a, b := c.mem.groupTerms(g.count, c.mem.expansion*g.ioBytes, nf, pf)
		memScale += a
		memDev += b
	}
	return units.SecDuration(maxf(memScale, memDev))
}

// evalStage evaluates Eq. 1 for one compiled stage without allocating.
func (c *CompiledModel) evalStage(cs *compiledStage, n, p int) StagePrediction {
	pred := StagePrediction{Name: cs.name, TAvg: cs.tAvg, TScale: cs.scale(n, p), TMemLimit: c.memLimit(cs, n, p)}
	io := cs.ioTerms(n)
	pred.TReadLimit, pred.TWriteLimit, pred.TDeviceLimit = io.read, io.write, io.dev
	var b int
	pred.T, b = combine(pred.TScale, io, pred.TMemLimit, c.mode)
	pred.Bottleneck = bottleneckNames[b]
	return pred
}

// Predict evaluates the compiled model for one cluster shape, returning
// the full per-stage breakdown (this allocates the stage slice; use
// Total or PredictBatch on the hot path).
func (c *CompiledModel) Predict(n, p int) (AppPrediction, error) {
	if err := checkShape(n, p); err != nil {
		return AppPrediction{}, err
	}
	out := AppPrediction{App: c.app, Stages: make([]StagePrediction, len(c.stages))}
	for i := range c.stages {
		sp := c.evalStage(&c.stages[i], n, p)
		out.Stages[i] = sp
		out.Total += sp.T
	}
	return out, nil
}

// Total evaluates t_app for one shape without allocating. It sums
// evalStage's T without building the per-stage breakdown.
func (c *CompiledModel) Total(n, p int) (time.Duration, error) {
	if err := checkShape(n, p); err != nil {
		return 0, err
	}
	var total time.Duration
	for i := range c.stages {
		cs := &c.stages[i]
		t, _ := combine(cs.scale(n, p), cs.ioTerms(n), c.memLimit(cs, n, p), c.mode)
		total += t
	}
	return total, nil
}

// MemTotal evaluates the memory part of t_app for one shape without
// allocating: Σ_j t_mem_limit_j, zero when the memory model is off.
// Eq. 1 adds t_mem_limit to every stage's memory-free time, and stage
// times are int64 Durations, so with free = c.WithMemory(MemParams{})
//
//	c.Total(n, p) == free.Total(n, p) + c.MemTotal(n, p)
//
// holds exactly (FuzzCompiledPredict checks it). The memory part reads
// the model's group counts and I/O bytes, the shape, the memory
// parameters and the Local curves, never the HDFS curves, so one
// variant per Local disk and heap prices it for every HDFS disk.
func (c *CompiledModel) MemTotal(n, p int) (time.Duration, error) {
	if err := checkShape(n, p); err != nil || !c.memOn {
		return 0, err
	}
	var total time.Duration
	for i := range c.stages {
		total += c.memLimit(&c.stages[i], n, p)
	}
	return total, nil
}

// PredictBatch evaluates t_app for every shape, writing results into
// the caller-provided slab. It allocates nothing (the slab is sized by
// the caller, typically reused across batches), making it the
// steady-state API for grid sweeps; it is safe to call concurrently on
// the same CompiledModel. It returns out[:len(shapes)].
func (c *CompiledModel) PredictBatch(shapes []Shape, out []time.Duration) ([]time.Duration, error) {
	if len(out) < len(shapes) {
		return nil, fmt.Errorf("core: PredictBatch: out has %d slots for %d shapes", len(out), len(shapes))
	}
	for _, sh := range shapes {
		if err := checkShape(sh.N, sh.P); err != nil {
			return nil, err
		}
	}
	// The I/O limit terms depend on N only; batches are typically sorted
	// or grouped by N (grid enumerations vary P innermost), so caching
	// the last N's terms removes most of the per-shape work. Better
	// still, the three terms fold to a single duration per stage: under
	// overlap the stage time is max(t_scale, read, write, device) — equal
	// to max(t_scale, fold) with fold = max(read, write, device) — and
	// under ModeNoOverlap it is t_scale + (read + write); int64 duration
	// addition is associative, so both folds are exact. Stage counts
	// beyond the stack buffer fall back to per-shape evaluation.
	stages := c.stages
	var foldBuf [64]time.Duration
	if len(stages) > len(foldBuf) {
		for i, sh := range shapes {
			var total time.Duration
			for j := range stages {
				total += c.evalStage(&stages[j], sh.N, sh.P).T
			}
			out[i] = total
		}
		return out[:len(shapes)], nil
	}
	fold := foldBuf[:len(stages)]
	noOverlap := c.mode == ModeNoOverlap
	lastN := 0 // shapes are validated, so N >= 1 marks the cache filled
	for i, sh := range shapes {
		if sh.N != lastN {
			for j := range stages {
				io := stages[j].ioTerms(sh.N)
				if noOverlap {
					fold[j] = io.read + io.write
				} else {
					f := io.read
					if io.write > f {
						f = io.write
					}
					if io.dev > f {
						f = io.dev
					}
					fold[j] = f
				}
			}
			lastN = sh.N
		}
		np := float64(sh.N * sh.P)
		var total time.Duration
		for j := range stages {
			var scaleSec float64
			for _, g := range stages[j].groups {
				scaleSec += g.count / np * g.tgSec
			}
			ts := units.SecDuration(scaleSec) + stages[j].deltaScale
			if noOverlap {
				ts += fold[j]
			} else if fold[j] > ts {
				ts = fold[j]
			}
			// t_mem_limit depends on both N and P, so it sits outside the
			// N-only fold; the branch is skipped entirely when the memory
			// model is off, keeping the legacy fast path intact.
			if c.memOn {
				ts += c.memLimit(&stages[j], sh.N, sh.P)
			}
			total += ts
		}
		out[i] = total
	}
	return out[:len(shapes)], nil
}

// TopBottleneck returns the most common per-stage bottleneck for the
// shape, with ties resolved in stage order (the same census rule the
// serve sweep endpoint has always used). It does not allocate.
func (c *CompiledModel) TopBottleneck(n, p int) (string, error) {
	if err := checkShape(n, p); err != nil {
		return "", err
	}
	// Indexes into bottleneckNames; mirrors the string census of the
	// sweep handler: top switches only on a strictly greater count.
	var counts [len(bottleneckNames)]int
	top := -1
	for i := range c.stages {
		cs := &c.stages[i]
		_, k := combine(cs.scale(n, p), cs.ioTerms(n), c.memLimit(cs, n, p), c.mode)
		counts[k]++
		if top < 0 || counts[k] > counts[top] {
			top = k
		}
	}
	if top < 0 {
		return "", nil
	}
	return bottleneckNames[top], nil
}
