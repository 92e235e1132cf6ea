package optimizer

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/spark"
	"repro/internal/units"
)

// pairKey identifies one device pair: the spec's HDFS and Spark Local
// disks. Everything else in a ClusterSpec is cluster shape (Slaves,
// VCPUs), which the compiled model takes per prediction, or the heap,
// which WithMemory derives from the pair's memory-free compile: the
// testbed software configuration (replication, block size) is constant
// across shapes, so every spec on the same provisioned devices shares
// one compilation.
type pairKey struct {
	hdfsType  cloud.DiskType
	hdfsSize  units.ByteSize
	localType cloud.DiskType
	localSize units.ByteSize
}

func pairOf(spec cloud.ClusterSpec) pairKey {
	return pairKey{spec.HDFSType, spec.HDFSSize, spec.LocalType, spec.LocalSize}
}

// diskKey identifies one provisioned virtual disk. Its bandwidth
// curves are a pure function of it: the paper's one-time disk
// profiling (Section VI-1).
type diskKey struct {
	diskType cloud.DiskType
	size     units.ByteSize
}

// diskCurves are one disk's profiled read and write curves.
type diskCurves struct {
	read, write *disk.Curve
}

// compiledEntry is one device pair's lazily-compiled memory-free
// model. The sync.Once gives singleflight semantics: concurrent
// evaluations on the same pair compile once.
type compiledEntry struct {
	once sync.Once
	cm   *core.CompiledModel
	err  error
}

// CompiledEvaluator evaluates cluster specs through the compiled
// analytical fast path. Each disk is profiled once, the first time a
// spec provisions it, and each device pair is compiled once,
// memory-free. Both are pure functions of the model and the devices,
// so one evaluator can serve any number of searches: its state is
// bounded by the distinct disks and pairs it has seen.
//
// A heap is not cached here. Evaluate and EvaluateBatch derive a
// spec's heap variant from its pair's compile with
// core.CompiledModel.WithMemory; the searches derive each (pair, heap)
// variant at most once per search, in state local to that search (see
// pairScope). Heap values, which callers may pick freely, therefore
// never accumulate. Safe for concurrent use.
//
// Results are byte-identical to the per-point path
// (AppModel.Predict on core.PlatformFor(spec.ClusterConfig())).
type CompiledEvaluator struct {
	model core.AppModel
	// mu guards the maps; compilation itself runs outside it, under
	// the entry's Once.
	mu    sync.Mutex
	disks map[diskKey]diskCurves
	pairs map[pairKey]*compiledEntry
}

// ModelEvaluator builds the evaluator the Section VI searches run on:
// the calibrated Doppio model behind a per-device-pair compile cache.
// This is what makes exploring 10^5-10^6 configurations feasible —
// GridSearch and PrunedSearch recognise it and stream whole subspaces
// through its compiled models.
func ModelEvaluator(model core.AppModel) *CompiledEvaluator {
	return &CompiledEvaluator{
		model: model,
		disks: make(map[diskKey]diskCurves),
		pairs: make(map[pairKey]*compiledEntry),
	}
}

// entry returns the pair's cache slot, creating it on first use.
func (e *CompiledEvaluator) entry(k pairKey) *compiledEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent := e.pairs[k]
	if ent == nil {
		ent = new(compiledEntry)
		e.pairs[k] = ent
	}
	return ent
}

// curves returns the disk's profiled curves, profiling on first use.
func (e *CompiledEvaluator) curves(t cloud.DiskType, size units.ByteSize) diskCurves {
	k := diskKey{t, size}
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.disks[k]
	if !ok {
		d := cloud.NewDisk(t, size)
		c = diskCurves{read: disk.ProfileRead(d, nil), write: disk.ProfileWrite(d, nil)}
		e.disks[k] = c
	}
	return c
}

// pair returns the memory-free compiled model of the spec's device
// pair, compiling on first use.
func (e *CompiledEvaluator) pair(spec cloud.ClusterSpec) (*core.CompiledModel, error) {
	ent := e.entry(pairOf(spec))
	ent.once.Do(func() {
		// The environment core.EnvOf(core.PlatformFor(cfg)) builds, from
		// the memoised curves. The spec's shape feeds ClusterConfig only
		// to satisfy the constructor; DefaultTestbed's software settings
		// (replication, block size) do not depend on it, so the compiled
		// environment is shared across every shape on these devices.
		cfg := spec.ClusterConfig()
		h := e.curves(spec.HDFSType, spec.HDFSSize)
		l := e.curves(spec.LocalType, spec.LocalSize)
		env := core.Env{
			Curves:      core.Curves{HDFSRead: h.read, HDFSWrite: h.write, LocalRead: l.read, LocalWrite: l.write},
			Replication: cfg.HDFSReplication,
			BlockSize:   cfg.HDFSBlockSize,
		}
		ent.cm, ent.err = core.Compile(e.model, env, core.ModeDoppio)
	})
	return ent.cm, ent.err
}

// withHeap derives the variant of a pair's memory-free compile for a
// per-node heap of heapGB; 0 is the memory-free model itself. The
// memory parameters are core.MemParamsFor(spec.ClusterConfig()) for a
// spec with that heap: ClusterConfig sets Memory to exactly
// MemoryConfig{HeapGB: heapGB}, and MemParamsFor reads nothing else.
func withHeap(free *core.CompiledModel, heapGB float64) (*core.CompiledModel, error) {
	if heapGB == 0 {
		return free, nil
	}
	return free.WithMemory(core.MemParamsFor(spark.ClusterConfig{Memory: spark.MemoryConfig{HeapGB: heapGB}}))
}

// compiled returns the spec's compiled model: its pair's compile with
// the spec's heap applied.
func (e *CompiledEvaluator) compiled(spec cloud.ClusterSpec) (*core.CompiledModel, error) {
	free, err := e.pair(spec)
	if err != nil {
		return nil, err
	}
	return withHeap(free, spec.HeapGB)
}

// Evaluate implements SpecEvaluator.
func (e *CompiledEvaluator) Evaluate(spec cloud.ClusterSpec) (time.Duration, error) {
	cm, err := e.compiled(spec)
	if err != nil {
		return 0, err
	}
	return cm.Total(spec.Slaves, spec.VCPUs)
}

// EvaluateBatch implements BatchEvaluator: runs of specs sharing a
// device pair and heap are predicted slab-at-a-time through
// core.CompiledModel.PredictBatch, each run's heap variant derived once
// for the run, and consecutive runs on one pair look the pair up once.
// Shapes stage through a fixed stack buffer, so only the variants
// allocate.
func (e *CompiledEvaluator) EvaluateBatch(specs []cloud.ClusterSpec, out []time.Duration) error {
	if len(out) < len(specs) {
		return fmt.Errorf("optimizer: EvaluateBatch: out has %d slots for %d specs", len(out), len(specs))
	}
	var (
		shapes [128]core.Shape
		free   *core.CompiledModel // freePK's compile
		freePK pairKey
	)
	for i := 0; i < len(specs); {
		pk, heap := pairOf(specs[i]), specs[i].HeapGB
		j := i + 1
		for j < len(specs) && pairOf(specs[j]) == pk && specs[j].HeapGB == heap {
			j++
		}
		if free == nil || pk != freePK {
			var err error
			if free, err = e.pair(specs[i]); err != nil {
				return fmt.Errorf("optimizer: evaluating %v: %w", specs[i], err)
			}
			freePK = pk
		}
		cm, err := withHeap(free, heap)
		if err != nil {
			return fmt.Errorf("optimizer: evaluating %v: %w", specs[i], err)
		}
		for i < j {
			m := j - i
			if m > len(shapes) {
				m = len(shapes)
			}
			for t := 0; t < m; t++ {
				shapes[t] = core.Shape{N: specs[i+t].Slaves, P: specs[i+t].VCPUs}
			}
			if _, err := cm.PredictBatch(shapes[:m], out[i:i+m]); err != nil {
				return fmt.Errorf("optimizer: evaluating %v: %w", specs[i], err)
			}
			i += m
		}
	}
	return nil
}

// pairScope is one search's view of its evaluator, bound to one device
// pair at a time. On a CompiledEvaluator, bind looks the pair's
// compile up once, and each heap variant is derived on first use and
// kept until the next bind; evaluating a spec is then a slice index
// and a core.CompiledModel.Total, with no map lookup and no lock. The
// searches visit each pair's specs contiguously, so every (pair, heap)
// variant is derived at most once per search. Any other evaluator is
// called per spec. A pairScope belongs to one search goroutine.
type pairScope struct {
	eval SpecEvaluator
	ce   *CompiledEvaluator // nil: evaluate through eval
	// heaps is the search's heap axis, in the order heap indices refer
	// to; empty for a memory-free search.
	heaps []float64
	free  *core.CompiledModel   // the bound pair's memory-free compile
	vars  []*core.CompiledModel // vars[h]: its variant for heaps[h], nil until derived
}

func newPairScope(eval SpecEvaluator, heaps []float64) *pairScope {
	s := &pairScope{eval: eval, heaps: heaps}
	if ce, ok := eval.(*CompiledEvaluator); ok {
		s.ce = ce
		s.vars = make([]*core.CompiledModel, len(heaps))
	}
	return s
}

// bind points the scope at spec's device pair.
func (s *pairScope) bind(spec cloud.ClusterSpec) error {
	if s.ce == nil {
		return nil
	}
	free, err := s.ce.pair(spec)
	if err != nil {
		return fmt.Errorf("optimizer: evaluating %v: %w", spec, err)
	}
	s.free = free
	clear(s.vars)
	return nil
}

// evaluate predicts spec, which lies on the bound pair and carries
// heaps[h] (any h in a memory-free search).
func (s *pairScope) evaluate(spec cloud.ClusterSpec, h int) (time.Duration, error) {
	if s.ce == nil {
		return s.eval.Evaluate(spec)
	}
	cm := s.free
	if len(s.heaps) > 0 {
		if cm = s.vars[h]; cm == nil {
			var err error
			if cm, err = withHeap(s.free, s.heaps[h]); err != nil {
				return 0, err
			}
			s.vars[h] = cm
		}
	}
	return cm.Total(spec.Slaves, spec.VCPUs)
}
