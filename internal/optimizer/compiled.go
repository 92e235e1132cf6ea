package optimizer

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/units"
)

// deviceKey identifies a compiled environment. Everything else in a
// ClusterSpec is cluster shape (Slaves, VCPUs), which the compiled
// model takes per prediction: the testbed software configuration
// (replication, block size) is constant across shapes, so two specs
// with the same provisioned devices — and the same heap, which feeds
// the environment's t_mem_limit parameters — share one compilation.
type deviceKey struct {
	hdfsType  cloud.DiskType
	hdfsSize  units.ByteSize
	localType cloud.DiskType
	localSize units.ByteSize
	heapGB    float64
}

func keyOf(spec cloud.ClusterSpec) deviceKey {
	return deviceKey{spec.HDFSType, spec.HDFSSize, spec.LocalType, spec.LocalSize, spec.HeapGB}
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

// compiledEntry is one environment's lazily-compiled model. The
// sync.Once gives singleflight semantics: concurrent evaluations of
// the same device combination compile once.
type compiledEntry struct {
	once sync.Once
	cm   *core.CompiledModel
	err  error
}

// CompiledEvaluator evaluates cluster specs through the compiled
// analytical fast path. Each disk is profiled once, the first time a
// spec provisions it; each device pair is compiled once, memory-free,
// and each heap on that pair is derived from that compile with
// core.CompiledModel.WithMemory. Every later evaluation against those
// devices is a handful of floating-point operations per stage,
// allocation-free via EvaluateBatch. Safe for concurrent use.
//
// Results are byte-identical to the per-point path
// (AppModel.Predict on core.PlatformFor(spec.ClusterConfig())).
type CompiledEvaluator struct {
	model core.AppModel
	// mu guards the maps; compilation itself runs outside it, under
	// the entry's Once.
	mu      sync.Mutex
	disks   map[diskKey]diskCurves
	mems    map[float64]core.MemParams // by HeapGB
	entries map[deviceKey]*compiledEntry
}

// ModelEvaluator builds the evaluator the Section VI searches run on:
// the calibrated Doppio model behind a per-device-combination compile
// cache. This is what makes exploring 10^5-10^6 configurations
// feasible — GridSearch and PrunedSearch recognise the batch interface
// and stream whole subspaces through it.
func ModelEvaluator(model core.AppModel) *CompiledEvaluator {
	return &CompiledEvaluator{
		model:   model,
		disks:   make(map[diskKey]diskCurves),
		mems:    make(map[float64]core.MemParams),
		entries: make(map[deviceKey]*compiledEntry),
	}
}

// entry returns the environment's cache slot, creating it on first
// use.
func (e *CompiledEvaluator) entry(k deviceKey) *compiledEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent := e.entries[k]
	if ent == nil {
		ent = new(compiledEntry)
		e.entries[k] = ent
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

// memParams returns the memory parameters of the spec's heap, derived
// once per heap size: they depend on nothing else in the spec.
func (e *CompiledEvaluator) memParams(spec cloud.ClusterSpec) core.MemParams {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, ok := e.mems[spec.HeapGB]
	if !ok {
		m = core.MemParamsFor(spec.ClusterConfig())
		e.mems[spec.HeapGB] = m
	}
	return m
}

// compiled returns the environment's compiled model, compiling on
// first use.
func (e *CompiledEvaluator) compiled(spec cloud.ClusterSpec) (*core.CompiledModel, error) {
	k := keyOf(spec)
	ent := e.entry(k)
	ent.once.Do(func() {
		if k.heapGB != 0 {
			// A heap changes only the t_mem_limit parameters: derive it
			// from the device pair's memory-free compile.
			free := spec
			free.HeapGB = 0
			cm, err := e.compiled(free)
			if err != nil {
				ent.err = err
				return
			}
			ent.cm, ent.err = cm.WithMemory(e.memParams(spec))
			return
		}
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

// Evaluate implements SpecEvaluator.
func (e *CompiledEvaluator) Evaluate(spec cloud.ClusterSpec) (time.Duration, error) {
	cm, err := e.compiled(spec)
	if err != nil {
		return 0, err
	}
	return cm.Total(spec.Slaves, spec.VCPUs)
}

// EvaluateBatch implements BatchEvaluator: runs of specs sharing a
// device combination are predicted slab-at-a-time through
// core.CompiledModel.PredictBatch. Steady state performs no heap
// allocation (shapes stage through a fixed stack buffer).
func (e *CompiledEvaluator) EvaluateBatch(specs []cloud.ClusterSpec, out []time.Duration) error {
	if len(out) < len(specs) {
		return fmt.Errorf("optimizer: EvaluateBatch: out has %d slots for %d specs", len(out), len(specs))
	}
	var shapes [128]core.Shape
	for i := 0; i < len(specs); {
		k := keyOf(specs[i])
		j := i + 1
		for j < len(specs) && keyOf(specs[j]) == k {
			j++
		}
		cm, err := e.compiled(specs[i])
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
