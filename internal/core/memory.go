package core

// The t_mem_limit term: a closed-form memory model matching the
// simulator's executor-heap layer (internal/spark/memory.go). In steady
// state the simulator runs P concurrent tasks per node, so a task of
// working set ws reserves against a resident set of (P-1)·ws and spills
// clamp(P·ws - heap, 0, ws) bytes to the Local device (written once,
// re-read once), while completions at occupancy P·ws/heap pay a GC
// pause of GCMaxPause·q² with q the clamped occupancy excess. Summed
// over a stage's groups that yields two candidate limits, mirroring
// Eq. 1's scale/device split:
//
//	t_mem_scale  = Σ_g Count_g/(N·P) · (s_g·c_spill + gc_g)
//	t_mem_device = Σ_g Count_g · s_g·c_spill / N
//	t_mem_limit  = max(t_mem_scale, t_mem_device)
//
// with s_g the per-task spill bytes, c_spill = 1/BW_localWrite +
// 1/BW_localRead at the spill request size (the request-size-aware
// lookup is what makes HDD and SSD spill costs diverge), and gc_g the
// expected per-task GC pause. The term is additive on the stage time:
// spill I/O and GC stalls sit on the critical path no matter which of
// Eq. 1's candidates wins. See docs/MEMORY.md for the derivation.

import (
	"fmt"
	"time"

	"repro/internal/spark"
	"repro/internal/units"
)

// MemParams is the memory-model residue of a cluster configuration:
// everything the t_mem_limit term needs besides the curves and the
// shape. The zero value disables the term, keeping every prediction
// byte-identical to the memory-free model.
type MemParams struct {
	// HeapBytes is the usable executor heap per node. Zero disables the
	// memory term entirely.
	HeapBytes units.ByteSize
	// Expansion scales a task's on-disk I/O bytes into its in-heap
	// working set. Zero means spark.DefaultMemExpansion.
	Expansion float64
	// SpillReqSize selects the Local-device bandwidth operating point
	// for spill traffic. Zero means spark.DefaultSpillReqSize.
	SpillReqSize units.ByteSize
	// GCMaxPause is the per-task stop-the-world pause at full heap
	// occupancy. Zero means spark.DefaultGCMaxPause.
	GCMaxPause time.Duration
	// GCThreshold is the heap occupancy below which collections are
	// free. Zero means spark.DefaultGCThreshold.
	GCThreshold float64
}

// MemParamsFor extracts the memory parameters of a simulator cluster
// configuration, resolving the same defaults the simulator applies so
// model and simulation agree on every knob.
func MemParamsFor(cfg spark.ClusterConfig) MemParams {
	m := cfg.Memory
	if !m.Enabled() {
		return MemParams{}
	}
	return MemParams{
		HeapBytes:    m.HeapBytes(),
		Expansion:    m.ExpansionFactor(),
		SpillReqSize: m.SpillRequestSize(),
		GCMaxPause:   m.GCPauseMax(),
		GCThreshold:  m.GCOccupancyThreshold(),
	}
}

// Enabled reports whether the memory term is active.
func (m MemParams) Enabled() bool { return m.HeapBytes > 0 }

// ExpansionFactor returns the working-set expansion with the default
// applied.
func (m MemParams) ExpansionFactor() float64 {
	if m.Expansion > 0 {
		return m.Expansion
	}
	return spark.DefaultMemExpansion
}

// SpillRequestSize returns the spill request size with the default
// applied.
func (m MemParams) SpillRequestSize() units.ByteSize {
	if m.SpillReqSize > 0 {
		return m.SpillReqSize
	}
	return spark.DefaultSpillReqSize
}

// GCPauseMax returns the full-occupancy pause with the default applied.
func (m MemParams) GCPauseMax() time.Duration {
	if m.GCMaxPause > 0 {
		return m.GCMaxPause
	}
	return units.SecDuration(spark.DefaultGCMaxPause.Seconds())
}

// GCOccupancyThreshold returns the free-GC occupancy bound with the
// default applied.
func (m MemParams) GCOccupancyThreshold() float64 {
	if m.GCThreshold > 0 {
		return m.GCThreshold
	}
	return spark.DefaultGCThreshold
}

// Validate checks the memory parameters.
func (m MemParams) Validate() error {
	switch {
	case m.HeapBytes < 0:
		return fmt.Errorf("core: memory HeapBytes must be >= 0, got %v", m.HeapBytes)
	case m.Expansion < 0:
		return fmt.Errorf("core: memory Expansion must be >= 0, got %v", m.Expansion)
	case m.SpillReqSize < 0:
		return fmt.Errorf("core: memory SpillReqSize must be >= 0, got %v", m.SpillReqSize)
	case m.GCMaxPause < 0:
		return fmt.Errorf("core: memory GCMaxPause must be >= 0, got %v", m.GCMaxPause)
	case m.GCThreshold < 0 || m.GCThreshold > 1:
		return fmt.Errorf("core: memory GCThreshold %v outside [0,1]", m.GCThreshold)
	}
	return nil
}

// memEnv is the curve-resolved residue of MemParams: the scalars the
// per-shape evaluation consumes. The compiled model and the
// classicPredict reference in the tests both evaluate the term through
// this struct, so their floating-point expressions are identical.
type memEnv struct {
	heapF        float64 // usable heap per node, bytes
	spillPerByte float64 // Local-device seconds per spilled byte (write + re-read)
	gcMaxSec     float64
	thr          float64
	expansion    float64
}

// resolve folds the memory parameters against the device curves. The
// second return is false when the term is disabled or the Local curves
// cannot serve the spill request size.
func (m MemParams) resolve(c Curves) (memEnv, bool) {
	if !m.Enabled() || c.LocalRead == nil || c.LocalWrite == nil {
		return memEnv{}, false
	}
	rs := m.SpillRequestSize()
	bwW := float64(c.LocalWrite.Lookup(rs))
	bwR := float64(c.LocalRead.Lookup(rs))
	if bwW <= 0 || bwR <= 0 {
		return memEnv{}, false
	}
	return memEnv{
		heapF:        float64(m.HeapBytes),
		spillPerByte: 1/bwW + 1/bwR,
		gcMaxSec:     m.GCPauseMax().Seconds(),
		thr:          m.GCOccupancyThreshold(),
		expansion:    m.ExpansionFactor(),
	}, true
}

// ioBytes is the group's per-task I/O volume.
func (g GroupModel) ioBytes() units.ByteSize {
	var io units.ByteSize
	for _, op := range g.Ops {
		if op.Kind.IsIO() {
			io += op.BytesPerTask
		}
	}
	return io
}

// groupTerms returns one group's contribution to the two t_mem_limit
// candidates: the per-wave critical-path seconds (spill latency plus
// expected GC pause, over Count/(N·P) waves) and the per-node device
// seconds of the group's total spill volume. Shared by the compiled
// model and classicPredict; the expression order here defines the term.
func (me memEnv) groupTerms(count, ws, nf, pf float64) (scaleSec, devSec float64) {
	if ws <= 0 {
		return 0, 0
	}
	// Steady-state spill per task: the wave holds P working sets against
	// the heap and each task owns at most its own set of the overflow.
	wave := pf * ws
	spill := wave - me.heapF
	if spill < 0 {
		spill = 0
	} else if spill > ws {
		spill = ws
	}
	var gcSec float64
	if me.thr < 1 && me.heapF > 0 {
		q := (wave/me.heapF - me.thr) / (1 - me.thr)
		if q > 1 {
			q = 1
		}
		if q > 0 {
			gcSec = me.gcMaxSec * q * q
		}
	}
	spillSec := spill * me.spillPerByte
	return count / (nf * pf) * (spillSec + gcSec), count * spillSec / nf
}
