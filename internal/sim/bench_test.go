package sim

// Micro-benchmarks for the simulation core, gated by the bench-regression
// CI job against docs/BENCH_simcore.json (allocs/op must stay flat; see
// docs/PERF.md for how to refresh the baseline).

import (
	"testing"
	"time"

	"repro/internal/units"
)

// BenchmarkEngineEventLoop measures the schedule→fire round trip of a
// sequential event chain; the free-list and the once-bound callback make
// it allocation-free.
func BenchmarkEngineEventLoop(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < b.N {
			e.After(time.Microsecond, chain)
		}
	}
	e.After(time.Microsecond, chain)
	e.Run()
}

// BenchmarkEngineTimerCancel measures schedule+cancel, the flow
// resource's hottest pattern (every reallocation replaces its timer).
func BenchmarkEngineTimerCancel(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Second, func() {}).Cancel()
	}
	if e.Pending() != 0 {
		b.Fatalf("pending = %d", e.Pending())
	}
}

// BenchmarkFlowChurn measures a saturated device with flows arriving and
// completing continuously — the incremental water-filling hot path.
func BenchmarkFlowChurn(b *testing.B) {
	const concurrent = 32
	e := NewEngine()
	r := NewFlowResource(e, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	started := 0
	var start func()
	start = func() {
		started++
		if started > b.N {
			return
		}
		r.Start(&Flow{
			Name:       "f",
			Bytes:      8 * units.MB,
			FullRate:   units.MBps(500),
			Cap:        units.MBps(60),
			OnComplete: start,
		})
	}
	for i := 0; i < concurrent; i++ {
		start()
	}
	e.Run()
}

// corePoolBurst is how many acquirers one BenchmarkCorePoolAcquireRelease
// op queues.
const corePoolBurst = 1024

// BenchmarkCorePoolAcquireRelease measures the FIFO core queue under
// sustained handoff: each op queues corePoolBurst waiters behind 16
// cores of a fresh engine and pool, with one callback bound per op, and
// drains them. Starting fresh makes B/op independent of b.N: it is the
// ring's growth to corePoolBurst entries (~32 KiB at 16 bytes per
// entry) plus the engine's and pool's fixed setup, so a wider queue
// entry shows up directly.
func BenchmarkCorePoolAcquireRelease(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		p := NewCorePool(e, 16)
		done := 0
		run := func(int) {
			done++
			p.Release()
		}
		for k := 0; k < corePoolBurst; k++ {
			p.Acquire(run, k)
		}
		e.Run()
		if done != corePoolBurst {
			b.Fatalf("ran %d of %d", done, corePoolBurst)
		}
	}
}
