package spark

import (
	"time"

	"repro/internal/units"
)

// reserveMem charges an attempt's working set against its node's heap
// and decides, deterministically, how much of it spills: the overflow
// above the heap, clamped to the task's own set. Counterpart of
// releaseMem, which every attempt exit path calls.
func (r *runner) reserveMem(st *stageState, a *attempt) {
	ws := r.cfg.Memory.TaskWorkingSet(a.g)
	if ws <= 0 {
		return
	}
	a.spill = spillFor(a.nd.resident, ws, r.cfg.Memory.HeapBytes())
	a.nd.resident += ws
	a.memBytes = ws
	if a.nd.resident > r.res.Mem.PeakResident {
		r.res.Mem.PeakResident = a.nd.resident
	}
	if st.res.Mem.PeakResident < a.nd.resident {
		st.res.Mem.PeakResident = a.nd.resident
	}
	if a.spill > 0 {
		st.res.Mem.SpilledTasks++
		r.res.Mem.SpilledTasks++
		st.res.Mem.SpillBytes += a.spill
		r.res.Mem.SpillBytes += a.spill
	}
}

// releaseMem returns an attempt's working-set reservation to its node.
// Safe to call on every exit path: it is a no-op once released or when
// nothing was reserved.
func (r *runner) releaseMem(a *attempt) {
	if a.memBytes > 0 {
		a.nd.resident -= a.memBytes
		a.memBytes = 0
	}
}

// memGate defers f to the end of the node's in-progress GC pause, if
// one is stalling its cores. Reports whether f was deferred.
func (r *runner) memGate(nd *node, f func()) bool {
	if until := nd.gcUntil; r.eng.Now() < until {
		r.eng.At(until, f)
		return true
	}
	return false
}

// execSpill runs one spill write or re-read for an attempt's overflow
// through the regular device path, so the Local curve's request-size
// behavior (and iostat accounting) applies to spill traffic too. The
// spill op takes the attempt's curOp and opStart, which are free: a
// write runs before the first op and a re-read after the last. A spill
// op is one flow on the Local device, so spillDoneF fires once.
func (r *runner) execSpill(a *attempt, kind OpKind) {
	a.curOp = Op{Kind: kind, Bytes: a.spill, ReqSize: r.cfg.Memory.SpillRequestSize()}
	a.opStart = r.eng.Now()
	r.startOp(a.st, a.nd, a.curOp, &a.flow, &a.netFlow, a.spillDoneF)
}

// spillDone accounts a completed spill op, then begins the op walk
// after a write or charges the GC pause after a re-read.
func (a *attempt) spillDone() {
	r := a.r
	r.accountIO(a.st, a.nd, a.curOp, r.eng.Now()-a.opStart)
	if a.curOp.Kind == OpSpillWrite {
		a.step()
		return
	}
	a.memGC()
}

// memEpilogue runs between an attempt's last op and finish: the spill
// re-read (the overflow must come back from the Local device to emit
// the task's output), then the occupancy-driven GC pause (memGC).
func (r *runner) memEpilogue(a *attempt) {
	if a.spill > 0 && !a.task.done {
		r.execSpill(a, OpSpillRead)
		return
	}
	a.memGC()
}

// memGC charges the GC pause a completing attempt triggers, then
// finishes it. The pause holds this core directly and stalls the node's
// other cores through gcUntil + memGate. Occupancy is sampled before the
// release — the collection happens under the completing wave's full
// pressure.
func (a *attempt) memGC() {
	r, st := a.r, a.st
	pause := r.gcPause(st, a)
	r.releaseMem(a)
	if pause <= 0 {
		a.finish()
		return
	}
	until := r.eng.Now() + pause
	if until > a.nd.gcUntil {
		a.nd.gcUntil = until
	}
	st.res.Mem.GCPauses++
	r.res.Mem.GCPauses++
	st.res.Mem.GCStall += pause
	r.res.Mem.GCStall += pause
	r.eng.After(pause, a.finishF)
}

// gcPause returns the stop-the-world pause a completing attempt
// triggers at its node's current heap occupancy: zero below the
// threshold, a quadratic ramp above it, spread ±15% by a seeded
// deterministic draw (same splitmix64 family as jitter and faults).
func (r *runner) gcPause(st *stageState, a *attempt) time.Duration {
	heap := r.cfg.Memory.HeapBytes()
	if heap <= 0 || a.memBytes == 0 {
		return 0
	}
	occ := float64(a.nd.resident) / float64(heap)
	q := r.cfg.Memory.gcFraction(occ)
	if q <= 0 {
		return 0
	}
	u := r.hash01(st.idx, a.taskIdx, saltGC)
	spread := 1 - memGCSpread + 2*memGCSpread*u
	return units.SecDuration(q * spread * r.cfg.Memory.GCPauseMax().Seconds())
}
