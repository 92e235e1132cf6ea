package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/units"
)

// Flow is one in-progress bulk data movement on a shared device (a disk
// or a network link). Flows are the unit of the fluid-level simulation:
// a Spark task's shuffle read of 27 MB is one flow with a 30 KB request
// size, not ~900 individual block reads.
type Flow struct {
	// Name is used in traces and error messages.
	Name string
	// Bytes is the total volume to move.
	Bytes units.ByteSize
	// FullRate is the throughput the device would deliver to this flow if
	// the flow had the whole device to itself and no client-side cap: the
	// device's effective bandwidth at this flow's request size.
	FullRate units.Rate
	// Cap is the client-side per-stream throughput limit (the paper's T,
	// e.g. 60 MB/s per core for shuffle read, which includes the inline
	// decompression cost). Zero means uncapped.
	Cap units.Rate
	// ComputeRate couples per-byte CPU work to the flow: a Spark task
	// alternates small-block I/O with processing at request granularity,
	// so its long-run rate is the harmonic combination of the disk rate
	// it sees and this compute rate. While the flow computes, the device
	// serves other flows — the intra-task interleaving that makes the
	// paper's D/(N·BW) saturation formula exact. Zero means pure I/O.
	ComputeRate units.Rate
	// OnComplete runs (at the completion event) when the flow finishes.
	OnComplete func()

	remaining float64 // bytes
	rate      float64 // current allocated bytes/sec
	last      time.Duration
	res       *FlowResource
	idx       int // index in res.sorted, -1 when done
	started   time.Duration
	done      bool
	// umax is the flow's maximum useful device utilisation,
	// soloRate/FullRate. It depends only on the flow's static fields, so
	// it is computed once at Start and drives the resource's
	// incrementally-maintained demand order.
	umax float64
}

// Rate returns the currently allocated throughput of the flow.
func (f *Flow) Rate() units.Rate { return units.Rate(f.rate) }

// soloRate is the flow's progress rate with the whole device to itself:
// min(Cap, FullRate) harmonically combined with the coupled compute
// rate.
func (f *Flow) soloRate() float64 {
	m := float64(f.FullRate)
	if f.Cap > 0 && float64(f.Cap) < m {
		m = float64(f.Cap)
	}
	if f.ComputeRate > 0 {
		m = 1 / (1/m + 1/float64(f.ComputeRate))
	}
	return m
}

// Remaining returns the bytes not yet transferred (valid between resource
// recomputations; callers inside the engine should treat it as
// approximate).
func (f *Flow) Remaining() units.ByteSize { return units.ByteSize(f.remaining) }

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

// FlowStats is the aggregate accounting a FlowResource keeps, mirroring
// what iostat would report for a device.
type FlowStats struct {
	Flows         int            // completed flows
	Bytes         units.ByteSize // total bytes moved by completed flows
	BusyTime      time.Duration  // time with >=1 active flow (occupancy)
	WeightedBytes float64        // Σ bytes·(bytes / FullRate) for avg request-size style stats
	// UtilSeconds is the device's true service-time integral:
	// Σ rate_i/FullRate_i over time. UtilSeconds/elapsed is iostat's
	// %util, and it differs from occupancy when flows spend part of
	// their life in coupled computation.
	UtilSeconds float64
}

// FlowResource models a shared device with water-filling bandwidth
// allocation. Each active flow i would achieve FullRate_i alone; the
// device constraint is Σ rate_i / FullRate_i <= 1 (utilisation sharing),
// and each flow is additionally capped at Cap_i.
//
// With P identical flows each capped at T on a device with effective
// bandwidth BW this allocates min(T, BW/P) per flow — exactly the
// break-point behaviour b = BW/T in the Doppio model.
type FlowResource struct {
	eng   *Engine
	name  string
	flows []*Flow // arrival order: completion callbacks preserve it
	// sorted holds the active flows ordered by ascending umax (ties in
	// arrival order). It is maintained incrementally — binary insertion
	// on Start, compaction on completion — so reallocate is a single
	// allocation-free pass instead of a per-event sort.
	sorted []*Flow

	timer    Timer
	timerSet bool
	lastBusy time.Duration
	stats    FlowStats
	// finishF is finishReady bound once, so rescheduling the completion
	// timer on every reallocation does not allocate a method value.
	finishF func()
	// doneScratch is finishReady's reusable completed-flow buffer, so
	// the steady-state completion path stays allocation-free.
	doneScratch []*Flow

	// Observer, when non-nil, is notified on every flow start/finish.
	// The profiler uses it for iostat-style accounting.
	Observer func(ev FlowEvent)
}

// FlowEvent describes a flow lifecycle transition for observers.
type FlowEvent struct {
	Time     time.Duration
	Flow     *Flow
	Started  bool // true at start, false at completion
	Duration time.Duration
}

// NewFlowResource creates a resource attached to the engine.
func NewFlowResource(eng *Engine, name string) *FlowResource {
	r := &FlowResource{eng: eng, name: name}
	r.finishF = r.finishReady
	return r
}

// Reset returns the resource to its just-created state for a new
// simulation on its engine (after Engine.Reset): no active flows, no
// pending timer, zeroed statistics. Its storage and Observer are kept.
func (r *FlowResource) Reset() {
	clear(r.flows)
	clear(r.sorted)
	clear(r.doneScratch)
	r.flows, r.sorted, r.doneScratch = r.flows[:0], r.sorted[:0], r.doneScratch[:0]
	r.timer, r.timerSet = Timer{}, false
	r.lastBusy = 0
	r.stats = FlowStats{}
}

// Name returns the resource name.
func (r *FlowResource) Name() string { return r.name }

// Active returns the number of in-progress flows.
func (r *FlowResource) Active() int { return len(r.flows) }

// Stats returns a snapshot of the completed-flow accounting.
func (r *FlowResource) Stats() FlowStats {
	s := r.stats
	if len(r.flows) > 0 {
		s.BusyTime += r.eng.Now() - r.lastBusy
	}
	return s
}

// Start begins a flow on the resource. The flow must have positive Bytes
// and FullRate; a zero-byte flow completes immediately (next event).
func (r *FlowResource) Start(f *Flow) {
	if f.res != nil {
		panic("sim: flow started twice")
	}
	if f.FullRate <= 0 {
		panic(fmt.Sprintf("sim: flow %q on %q has non-positive FullRate", f.Name, r.name))
	}
	if f.Bytes <= 0 {
		// Complete instantly, but asynchronously so callers observe
		// consistent ordering.
		f.done = true
		if f.OnComplete != nil {
			r.eng.After(0, f.OnComplete)
		}
		return
	}
	f.res = r
	f.remaining = float64(f.Bytes)
	f.last = r.eng.Now()
	f.started = f.last
	f.umax = f.soloRate() / float64(f.FullRate)
	if len(r.flows) == 0 {
		r.lastBusy = r.eng.Now()
	}
	r.flows = append(r.flows, f)
	r.insertSorted(f)
	if r.Observer != nil {
		r.Observer(FlowEvent{Time: r.eng.Now(), Flow: f, Started: true})
	}
	r.reallocate()
}

// advance charges elapsed time against every active flow at its current
// rate.
func (r *FlowResource) advance() {
	now := r.eng.Now()
	for _, f := range r.flows {
		dt := (now - f.last).Seconds()
		if dt > 0 {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
			r.stats.UtilSeconds += f.rate * dt / float64(f.FullRate)
		}
		f.last = now
	}
}

// reallocate recomputes the water-filling allocation and schedules the
// next completion event.
func (r *FlowResource) reallocate() {
	r.advance()
	n := len(r.flows)
	if n == 0 {
		if r.timerSet {
			r.timer.Cancel()
			r.timerSet = false
		}
		return
	}

	// Water-fill device utilisation: flow i consumes u_i of the device's
	// time; Σ u_i <= 1. A flow's standalone progress rate is the
	// harmonic combination of its media rate m = min(Cap, FullRate) and
	// its coupled compute rate; only the I/O part occupies the device,
	// so its maximum useful utilisation is r_solo / FullRate. The active
	// flows are kept sorted by that max (r.sorted), so filling is one
	// pass with no per-event sort or scratch allocation.
	remainU := 1.0
	for i, f := range r.sorted {
		share := remainU / float64(n-i)
		u := math.Min(f.umax, share)
		f.rate = u * float64(f.FullRate)
		remainU -= u
	}

	// Schedule completion of the earliest-finishing flow.
	minT := math.Inf(1)
	for _, f := range r.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < minT {
			minT = t
		}
	}
	if math.IsInf(minT, 1) {
		panic(fmt.Sprintf("sim: resource %q deadlocked with %d zero-rate flows", r.name, n))
	}
	// Round up by one tick: the engine clock has nanosecond resolution,
	// and undershooting would leave sub-nanosecond residues that can
	// never drain (advance() would see dt = 0 forever). A pending timer
	// is re-armed in place; it takes a fresh sequence number, so the
	// firing order is the one cancel-then-schedule would give.
	at := r.eng.Now() + units.SecDuration(minT) + time.Nanosecond
	if !r.timerSet || !r.timer.Reset(at) {
		r.timer = r.eng.At(at, r.finishF)
		r.timerSet = true
	}
}

// insertSorted places a newly started flow into the demand order:
// ascending umax, new flow after existing equals (the stable tie-break a
// full re-sort of the arrival list would produce).
func (r *FlowResource) insertSorted(f *Flow) {
	lo, hi := 0, len(r.sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.sorted[mid].umax <= f.umax {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	r.sorted = append(r.sorted, nil)
	copy(r.sorted[lo+1:], r.sorted[lo:])
	r.sorted[lo] = f
	for i := lo; i < len(r.sorted); i++ {
		r.sorted[i].idx = i
	}
}

// removeSorted drops a completed flow from the demand order, preserving
// the relative order of the survivors.
func (r *FlowResource) removeSorted(f *Flow) {
	i := f.idx
	copy(r.sorted[i:], r.sorted[i+1:])
	r.sorted[len(r.sorted)-1] = nil
	r.sorted = r.sorted[:len(r.sorted)-1]
	for ; i < len(r.sorted); i++ {
		r.sorted[i].idx = i
	}
	f.idx = -1
}

// finishReady completes every flow whose remaining volume has drained.
func (r *FlowResource) finishReady() {
	r.timerSet = false
	r.advance()
	done := r.doneScratch[:0]
	kept := r.flows[:0]
	for _, f := range r.flows {
		// A flow is complete when its residue is below an absolute floor
		// or below what one engine clock tick can move — anything smaller
		// can never drain and would spin the event loop.
		eps := 1e-6 + f.rate*2e-9
		if f.remaining <= eps {
			done = append(done, f)
		} else {
			kept = append(kept, f)
		}
	}
	r.flows = kept
	now := r.eng.Now()
	for _, f := range done {
		f.done = true
		f.res = nil
		r.removeSorted(f)
		r.stats.Flows++
		r.stats.Bytes += f.Bytes
		r.stats.WeightedBytes += float64(f.Bytes)
		if r.Observer != nil {
			r.Observer(FlowEvent{Time: now, Flow: f, Started: false, Duration: now - f.started})
		}
	}
	if len(r.flows) == 0 {
		r.stats.BusyTime += now - r.lastBusy
	}
	r.reallocate()
	// Run completions after reallocation so new flows started inside the
	// callbacks see a consistent resource. The scratch buffer is parked
	// back on the resource first: completion callbacks can re-enter
	// Start, but finishReady itself only runs from timer events, never
	// recursively.
	r.doneScratch = done
	for _, f := range done {
		if f.OnComplete != nil {
			f.OnComplete()
		}
	}
}
