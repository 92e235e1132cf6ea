// Package sim provides a small discrete-event simulation engine plus the
// flow-level shared-bandwidth resource used to model disks and network
// links.
//
// The engine is deliberately minimal: a virtual clock and a time-ordered
// event heap. Higher-level abstractions (CorePool for executor cores,
// FlowResource for bandwidth water-filling) are built on top, and the
// Spark cluster simulator in internal/spark composes those.
//
// The event loop is allocation-free in steady state. Events live in an
// index arena: fired and cancelled events return to a free-list and are
// recycled by later schedules, so a simulation's event footprint is its
// peak concurrency, not its event count. The heap itself is a typed
// 4-ary heap of pointer-free slots that carry their sort key inline, so
// sifting never calls through an interface, never dereferences an event
// to compare, and never triggers a GC write barrier. Timers carry a
// generation number so a stale Timer for a recycled event is a safe
// no-op.
package sim

import (
	"fmt"
	"time"
)

// event is a scheduled callback. Exactly one of fn and fnArg is set;
// fnArg(arg) is the closure-free form used for per-item callbacks (see
// AfterArg and CorePool.Acquire).
type event struct {
	fn    func()
	fnArg func(int)
	arg   int
	// gen increments every time the event is recycled through the
	// free-list; Timers snapshot it so cancelling a stale handle cannot
	// touch an unrelated reused event.
	gen uint64
	pos int32 // heap index, -1 when not queued
}

// slot is one heap entry. The sort key is held inline — time, then
// phase<<63|seq — so ordering never touches the event arena.
//
// phase orders events within one instant: normal events (phase 0) run
// before late ones (phase 1, scheduled via AtLate). Late events are
// end-of-instant finalizers — they observe every normal event's effects
// at their timestamp, which is what makes the Spark runner's
// stage-completion bookkeeping independent of event arrival order (see
// internal/spark). seq is the FIFO tie-break among same-time,
// same-phase events, so (at, key) is a total order and the pop sequence
// does not depend on the heap's shape.
type slot struct {
	at  time.Duration
	key uint64
	id  int32 // index into Engine.events
}

const latePhase = 1 << 63

func (a slot) less(b slot) bool {
	return a.at < b.at || (a.at == b.at && a.key < b.key)
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; all callbacks run on the goroutine that calls Run.
type Engine struct {
	now     time.Duration
	heap    []slot  // 4-ary min-heap on (at, key)
	events  []event // arena; heap slots and Timers index it
	free    []int32 // recycled arena indices
	seq     uint64
	running bool
	steps   uint64
	// MaxSteps bounds the number of processed events; 0 means unlimited.
	// It exists as a runaway-loop backstop for property tests.
	MaxSteps uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// NewEngineSized returns an engine whose event heap, arena and free-list
// are pre-sized for roughly hint concurrently pending events, avoiding
// re-growth in large simulations. The hint is only a capacity; the
// engine grows past it transparently.
func NewEngineSized(hint int) *Engine {
	if hint < 0 {
		hint = 0
	}
	return &Engine{
		heap:   make([]slot, 0, hint),
		events: make([]event, 0, hint),
		free:   make([]int32, 0, hint),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Steps reports how many events have been processed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Timer identifies a scheduled event so it can be cancelled. The zero
// Timer is valid and cancels nothing.
type Timer struct {
	eng *Engine
	id  int32
	gen uint64
}

// Cancel prevents the event from firing and immediately returns its
// storage to the engine's free-list. Cancelling an already-fired,
// already-cancelled or zero timer is a no-op.
func (t Timer) Cancel() {
	e := t.eng
	if e == nil {
		return // zero Timer
	}
	ev := &e.events[t.id]
	if ev.gen != t.gen {
		return // already fired or cancelled (and possibly recycled)
	}
	// A matching generation means the event is still queued: firing
	// recycles it (bumping gen) before its callback runs.
	e.removeAt(int(ev.pos))
	e.recycle(t.id)
}

// recycle wipes an event and pushes it onto the free-list. Bumping gen
// invalidates every outstanding Timer for the old incarnation.
func (e *Engine) recycle(id int32) {
	ev := &e.events[id]
	ev.fn, ev.fnArg = nil, nil
	ev.gen++
	ev.pos = -1
	e.free = append(e.free, id)
}

// schedule queues a callback at absolute time t in the given phase
// (0 or latePhase). Scheduling in the past panics: it is always a logic
// error in a DES.
func (e *Engine) schedule(t time.Duration, phase uint64, fn func(), fnArg func(int), arg int) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		id = int32(len(e.events))
		e.events = append(e.events, event{})
	}
	ev := &e.events[id]
	ev.fn, ev.fnArg, ev.arg = fn, fnArg, arg
	s := slot{at: t, key: phase | e.seq, id: id}
	e.seq++
	e.heap = append(e.heap, s)
	e.up(len(e.heap)-1, s)
	return Timer{eng: e, id: id, gen: ev.gen}
}

// up sifts s toward the root from hole i, recording every moved slot's
// new position in the arena.
func (e *Engine) up(i int, s slot) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 4
		ps := h[p]
		if !s.less(ps) {
			break
		}
		h[i] = ps
		e.events[ps.id].pos = int32(i)
		i = p
	}
	h[i] = s
	e.events[s.id].pos = int32(i)
}

// down sifts s toward the leaves from hole i.
func (e *Engine) down(i int, s slot) {
	h := e.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].less(h[m]) {
				m = j
			}
		}
		if !h[m].less(s) {
			break
		}
		h[i] = h[m]
		e.events[h[i].id].pos = int32(i)
		i = m
	}
	h[i] = s
	e.events[s.id].pos = int32(i)
}

// removeAt deletes the slot at heap index i, refilling the hole with
// the last slot.
func (e *Engine) removeAt(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	if i > 0 && last.less(e.heap[(i-1)/4]) {
		e.up(i, last)
	} else {
		e.down(i, last)
	}
}

// At schedules fn to run at absolute virtual time t.
func (e *Engine) At(t time.Duration, fn func()) Timer {
	return e.schedule(t, 0, fn, nil, 0)
}

// AtLate schedules fn at absolute virtual time t in the late phase:
// after every normal event with the same timestamp, however those
// events were enqueued. Among themselves, late events keep FIFO order.
// Use it for end-of-instant finalizers that must see a settled state.
func (e *Engine) AtLate(t time.Duration, fn func()) Timer {
	return e.schedule(t, latePhase, fn, nil, 0)
}

// After schedules fn to run d after the current time. Negative d is
// clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.schedule(e.now+d, 0, fn, nil, 0)
}

// AfterArg is After for a callback taking an int: fn(arg) runs d after
// the current time. Binding fn once and varying arg schedules per-item
// work (a queued task, say) without allocating a closure per item.
func (e *Engine) AfterArg(d time.Duration, fn func(int), arg int) Timer {
	if d < 0 {
		d = 0
	}
	return e.schedule(e.now+d, 0, nil, fn, arg)
}

// Run processes events until the heap is empty (or MaxSteps is hit).
// It returns the final virtual time.
func (e *Engine) Run() time.Duration {
	return e.RunUntil(time.Duration(1<<63 - 1))
}

// RunUntil processes events with timestamps <= deadline and advances the
// clock to min(deadline, time of last event). It returns the clock.
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.heap) > 0 {
		top := e.heap[0]
		if top.at > deadline {
			break
		}
		e.removeAt(0)
		e.now = top.at
		e.steps++
		if e.MaxSteps > 0 && e.steps > e.MaxSteps {
			panic(fmt.Sprintf("sim: exceeded MaxSteps=%d (runaway simulation?)", e.MaxSteps))
		}
		ev := &e.events[top.id]
		fn, fnArg, arg := ev.fn, ev.fnArg, ev.arg
		// Recycle before running the callback: it commonly schedules a
		// follow-up event, which then reuses this slot instead of
		// growing the arena. The Timer generation check keeps this safe.
		e.recycle(top.id)
		if fn != nil {
			fn()
		} else {
			fnArg(arg)
		}
	}
	return e.now
}

// Pending reports the number of not-yet-fired events. Cancelled events
// leave the heap eagerly, so this is the live heap size — O(1).
func (e *Engine) Pending() int {
	return len(e.heap)
}
