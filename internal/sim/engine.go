// Package sim provides a small discrete-event simulation engine plus the
// flow-level shared-bandwidth resource used to model disks and network
// links.
//
// The engine is deliberately minimal: a virtual clock and a time-ordered
// event queue. Higher-level abstractions (CorePool for executor cores,
// FlowResource for bandwidth water-filling) are built on top, and the
// Spark cluster simulator in internal/spark composes those.
//
// Events fire in one total order, (time, phase<<63|seq), and most of
// them never touch a heap. An event goes to a FIFO lane when its place
// in that order holds by construction: a phase-0 event at the current
// instant (core hand-offs, zero-delay completions), a late event at the
// current instant (end-of-instant finalizers), or a phase-0 event
// exactly the engine's fixed delay after the current instant (see
// SetFixedDelay: the clock never runs backwards, so such events arrive
// in firing order). Each lane is a ring buffer, so its footprint is its
// peak occupancy. The remaining events go to a typed 4-ary heap of
// pointer-free slots that carry their sort key inline, so sifting never
// calls through an interface, never dereferences an event to compare,
// and never triggers a GC write barrier. RunUntil pops the smallest of
// the heap top and the lane heads under the same total order, so the
// pop sequence is exactly the one a single heap would give.
//
// The event loop is allocation-free in steady state. Events live in an
// index arena: fired and cancelled events return to a free-list and are
// recycled by later schedules, so a simulation's event footprint is its
// peak concurrency, not its event count. A cancelled lane event stays
// in its lane as a tombstone, holding its arena slot, until it reaches
// the lane head. Timers carry a generation number so a stale Timer for
// a recycled event is a safe no-op. Reset empties an engine for another
// simulation while keeping all of that storage.
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
	pos int32 // heap index, or one of the pos* markers below
}

// Event positions other than a heap index.
const (
	posFree int32 = -1 // not queued
	posDead int32 = -2 // cancelled, still held by its lane as a tombstone
	posLane int32 = -3 // queued in lane i: posLane - i
)

// Lane indices, and pop's source index for the heap top.
const (
	laneNow   = 0 // phase-0 events at the current instant
	laneLate  = 1 // late events at the current instant
	laneFixed = 2 // phase-0 events the fixed delay after their schedule
	heapSrc   = -1
)

// slot is one queue entry. The sort key is held inline — time, then
// phase<<63|seq — so ordering never touches the event arena.
//
// phase orders events within one instant: normal events (phase 0) run
// before late ones (phase 1, scheduled via AtLate). Late events are
// end-of-instant finalizers — they observe every normal event's effects
// at their timestamp, which is what makes the Spark runner's
// stage-completion bookkeeping independent of event arrival order (see
// internal/spark). seq is the FIFO tie-break among same-time,
// same-phase events, so (at, key) is a total order and the pop sequence
// does not depend on the heap's shape or on which lane holds an event.
type slot struct {
	at  time.Duration
	key uint64
	id  int32 // index into Engine.events
}

const latePhase = 1 << 63

func (a slot) less(b slot) bool {
	return a.at < b.at || (a.at == b.at && a.key < b.key)
}

// lane is a FIFO ring of slots that arrive in (at, key) order. Its
// length is a power of two, so wrapping is a mask.
type lane struct {
	buf  []slot
	head int
	n    int
}

func (l *lane) push(s slot) {
	if l.n == len(l.buf) {
		n := 2 * len(l.buf)
		if n < 8 {
			n = 8
		}
		grown := make([]slot, n)
		for i := 0; i < l.n; i++ {
			grown[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
		}
		l.buf, l.head = grown, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = s
	l.n++
}

func (l *lane) pop() {
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; all callbacks run on the goroutine that calls Run.
type Engine struct {
	now    time.Duration
	heap   []slot  // 4-ary min-heap on (at, key)
	events []event // arena; queue slots and Timers index it
	free   []int32 // recycled arena indices
	seq    uint64
	laned  int // lane entries, tombstones included
	dead   int // tombstones still held by lanes
	steps  uint64
	// running guards against re-entrant Run and Reset.
	running bool
	// MaxSteps bounds the number of processed events; 0 means unlimited.
	// It exists as a runaway-loop backstop for property tests.
	MaxSteps uint64
	lanes    [3]lane
	fixed    time.Duration // SetFixedDelay's delay; 0 means none
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// NewEngineSized returns an engine whose event heap, arena and free-list
// are pre-sized for roughly hint concurrently pending events, avoiding
// re-growth in large simulations. The hint is only a capacity; the
// engine grows past it transparently.
func NewEngineSized(hint int) *Engine {
	e := &Engine{}
	e.Reserve(hint)
	return e
}

// Reserve grows the heap, arena and free-list capacity to at least hint
// pending events. It never shrinks them.
func (e *Engine) Reserve(hint int) {
	if hint > cap(e.heap) {
		grown := make([]slot, len(e.heap), hint)
		copy(grown, e.heap)
		e.heap = grown
	}
	if hint > cap(e.events) {
		// Copy up to the old capacity: slots past len keep the
		// generations a Reset left them (see alloc).
		grown := make([]event, hint)
		copy(grown, e.events[:cap(e.events)])
		e.events = grown[:len(e.events)]
	}
	if hint > cap(e.free) {
		grown := make([]int32, len(e.free), hint)
		copy(grown, e.free)
		e.free = grown
	}
}

// Reset empties the engine for another simulation: every pending event
// is dropped and the clock, step count and FIFO sequence return to
// zero, while the heap, lanes and arena keep their storage. Timers
// issued before the Reset become stale no-ops. MaxSteps and the fixed
// delay are kept.
func (e *Engine) Reset() {
	if e.running {
		panic("sim: Reset during Run")
	}
	// Bumping every generation invalidates outstanding Timers. The
	// arena is truncated but not reallocated: alloc reslices into the
	// old slots, generations included, in the order a fresh engine
	// would hand out indices.
	for i := range e.events {
		ev := &e.events[i]
		ev.fn, ev.fnArg = nil, nil
		ev.gen++
		ev.pos = posFree
	}
	e.events = e.events[:0]
	e.free = e.free[:0]
	e.heap = e.heap[:0]
	for i := range e.lanes {
		e.lanes[i].head, e.lanes[i].n = 0, 0
	}
	e.now, e.seq, e.steps, e.laned, e.dead = 0, 0, 0, 0, 0
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Steps reports how many events have been processed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Timer identifies a scheduled event so it can be cancelled or re-armed.
// The zero Timer is valid and cancels nothing.
type Timer struct {
	eng *Engine
	id  int32
	gen uint64
}

// Cancel prevents the event from firing. A heap event's storage returns
// to the engine's free-list at once; a lane event becomes a tombstone
// that its lane discards on reaching the head. Cancelling an
// already-fired, already-cancelled or zero timer is a no-op.
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
	if ev.pos >= 0 {
		e.removeAt(int(ev.pos))
		e.recycle(t.id)
		return
	}
	// A lane cannot drop an entry from its middle. The arena slot stays
	// with the tombstone so the lane entry cannot alias a reused event.
	ev.fn, ev.fnArg = nil, nil
	ev.gen++
	ev.pos = posDead
	e.dead++
}

// Reset re-arms a pending event to fire at absolute time at, in its
// original phase, exactly as cancelling it and scheduling its callback
// afresh would: it takes a new FIFO sequence number, so it fires after
// every event already scheduled for the same instant. A heap event is
// re-keyed and sifted in place; a lane event is replaced by a new
// event, and t is updated to it. Reset reports false, and does nothing,
// when the timer has already fired or been cancelled. Re-arming into
// the past panics, as scheduling there does.
func (t *Timer) Reset(at time.Duration) bool {
	e := t.eng
	if e == nil {
		return false
	}
	ev := &e.events[t.id]
	if ev.gen != t.gen {
		return false
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: re-arming at %v before now %v", at, e.now))
	}
	if ev.pos < 0 {
		var phase uint64
		if ev.pos == posLane-laneLate {
			phase = latePhase
		}
		fn, fnArg, arg := ev.fn, ev.fnArg, ev.arg
		t.Cancel()
		*t = e.schedule(at, phase, fn, fnArg, arg)
		return true
	}
	i := int(ev.pos)
	s := e.heap[i]
	s.at = at
	s.key = s.key&latePhase | e.seq
	e.seq++
	if i > 0 && s.less(e.heap[(i-1)/4]) {
		e.up(i, s)
	} else {
		e.down(i, s)
	}
	return true
}

// recycle wipes an event and pushes it onto the free-list. Bumping gen
// invalidates every outstanding Timer for the old incarnation.
func (e *Engine) recycle(id int32) {
	ev := &e.events[id]
	ev.fn, ev.fnArg = nil, nil
	ev.gen++
	ev.pos = posFree
	e.free = append(e.free, id)
}

// grow appends an arena slot. Reslicing into spare capacity (rather
// than appending a zero event) keeps the generation a Reset bumped, so
// pre-Reset Timers stay stale.
func (e *Engine) grow() int32 {
	id := int32(len(e.events))
	if len(e.events) < cap(e.events) {
		e.events = e.events[:id+1]
	} else {
		e.events = append(e.events, event{})
	}
	return id
}

// schedule queues a callback at absolute time t in the given phase
// (0 or latePhase). An event at the current instant goes to its phase's
// same-instant lane, a phase-0 event the fixed delay from now to the
// fixed lane, and any other to the heap. Scheduling in the past panics:
// it is always a logic error in a DES.
func (e *Engine) schedule(t time.Duration, phase uint64, fn func(), fnArg func(int), arg int) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		id = e.grow()
	}
	ev := &e.events[id]
	ev.fn, ev.fnArg, ev.arg = fn, fnArg, arg
	s := slot{at: t, key: phase | e.seq, id: id}
	e.seq++
	// Every entry of a lane arrives in (at, key) order. A same-instant
	// lane's entries are all at now with rising sequence numbers, and
	// the clock cannot pass now while the lane holds one, since it is a
	// minimum. The fixed lane's entries are at their schedule time plus
	// the fixed delay, and schedule times never fall.
	var li int
	switch {
	case t == e.now && phase == 0:
		li = laneNow
	case t == e.now:
		li = laneLate
	case t-e.now == e.fixed && phase == 0:
		li = laneFixed
	default:
		e.heap = append(e.heap, s)
		e.up(len(e.heap)-1, s)
		return Timer{eng: e, id: id, gen: ev.gen}
	}
	e.lanes[li].push(s)
	e.laned++
	ev.pos = posLane - int32(li)
	return Timer{eng: e, id: id, gen: ev.gen}
}

// SetFixedDelay names a delay whose events skip the heap: from now on a
// phase-0 event scheduled exactly d after the current time, by any of
// At, After or AfterArg, goes to a FIFO lane. A simulation whose events
// mostly wait one constant (a task launch overhead, say) sets it to that
// constant. Firing order does not change. d <= 0 names none. Changing
// the delay while events are queued at the old one panics.
func (e *Engine) SetFixedDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if d != e.fixed && e.lanes[laneFixed].n > 0 {
		panic("sim: SetFixedDelay with events queued at the old delay")
	}
	e.fixed = d
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

// pop dequeues the earliest event under (at, key) into top, from the
// heap top or a lane head, if it is due by deadline. Tombstones at lane
// heads are discarded on the way.
func (e *Engine) pop(deadline time.Duration, top *slot) bool {
	var s slot
	src, ok := heapSrc, false
	if len(e.heap) > 0 {
		s, ok = e.heap[0], true
	}
	for i := range e.lanes {
		if h, live := e.laneHead(&e.lanes[i]); live && (!ok || h.less(s)) {
			s, src, ok = h, i, true
		}
	}
	if !ok || s.at > deadline {
		return false
	}
	if src == heapSrc {
		e.removeAt(0)
	} else {
		e.lanes[src].pop()
		e.laned--
	}
	*top = s
	return true
}

// laneHead returns l's first live entry, discarding the tombstones
// before it.
func (e *Engine) laneHead(l *lane) (slot, bool) {
	for l.n > 0 {
		h := l.buf[l.head]
		if e.dead == 0 || e.events[h.id].pos != posDead {
			return h, true
		}
		l.pop()
		e.laned--
		e.dead--
		e.events[h.id].pos = posFree
		e.free = append(e.free, h.id)
	}
	return slot{}, false
}

// Run processes events until none is pending (or MaxSteps is hit).
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
	for {
		var top slot
		if e.laned == 0 {
			// Only the heap holds events.
			if len(e.heap) == 0 || e.heap[0].at > deadline {
				break
			}
			top = e.heap[0]
			e.removeAt(0)
		} else if !e.pop(deadline, &top) {
			break
		}
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

// Pending reports the number of not-yet-fired events: the heap and
// lane entries minus the lanes' tombstones of cancelled events, in
// O(1).
func (e *Engine) Pending() int {
	return len(e.heap) + e.laned - e.dead
}
