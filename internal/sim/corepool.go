package sim

import "time"

// CorePool models a node's executor cores: a counting resource with a
// FIFO wait queue. Spark tasks hold one core for their entire lifetime
// (including while blocked on I/O), which is exactly how a Spark executor
// thread behaves and is what makes the paper's pipeline-overlap analysis
// interesting.
type CorePool struct {
	eng      *Engine
	capacity int
	inUse    int
	// queue is a ring buffer of waiting acquirers: popping from the
	// head advances an index instead of reslicing, so a long-lived pool
	// keeps one steady-state allocation no matter how many dispatches
	// pass through it (the naive queue[1:] reslice marches the backing
	// array forward and reallocates on every wave). An entry is a
	// callback plus its argument, so callers bind the callback once and
	// queue per-item work without a closure per item.
	queue  []waiter
	head   int
	queued int

	busyCoreSeconds float64
	lastChange      time.Duration
}

// waiter is one queued acquirer: fn(arg) runs once it holds a core.
type waiter struct {
	fn  func(int)
	arg int
}

// NewCorePool creates a pool with the given number of cores.
func NewCorePool(eng *Engine, capacity int) *CorePool {
	if capacity <= 0 {
		panic("sim: core pool needs positive capacity")
	}
	return &CorePool{eng: eng, capacity: capacity}
}

// Reset returns the pool to its just-created state with the given
// capacity, for a new simulation on its engine (after Engine.Reset):
// no core held, no waiter queued, no busy time. The queue's ring is
// kept.
func (p *CorePool) Reset(capacity int) {
	if capacity <= 0 {
		panic("sim: core pool needs positive capacity")
	}
	clear(p.queue)
	p.capacity, p.inUse, p.head, p.queued = capacity, 0, 0, 0
	p.busyCoreSeconds, p.lastChange = 0, 0
}

// Capacity returns the configured core count.
func (p *CorePool) Capacity() int { return p.capacity }

// InUse returns the number of currently held cores.
func (p *CorePool) InUse() int { return p.inUse }

// Queued returns the number of waiting acquirers.
func (p *CorePool) Queued() int { return p.queued }

// push appends a waiter to the ring, growing it when full.
func (p *CorePool) push(w waiter) {
	if p.queued == len(p.queue) {
		n := 2 * len(p.queue)
		if n < 8 {
			n = 8
		}
		grown := make([]waiter, n)
		for i := 0; i < p.queued; i++ {
			grown[i] = p.queue[(p.head+i)%len(p.queue)]
		}
		p.queue, p.head = grown, 0
	}
	p.queue[(p.head+p.queued)%len(p.queue)] = w
	p.queued++
}

// pop removes and returns the head waiter; the caller guarantees the
// ring is non-empty.
func (p *CorePool) pop() waiter {
	w := p.queue[p.head]
	p.queue[p.head] = waiter{}
	p.head = (p.head + 1) % len(p.queue)
	p.queued--
	return w
}

// BusyCoreSeconds returns the integral of in-use cores over time, i.e.
// the total core-seconds consumed so far. Useful for utilisation and
// cloud-cost accounting.
func (p *CorePool) BusyCoreSeconds() float64 {
	return p.busyCoreSeconds + float64(p.inUse)*(p.eng.Now()-p.lastChange).Seconds()
}

func (p *CorePool) account() {
	now := p.eng.Now()
	p.busyCoreSeconds += float64(p.inUse) * (now - p.lastChange).Seconds()
	p.lastChange = now
}

// Acquire requests a core. When one is available, fn(arg) is invoked
// (always asynchronously, from an engine event). The acquirer must call
// Release exactly once when finished. A caller queueing many items binds
// fn once and identifies each item by arg, so queueing allocates
// nothing per item.
func (p *CorePool) Acquire(fn func(int), arg int) {
	if p.inUse < p.capacity {
		p.account()
		p.inUse++
		// Run asynchronously for deterministic FIFO ordering with queued
		// acquirers.
		p.eng.AfterArg(0, fn, arg)
		return
	}
	p.push(waiter{fn, arg})
}

// Release returns a core to the pool, handing it to the head of the wait
// queue if any.
func (p *CorePool) Release() {
	if p.inUse <= 0 {
		panic("sim: Release without Acquire")
	}
	if p.queued > 0 {
		w := p.pop()
		p.eng.AfterArg(0, w.fn, w.arg)
		return // core ownership transfers; inUse unchanged
	}
	p.account()
	p.inUse--
}

// SetCapacity changes the pool size. Growing immediately admits waiters;
// shrinking takes effect as cores are released. Used by what-if sweeps
// over P without rebuilding the cluster.
func (p *CorePool) SetCapacity(capacity int) {
	if capacity <= 0 {
		panic("sim: core pool needs positive capacity")
	}
	p.capacity = capacity
	for p.inUse < p.capacity && p.queued > 0 {
		p.account()
		p.inUse++
		w := p.pop()
		p.eng.AfterArg(0, w.fn, w.arg)
	}
}
