package spark

import (
	"time"

	"repro/internal/units"
)

// Salts separating the independent per-attempt and per-task draws.
const (
	saltFailProb  uint64 = 0xFA11
	saltFailAt    uint64 = 0xFA12
	saltFetch     uint64 = 0xFA13
	saltStraggler uint64 = 0x5743
)

// specCopyIdxOffset displaces a speculative copy's task index so its
// fault draws are independent of the original attempt's.
const specCopyIdxOffset = 1_000_003

// faultHash01 maps (seeds, stage, task, attempt, salt) to a uniform
// [0,1) value. Unlike hash01 it mixes in the attempt number, so a
// retried attempt draws fresh fates, and FaultConfig.Seed, so the
// failure pattern can vary independently of the jitter pattern.
func (r *runner) faultHash01(stageIdx, taskIdx, attempt int, salt uint64) float64 {
	x := r.cfg.Seed ^ (r.cfg.Faults.Seed * 0x9e3779b97f4a7c15)
	x ^= uint64(stageIdx)<<40 ^ uint64(taskIdx)<<16 ^ uint64(attempt)<<56 ^ salt
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// maybeSpeculate launches a second attempt for tasks that have run far
// past the median completed duration (spark.speculation semantics). It
// runs in the engine's late phase (see scheduleFinal), so the median
// and the running set reflect every completion of the current instant.
func (r *runner) maybeSpeculate(st *stageState) {
	if !r.cfg.Speculation || st.med == nil || st.med.Len() == 0 || r.err != nil {
		return
	}
	mult := r.cfg.SpeculationMultiplier
	if mult <= 0 {
		mult = 1.5
	}
	threshold := time.Duration(float64(st.med.Median()) * mult)
	now := r.eng.Now()
	// Collect candidates in task order (the running list is insertion-
	// ordered, not task-ordered) so speculative launches schedule engine
	// events deterministically.
	cands := r.cands[:0]
	for a := st.running; a != nil; a = a.next {
		if a.task.done || a.task.speculated {
			continue
		}
		if now-a.start < threshold {
			continue
		}
		j := len(cands)
		cands = append(cands, a)
		for j > 0 && cands[j-1].taskIdx > a.taskIdx {
			cands[j], cands[j-1] = cands[j-1], cands[j]
			j--
		}
	}
	for _, a := range cands {
		a.task.speculated = true
		// Relaunch on the next node over; the copy is a fresh attempt
		// (stragglers are machine-local, so the copy runs clean).
		other := r.ns[(a.nd.id+1)%r.cfg.Slaves]
		if r.faultsOn() {
			if other = r.pickHealthy(a.nd.id+1, a.nd); other == nil {
				// Nowhere to speculate; the original attempt may still
				// finish on its own.
				continue
			}
		}
		task, gi, idx := a.task, a.gi, a.taskIdx
		other.cores.Acquire(func(int) { r.dispatch(st, task, other, gi, idx+specCopyIdxOffset, true) }, 0)
	}
	r.cands = cands[:0]
}

// pickHealthy returns the first non-crashed, non-blacklisted node at or
// after id start (wrapping), preferring any node other than avoid;
// avoid itself is returned only when it is the sole healthy node. Nil
// means no healthy node exists.
func (r *runner) pickHealthy(start int, avoid *node) *node {
	n := r.cfg.Slaves
	var fallback *node
	for k := 0; k < n; k++ {
		nd := r.ns[(start+k)%n]
		if nd.crashed || nd.blacklisted {
			continue
		}
		if nd == avoid {
			fallback = nd
			continue
		}
		return nd
	}
	return fallback
}

// noHealthyNodes builds the fatal everything-is-gone error.
func (r *runner) noHealthyNodes() error {
	var lost, black int
	for _, n := range r.ns {
		if n.crashed {
			lost++
		} else if n.blacklisted {
			black++
		}
	}
	return &NoHealthyNodesError{App: r.app.Name, Lost: lost, Blacklisted: black}
}

// failApp records the first fatal error; the engine then drains its
// in-flight events while every launch path stands down.
func (r *runner) failApp(err error) {
	if r.err == nil {
		r.err = err
	}
}

// crashNode executes a scheduled node loss: in-flight attempts on the
// node die at their next op boundary; queued dispatches bounce to
// healthy nodes when they reach dispatch.
func (r *runner) crashNode(nd *node) {
	if nd.crashed || r.done == len(r.states) || r.err != nil {
		return
	}
	nd.crashed = true
	r.res.Faults.NodesLost++
	for _, st := range r.states {
		if !st.launched || st.completed {
			continue
		}
		for a := st.running; a != nil; a = a.next {
			if a.nd == nd {
				a.lost = true
			}
		}
	}
}

// noteNodeFailure counts an injected failure against the node's
// blacklist budget (spark.blacklist.maxFailedTasksPerExecutor). The
// last healthy node is never blacklisted: with uniformly injected
// failures every node eventually trips the threshold, and a scheduler
// with zero executors can only abort.
func (r *runner) noteNodeFailure(nd *node) {
	nd.taskFailures++
	t := r.cfg.Faults.BlacklistThreshold
	if t <= 0 || nd.blacklisted || nd.taskFailures < t {
		return
	}
	healthy := 0
	for _, n := range r.ns {
		if !n.crashed && !n.blacklisted {
			healthy++
		}
	}
	if healthy <= 1 {
		return
	}
	nd.blacklisted = true
	r.res.Faults.NodesBlacklisted++
}

// failAttempt kills one attempt: the core frees, the failure counts
// against the task's budget, and — unless a sibling attempt is still
// running — the task retries after exponential backoff. The attempt is
// recycled here; everything the retry needs is copied out first.
func (r *runner) failAttempt(st *stageState, a *attempt, kind FailureKind) {
	r.releaseMem(a)
	st.removeRunning(a)
	a.task.inflight--
	a.nd.cores.Release()
	task, nd, gi, g, taskIdx := a.task, a.nd, a.gi, a.g, a.taskIdx
	r.recycle(a)
	if task.done || r.err != nil {
		return
	}
	task.failures++
	st.res.Faults.TaskFailures++
	r.res.Faults.TaskFailures++
	if kind == FailNodeLost {
		st.res.Faults.LostAttempts++
		r.res.Faults.LostAttempts++
	} else {
		r.noteNodeFailure(nd)
	}
	f := r.cfg.Faults
	if int(task.failures) >= f.maxTaskFailures() {
		r.failApp(&TaskFailedError{App: r.app.Name, Stage: st.stage.Name, Task: taskIdx, Failures: int(task.failures), Kind: kind})
		return
	}
	if task.inflight > 0 {
		return // a speculative sibling may still win
	}
	r.retryTask(st, task, nd.id, gi, g, taskIdx, f.backoff(int(task.failures)))
}

// retryTask relaunches a task on a healthy node after the backoff.
func (r *runner) retryTask(st *stageState, task *taskState, fromID, gi int, g TaskGroup, taskIdx int, delay time.Duration) {
	st.res.Faults.Retries++
	r.res.Faults.Retries++
	from := r.ns[fromID]
	r.eng.After(delay, func() {
		if task.done || r.err != nil {
			return
		}
		target := r.pickHealthy(fromID+1, from)
		if target == nil {
			r.failApp(r.noHealthyNodes())
			return
		}
		target.cores.Acquire(func(int) { r.dispatch(st, task, target, gi, taskIdx, false) }, 0)
	})
}

// fetchFail handles a shuffle-fetch failure: the reducer attempt dies,
// and on stages with a parent one lost map output is recomputed before
// the retry — re-running the parent op sequence (HDFS re-read at block
// sizes, shuffle re-write) on a healthy node. This is the recovery cost
// the request-size-aware bandwidth curves make device-dependent.
func (r *runner) fetchFail(st *stageState, a *attempt) {
	r.releaseMem(a)
	st.removeRunning(a)
	a.task.inflight--
	a.nd.cores.Release()
	task, fromID, gi, g, taskIdx := a.task, a.nd.id, a.gi, a.g, a.taskIdx
	r.recycle(a)
	if task.done || r.err != nil {
		return
	}
	task.fetchFailures++
	st.res.Faults.TaskFailures++
	st.res.Faults.FetchFailures++
	r.res.Faults.TaskFailures++
	r.res.Faults.FetchFailures++
	f := r.cfg.Faults
	if int(task.fetchFailures) >= f.maxTaskFailures() {
		r.failApp(&TaskFailedError{App: r.app.Name, Stage: st.stage.Name, Task: taskIdx, Failures: int(task.fetchFailures), Kind: FailFetch})
		return
	}
	if task.inflight > 0 {
		return
	}
	if len(st.deps) == 0 {
		// No parent stage to recompute; degrade to a plain retry.
		r.retryTask(st, task, fromID, gi, g, taskIdx, f.backoff(int(task.fetchFailures)))
		return
	}
	parent := r.states[st.deps[0]]
	r.recomputeParent(st, parent, fromID, func() {
		r.retryTask(st, task, fromID, gi, g, taskIdx, f.backoff(int(task.fetchFailures)))
	})
}

// recomputeParent re-runs one parent map task's op sequence on a
// healthy node, holding a core for the duration. The recompute I/O is
// charged to the consumer stage st, where the recovery cost shows up in
// the degraded measurements.
func (r *runner) recomputeParent(st *stageState, parent *stageState, fromID int, then func()) {
	st.res.Faults.Recomputes++
	r.res.Faults.Recomputes++
	target := r.pickHealthy(fromID, nil)
	if target == nil {
		r.failApp(r.noHealthyNodes())
		return
	}
	g := parent.stage.Groups[0]
	target.cores.Acquire(func(int) {
		var run func(i int)
		run = func(i int) {
			if r.err != nil || i >= len(g.Ops) {
				target.cores.Release()
				if r.err == nil {
					then()
				}
				return
			}
			op := g.Ops[i]
			opStart := r.eng.Now()
			r.execOp(st, target, op, func() {
				r.accountIO(st, target, op, r.eng.Now()-opStart)
				run(i + 1)
			})
		}
		r.eng.After(units.SecDuration(r.cfg.TaskLaunchOverhead.Seconds()), func() { run(0) })
	}, 0)
}
