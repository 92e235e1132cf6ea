package spark

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

// Run simulates the application on the cluster and returns the measured
// result. It is deterministic: same inputs, same output.
//
// Stages without explicit dependencies run as a linear chain (each
// stage barriers on the previous one). When any stage declares
// DependsOn, the DAG scheduler runs every stage whose dependencies have
// completed, concurrently — Spark's actual stage semantics.
//
// Every node and every task attempt is simulated individually.
//
// Run is a fresh Runner's Run; callers that simulate several
// configurations in a row share one Runner instead.
func Run(cfg ClusterConfig, app App) (*Result, error) {
	return new(Runner).Run(cfg, app)
}

// Runner runs simulations one after another on the same storage. When
// a run has the previous run's Slaves and ModelNetwork, Run resets and
// reuses that run's engine arena and lanes, nodes with their core pools
// and flow resources, attempt pool and per-stage slabs instead of
// building them again, so a second run's setup allocates O(1) in the
// node count. Results are identical to Run's, byte for byte. The zero
// value is ready to use. A Runner is not safe for concurrent use, and
// it holds its storage until it is dropped: scope it to the calls that
// share it.
type Runner struct {
	r *runner // the previous run's storage; nil before the first run
}

// Run simulates the application on the cluster, like the package-level
// Run.
func (rn *Runner) Run(cfg ClusterConfig, app App) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	r := rn.r
	// Detached for the run: if it panics, the next Run rebuilds instead
	// of resetting half-updated state.
	rn.r = nil
	if r == nil || r.cfg.Slaves != cfg.Slaves || r.cfg.ModelNetwork != cfg.ModelNetwork {
		r = newRunner(cfg)
	}
	r.reset(cfg, app)
	res, err := r.run()
	// A run that ended in an error, a stall or a deadlock may leave
	// events, queued waiters and flows behind; reset clears all of
	// them, so every runner is kept.
	rn.r = r
	return res, err
}

// node is one simulated slave.
type node struct {
	id    int // cluster index: position in runner.ns and per-node accounting rows
	cores *sim.CorePool
	hdfs  *sim.FlowResource
	local *sim.FlowResource
	nic   *sim.FlowResource
	// fault state: a crashed node is gone for the rest of the run; a
	// blacklisted one finishes its in-flight work but receives no new
	// dispatches. taskFailures counts injected failures for the
	// blacklist threshold.
	crashed      bool
	blacklisted  bool
	taskFailures int
	// memory state (only touched when the memory layer is on): the
	// resident working set of in-flight attempts, and the instant
	// until which a stop-the-world GC pause stalls every core on the
	// node.
	resident units.ByteSize
	gcUntil  time.Duration
}

// numOpKinds sizes the fixed per-stage accounting arrays.
const numOpKinds = len(opKindNames)

// netFlowNames precomputes the "<kind>/net" flow labels so the NIC
// fast path never builds a string per op.
var netFlowNames = func() (a [numOpKinds]string) {
	for i := range a {
		a[i] = OpKind(i).String() + "/net"
	}
	return a
}()

// ioAgg is one op kind's integer stage accounting. The float Requests
// accumulator lives in stageState.reqSub instead, per node, so it is
// folded in node-id order at stage completion.
type ioAgg struct {
	bytes units.ByteSize
	ops   int
	time  time.Duration
}

// stageState tracks one stage through its execution.
type stageState struct {
	idx       int
	stage     Stage
	deps      []int
	launched  bool
	completed bool
	res       StageResult
	groups    []GroupResult
	remaining int // logical tasks left
	// device utilisation snapshots at the stage's barrier; with
	// concurrent DAG stages the per-stage attribution is approximate
	// (shared device time counts toward every overlapping stage).
	hdfsBusy0, localBusy0 time.Duration
	// io is the integer I/O accounting; the IOStat map is materialised
	// from it when the stage completes.
	io [numOpKinds]ioAgg
	// reqSub accumulates the float IOStat.Requests increments per node
	// (row = node.id), folded in node-id order at completion: a fixed
	// summation order, independent of event interleaving, that the
	// simulator goldens pin.
	reqSub [][numOpKinds]float64
	// med tracks the running median of completed task durations for the
	// speculation threshold (nil when speculation is off); it points at
	// medStore, whose heaps a reused stage keeps.
	med      *medianTracker
	medStore medianTracker
	// running is an intrusive doubly-linked list of in-flight attempts.
	running *attempt
	// needsFinal marks the stage for the end-of-instant finalizer (see
	// runner.finalize).
	needsFinal bool
	// tasks is the logical-task slab: one entry per dispatched task,
	// in a single slice per stage.
	tasks []taskState
	// dispatchF is the stage's launch callback and tickF its speculation
	// tick, bound once per stageState: a task's initial core request
	// queues (dispatchF, its slab index), so queueing a stage allocates
	// nothing per task.
	dispatchF func(int)
	tickF     func()
}

// reset readies a pooled stageState for stage idx of a new run. The
// slabs keep their storage, and the callbacks stay bound: they capture
// only the runner and the stageState itself.
func (st *stageState) reset(idx int, s Stage) {
	*st = stageState{
		idx:       idx,
		stage:     s,
		deps:      st.deps[:0],
		reqSub:    st.reqSub[:0],
		medStore:  st.medStore,
		tasks:     st.tasks[:0],
		dispatchF: st.dispatchF,
		tickF:     st.tickF,
	}
}

// addRunning links an attempt into the stage's running list.
func (st *stageState) addRunning(a *attempt) {
	a.prev = nil
	a.next = st.running
	if st.running != nil {
		st.running.prev = a
	}
	st.running = a
	a.inList = true
}

// removeRunning unlinks an attempt; safe to call once per attempt.
func (st *stageState) removeRunning(a *attempt) {
	if !a.inList {
		return
	}
	a.inList = false
	if a.prev != nil {
		a.prev.next = a.next
	} else if st.running == a {
		st.running = a.next
	}
	if a.next != nil {
		a.next.prev = a.prev
	}
	a.prev, a.next = nil, nil
}

// taskState is one logical task, possibly executed by several attempts.
type taskState struct {
	// placement of the task's initial dispatch (node, group), read by
	// stageState.dispatchF; the slab index is the task index. Retries,
	// bounces and speculative copies can queue several dispatches of one
	// task at once, each with its own placement, so those carry theirs
	// in a closure instead. The slab holds one entry per task of a
	// stage, so the fields are packed.
	nd *node
	gi int32
	// fault bookkeeping: counted failures against the attempt budget,
	// fetch failures (Spark tracks these separately from task failures),
	// and the number of attempts currently in flight.
	attempts      int32
	failures      int32
	fetchFailures int32
	inflight      int32
	done          bool
	speculated    bool
}

// attempt is one execution of a task on one node. Attempts are pooled
// on the runner and recycled at every terminal transition, with their
// callback closures bound once at allocation, so the steady-state task
// walk performs no per-op or per-task allocation.
type attempt struct {
	r       *runner
	st      *stageState
	task    *taskState
	nd      *node
	gi      int
	g       TaskGroup
	taskIdx int
	start   time.Duration
	// failAt / fetchFailAt are the op indices at which this attempt is
	// fated to fail (-1: never). lost marks the attempt killed by its
	// node's crash; it dies at the next op boundary.
	failAt      int
	fetchFailAt int
	lost        bool
	speculative bool
	// memory layer: the working set reserved on the node for this
	// attempt (released on every exit path) and the portion that
	// overflowed the heap (written to the Local device up front and
	// re-read before the task completes).
	memBytes units.ByteSize
	spill    units.ByteSize
	// op-walk state.
	i         int // current op index
	jitter    float64
	gcTime    time.Duration
	gcIOBytes units.ByteSize
	curOp     Op // the adjusted copy of g.Ops[i] in flight
	opStart   time.Duration
	pending   int // in-flight flows of the current op
	// flow and netFlow are reused across ops: reassigning the struct
	// resets the resource-internal fields, so the hot path starts flows
	// without allocating.
	flow    sim.Flow
	netFlow sim.Flow
	// intrusive links: running list and the runner's free list.
	prev, next *attempt
	inList     bool
	freeNext   *attempt
	// prebound callbacks, created once per pooled attempt. The pool
	// grows to the run's peak task concurrency, so only the two every
	// task walk uses are bound up front: the memory layer's three when
	// it is on, gcDoneF on first use.
	launchF    func()
	flowDoneF  func()
	gcDoneF    func()
	stepF      func()
	finishF    func()
	spillDoneF func()
}

type runner struct {
	cfg        cfgDerived
	app        App
	eng        *sim.Engine
	ns         []*node // indexed by node id
	res        *Result
	states     []*stageState
	done       int
	finishedAt time.Duration
	// err is the first fatal failure (attempt budget exhausted, no
	// healthy nodes left). Once set, no new work launches and the
	// engine drains its in-flight events.
	err error
	// end-of-instant finalizer state (see finalize).
	finalSet bool
	finalF   func()
	// launch is TaskLaunchOverhead, each attempt's delay before its
	// first op. It is the engine's fixed delay, so launches queue in a
	// FIFO lane instead of the event heap.
	launch time.Duration
	// pools and scratch, kept across the runs of a Runner: freeA is the
	// recycled-attempt list; slabA holds not-yet-issued attempts of the
	// current chunk, and pooledA counts every attempt issued (chunks
	// double up to attemptChunk). stagePool holds the stageStates that
	// states points into.
	freeA     *attempt
	slabA     []attempt
	pooledA   int
	cands     []*attempt
	stagePool []*stageState
}

// attemptChunk caps how many attempts the pool allocates at once.
const attemptChunk = 256

// busySums totals the device utilisation seconds across the cluster
// (iostat's %util integral, not mere occupancy).
func (r *runner) busySums() (hdfs, local time.Duration) {
	for _, n := range r.ns {
		hdfs += units.SecDuration(n.hdfs.Stats().UtilSeconds)
		local += units.SecDuration(n.local.Stats().UtilSeconds)
	}
	return hdfs, local
}

// cfgDerived bundles the config with precomputed values.
type cfgDerived struct {
	ClusterConfig
	remoteFrac float64 // fraction of shuffle-read bytes crossing the NIC
}

// newRunner builds the engine and nodes of a cluster with cfg's Slaves
// and ModelNetwork; reset readies them for each run.
func newRunner(cfg ClusterConfig) *runner {
	eng := sim.NewEngine()
	r := &runner{eng: eng}
	r.ns = make([]*node, cfg.Slaves)
	for id := range r.ns {
		// Resources carry static device names: a per-node name would be
		// formatted three times per node per run, only ever to appear
		// in a simulator panic.
		n := &node{
			id:    id,
			cores: sim.NewCorePool(eng, cfg.ExecutorCores),
			hdfs:  sim.NewFlowResource(eng, "hdfs"),
			local: sim.NewFlowResource(eng, "local"),
		}
		if cfg.ModelNetwork {
			n.nic = sim.NewFlowResource(eng, "nic")
		}
		r.ns[id] = n
	}
	r.finalF = r.finalize
	return r
}

// reset readies the runner for one run of app on cfg, which has the
// Slaves and ModelNetwork the runner was built for. Everything a run
// changes is returned to its initial state; storage is kept.
func (r *runner) reset(cfg ClusterConfig, app App) {
	d := cfgDerived{ClusterConfig: cfg}
	if cfg.Slaves > 1 {
		d.remoteFrac = float64(cfg.Slaves-1) / float64(cfg.Slaves)
	}
	r.cfg, r.app = d, app
	r.eng.Reset()
	// Pending events peak near one per running task plus a completion
	// timer per busy device: size the engine by the smaller of the task
	// slots and the app's task count, plus a timer per node.
	slots := cfg.Slaves * cfg.ExecutorCores
	if n := app.tasks(); n < slots {
		slots = n
	}
	r.eng.Reserve(slots + cfg.Slaves + 16)
	r.launch = units.SecDuration(cfg.TaskLaunchOverhead.Seconds())
	r.eng.SetFixedDelay(r.launch)
	for _, n := range r.ns {
		n.cores.Reset(cfg.ExecutorCores)
		n.hdfs.Reset()
		n.local.Reset()
		if n.nic != nil {
			n.nic.Reset()
		}
		n.crashed, n.blacklisted, n.taskFailures = false, false, 0
		n.resident, n.gcUntil = 0, 0
	}
	r.res = &Result{App: app.Name, Slaves: cfg.Slaves, Cores: cfg.ExecutorCores,
		Stages: make([]StageResult, 0, len(app.Stages))}
	r.done, r.finishedAt, r.err, r.finalSet = 0, 0, nil, false
	r.buildStates(app)
}

// buildStates readies a pooled stageState per stage and resolves its
// dependency indices: the declared DAG when any stage names
// dependencies, otherwise the implicit linear chain.
func (r *runner) buildStates(app App) {
	useDAG := false
	for _, s := range app.Stages {
		if len(s.DependsOn) > 0 {
			useDAG = true
			break
		}
	}
	var byName map[string]int
	if useDAG {
		byName = make(map[string]int, len(app.Stages))
		for i, s := range app.Stages {
			byName[s.Name] = i
		}
	}
	for len(r.stagePool) < len(app.Stages) {
		r.stagePool = append(r.stagePool, new(stageState))
	}
	r.states = r.stagePool[:len(app.Stages)]
	for i, s := range app.Stages {
		st := r.states[i]
		st.reset(i, s)
		if useDAG {
			for _, dep := range s.DependsOn {
				st.deps = append(st.deps, byName[dep])
			}
		} else if i > 0 {
			st.deps = append(st.deps, i-1)
		}
	}
}

func (r *runner) run() (*Result, error) {
	if f := r.cfg.Faults; f.Enabled() {
		for _, c := range f.NodeCrashes {
			nd := r.ns[c.Node]
			r.eng.At(units.SecDuration(c.At.Seconds()), func() { r.crashNode(nd) })
		}
	}
	r.launchReady()
	r.eng.Run()
	if r.err != nil {
		return nil, r.err
	}
	if r.done < len(r.states) {
		for _, st := range r.states {
			if st.launched && !st.completed {
				return nil, fmt.Errorf("spark: simulation of %q stalled in stage %s: %d tasks unfinished",
					r.app.Name, st.stage.Name, st.remaining)
			}
		}
		return nil, fmt.Errorf("spark: simulation of %q deadlocked: %d of %d stages never became ready",
			r.app.Name, len(r.states)-r.done, len(r.states))
	}
	// The application ends when its last stage completes; the engine may
	// drain a little further (cancelled speculative attempts finishing
	// their in-flight op before standing down), so completeStage took
	// the core integral then.
	r.res.Total = r.finishedAt
	return r.res, nil
}

// launchReady schedules every unlaunched stage whose dependencies have
// completed.
func (r *runner) launchReady() {
	if r.err != nil {
		return
	}
	for _, st := range r.states {
		if st.launched {
			continue
		}
		ready := true
		for _, d := range st.deps {
			if !r.states[d].completed {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		st.launched = true
		// The stage owns its setup gap: its Start is the barrier time, so
		// in linear mode stage durations sum to the application total and
		// the driver overhead lands in the measurements δ_scale is fitted
		// from.
		barrier := r.eng.Now()
		st.hdfsBusy0, st.localBusy0 = r.busySums()
		st := st
		r.eng.After(units.SecDuration(r.cfg.StageSetupOverhead.Seconds()), func() {
			r.launchStage(st, barrier)
		})
	}
}

// scheduleFinal marks a stage for end-of-instant processing and arms
// the finalizer. Completion bookkeeping and speculation decisions run
// in the engine's late phase, after every normal event at the current
// instant: both observe the instant's fully settled state, which makes
// them independent of same-time event interleaving.
func (r *runner) scheduleFinal(st *stageState) {
	st.needsFinal = true
	if r.finalSet {
		return
	}
	r.finalSet = true
	r.eng.AtLate(r.eng.Now(), r.finalF)
}

// finalize is the end-of-instant pass: stages are visited in index
// order, completing those whose last task finished this instant and
// re-evaluating speculation on the rest.
func (r *runner) finalize() {
	r.finalSet = false
	for _, st := range r.states {
		if !st.needsFinal {
			continue
		}
		st.needsFinal = false
		if st.completed || r.err != nil {
			continue
		}
		if st.launched && st.remaining == 0 {
			r.completeStage(st)
		} else {
			r.maybeSpeculate(st)
		}
	}
}

// completeStage records the finished stage and unlocks its dependents.
// Integer aggregates were summed inline; the float request counts are
// folded here in node-id order.
func (r *runner) completeStage(st *stageState) {
	st.res.End = r.eng.Now()
	st.res.Groups = st.groups
	hdfs, local := r.busySums()
	st.res.HDFSBusy = hdfs - st.hdfsBusy0
	st.res.LocalBusy = local - st.localBusy0
	for k := 0; k < numOpKinds; k++ {
		agg := st.io[k]
		if agg.ops == 0 {
			continue
		}
		var req float64
		for _, row := range st.reqSub {
			req += row[k]
		}
		st.res.IO[OpKind(k)] = IOStat{Bytes: agg.bytes, Ops: agg.ops, Time: agg.time, Requests: req}
	}
	// The task and request slabs stay with the stageState for the
	// runner's next run: attempts still draining after this completion
	// may read the task slab, so it cannot serve a later stage of this
	// run.
	st.med = nil
	st.completed = true
	r.done++
	if st.res.End > r.finishedAt {
		r.finishedAt = st.res.End
	}
	if r.done == len(r.states) {
		// The application ends now: bill the cores held up to this
		// instant, not the speculative losers that drain after it.
		for _, n := range r.ns {
			r.res.CoreSeconds += n.cores.BusyCoreSeconds()
		}
	}
	r.res.Stages = append(r.res.Stages, st.res)
	r.launchReady()
}

func (r *runner) launchStage(st *stageState, barrier time.Duration) {
	if r.err != nil {
		return
	}
	stage := st.stage
	st.res = StageResult{
		Name:  stage.Name,
		Start: barrier,
		Tasks: stage.Tasks(),
		IO:    make(map[OpKind]IOStat),
	}
	st.groups = make([]GroupResult, len(stage.Groups))
	st.remaining = stage.Tasks()
	st.reqSub = resized(st.reqSub, len(r.ns))
	if r.cfg.Speculation {
		st.medStore.reset(stage.Tasks())
		st.med = &st.medStore
		// Spark re-evaluates speculation on a timer
		// (spark.speculation.interval); completions alone would miss a
		// straggler tail that outlives the last normal task. The tick
		// routes through the finalizer so the decision always sees the
		// instant's settled state.
		if st.tickF == nil {
			st.tickF = func() {
				if st.completed || r.err != nil {
					return
				}
				r.scheduleFinal(st)
				r.eng.After(time.Second, st.tickF)
			}
		}
		r.eng.After(time.Second, st.tickF)
	}
	st.tasks = resized(st.tasks, stage.Tasks())
	if st.dispatchF == nil {
		st.dispatchF = func(i int) {
			t := &st.tasks[i]
			r.dispatch(st, t, t.nd, int(t.gi), i, false)
		}
	}
	taskIdx := 0
	for gi, g := range stage.Groups {
		nOps := len(g.Ops)
		if g.GC != nil {
			nOps++ // trailing GC accounting slot
		}
		st.groups[gi] = GroupResult{
			Name:    g.Name,
			Count:   g.Count,
			OpTimes: make([]OpStat, nOps),
		}
		for t := 0; t < g.Count; t++ {
			idx := taskIdx
			taskIdx++
			nd := r.ns[idx%r.cfg.Slaves]
			if r.faultsOn() {
				if nd = r.pickHealthy(nd.id, nil); nd == nil {
					r.failApp(r.noHealthyNodes())
					return
				}
			}
			task := &st.tasks[idx]
			task.nd, task.gi = nd, int32(gi)
			nd.cores.Acquire(st.dispatchF, idx)
		}
	}
}

// dispatch runs when a core frees up for a queued task attempt: it
// re-validates the placement, allocates a pooled attempt, draws the
// attempt's fates, and begins the op walk.
func (r *runner) dispatch(st *stageState, task *taskState, nd *node, gi, taskIdx int, speculative bool) {
	g := st.stage.Groups[gi]
	if r.faultsOn() {
		if task.done || r.err != nil {
			// The task finished (or the app failed) while this dispatch
			// waited in the core queue.
			nd.cores.Release()
			return
		}
		if nd.crashed || nd.blacklisted {
			// The node went away while the dispatch queued; bounce the
			// task to a healthy executor.
			nd.cores.Release()
			target := r.pickHealthy(nd.id+1, nil)
			if target == nil {
				r.failApp(r.noHealthyNodes())
				return
			}
			target.cores.Acquire(func(int) { r.dispatch(st, task, target, gi, taskIdx, speculative) }, 0)
			return
		}
	}
	task.attempts++
	task.inflight++
	a := r.newAttempt(st, task, nd, gi, g, taskIdx, speculative)
	a.start = r.eng.Now()
	st.addRunning(a)
	if r.memOn() {
		r.reserveMem(st, a)
	}
	if f := r.cfg.Faults; f.Enabled() {
		// Decide this attempt's fate up front, deterministically from
		// (seed, stage, task, attempt). The failure point is uniform over
		// the op boundaries, including the final one.
		if p := f.TaskFailureProb; p > 0 && r.faultHash01(st.idx, taskIdx, int(task.attempts), saltFailProb) < p {
			a.failAt = int(r.faultHash01(st.idx, taskIdx, int(task.attempts), saltFailAt) * float64(len(g.Ops)+1))
		}
		if q := f.ShuffleFetchFailureProb; q > 0 {
			for i, op := range g.Ops {
				if op.Kind != OpShuffleRead {
					continue
				}
				if r.faultHash01(st.idx, taskIdx, int(task.attempts), saltFetch+uint64(i)<<8) < q {
					a.fetchFailAt = i
					break
				}
			}
		}
	}
	a.jitter = r.jitterFactor(st.idx, taskIdx)
	// Speculative copies run clean: stragglers are machine-local and the
	// scheduler relaunches on a healthy node.
	if f := r.cfg.StragglerFraction; !speculative && f > 0 && r.hash01(st.idx, taskIdx, saltStraggler) < f {
		slow := r.cfg.StragglerSlowdown
		if slow < 1 {
			slow = 3
		}
		a.jitter *= slow
	}

	// JVM garbage collection pauses are spread through the task's
	// execution, so GC time is distributed over the I/O ops as coupled
	// compute (proportional to bytes); the device keeps serving other
	// tasks during the pauses. Groups without I/O fall back to a
	// trailing CPU block.
	a.gcTime, a.gcIOBytes = 0, 0
	if g.GC != nil {
		a.gcTime = g.GC(r.cfg.ExecutorCores)
		if a.gcTime < 0 {
			a.gcTime = 0
		}
		for _, op := range g.Ops {
			if op.Kind.IsIO() {
				a.gcIOBytes += op.Bytes
			}
		}
	}
	// Task launch overhead occupies the core before the first op.
	r.eng.After(r.launch, a.launchF)
}

// resized returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// newAttempt takes an attempt from the free list (or grows the pool in
// chunks), binding its callback closures exactly once per pooled object.
func (r *runner) newAttempt(st *stageState, task *taskState, nd *node, gi int, g TaskGroup, taskIdx int, speculative bool) *attempt {
	a := r.freeA
	if a != nil {
		r.freeA = a.freeNext
		a.freeNext = nil
	} else {
		if len(r.slabA) == 0 {
			r.slabA = make([]attempt, min(max(r.pooledA, 4), attemptChunk))
			r.pooledA += len(r.slabA)
		}
		a = &r.slabA[0]
		r.slabA = r.slabA[1:]
		a.r = r
		a.launchF = a.launch
		a.flowDoneF = a.flowDone
	}
	if r.memOn() && a.stepF == nil {
		// A pooled attempt may come from a run without the memory layer.
		a.stepF = a.step
		a.finishF = a.finish
		a.spillDoneF = a.spillDone
	}
	a.st, a.task, a.nd = st, task, nd
	a.gi, a.g, a.taskIdx = gi, g, taskIdx
	a.speculative = speculative
	a.failAt, a.fetchFailAt = -1, -1
	a.lost = false
	a.memBytes, a.spill = 0, 0
	a.i, a.pending = 0, 0
	return a
}

// recycle returns a terminal attempt to the pool. Every terminal path
// (finish, stand-down, failure) runs at an op boundary, so no flow or
// engine event still references the attempt.
func (r *runner) recycle(a *attempt) {
	a.st, a.task, a.nd = nil, nil, nil
	a.g = TaskGroup{}
	a.freeNext = r.freeA
	r.freeA = a
}

// launch begins the op walk after the task-launch overhead (preceded
// by the up-front spill write when the memory layer charged one).
func (a *attempt) launch() {
	if a.spill > 0 {
		a.r.execSpill(a, OpSpillWrite)
		return
	}
	a.step()
}

// step advances the attempt to its next op boundary: the fault and
// stand-down checks, then the current op's execution.
func (a *attempt) step() {
	r, st, task := a.r, a.st, a.task
	if r.memOn() && r.memGate(a.nd, a.stepF) {
		// A GC pause on this node stalls the core until it ends; the
		// op re-dispatches at the pause boundary.
		return
	}
	if task.done {
		// A speculative sibling won: stand down at the op boundary
		// (Spark kills the slower attempt).
		a.standDown()
		return
	}
	if r.faultsOn() {
		if r.err != nil {
			// The application already failed; drain quietly.
			a.standDown()
			return
		}
		if a.lost {
			r.failAttempt(st, a, FailNodeLost)
			return
		}
		if a.i == a.fetchFailAt {
			r.fetchFail(st, a)
			return
		}
		if a.i == a.failAt {
			r.failAttempt(st, a, FailInjected)
			return
		}
	}
	g := a.g
	if a.i >= len(g.Ops) {
		// GC fallback for compute-only groups: a trailing pause.
		if a.gcTime > 0 && a.gcIOBytes == 0 {
			a.opStart = r.eng.Now()
			if a.gcDoneF == nil {
				a.gcDoneF = a.gcDone
			}
			r.eng.After(a.gcTime, a.gcDoneF)
			return
		}
		a.endTask()
		return
	}
	op := g.Ops[a.i]
	if op.Kind == OpCompute {
		op.Duration = time.Duration(float64(op.Duration) * a.jitter)
	} else {
		if a.gcTime > 0 && a.gcIOBytes > 0 && op.Bytes > 0 {
			share := float64(op.Bytes) / float64(a.gcIOBytes)
			op.CoupledCompute += time.Duration(share * float64(a.gcTime))
		}
		if op.CoupledCompute > 0 {
			op.CoupledCompute = time.Duration(float64(op.CoupledCompute) * a.jitter)
		}
	}
	a.curOp = op
	a.opStart = r.eng.Now()
	a.execCurOp()
}

// gcDone accounts the trailing GC block and ends the task.
func (a *attempt) gcDone() {
	s := &a.st.groups[a.gi].OpTimes[len(a.g.Ops)]
	s.Kind = OpCompute
	s.Time += a.r.eng.Now() - a.opStart
	s.Count++
	a.endTask()
}

// endTask is the task boundary: with the memory layer off it IS
// finish, so the zero-heap event sequence is unchanged; with it on,
// the spill re-read and the occupancy-driven GC pause run first.
func (a *attempt) endTask() {
	if a.r.memOn() {
		a.r.memEpilogue(a)
		return
	}
	a.finish()
}

// finish completes the attempt: the first attempt of a task to finish
// wins; later ones notice at their next op boundary and stand down.
func (a *attempt) finish() {
	r, st, task := a.r, a.st, a.task
	st.removeRunning(a)
	task.inflight--
	a.nd.cores.Release()
	if task.done {
		r.recycle(a)
		return // a speculative sibling won
	}
	task.done = true
	dur := r.eng.Now() - a.start
	gr := &st.groups[a.gi]
	gr.TotalTaskTime += dur
	if st.med != nil {
		st.med.Add(dur)
	}
	st.remaining--
	r.scheduleFinal(st)
	r.recycle(a)
}

// standDown abandons the attempt (speculative loser or post-error
// drain) at an op boundary.
func (a *attempt) standDown() {
	r := a.r
	r.releaseMem(a)
	a.st.removeRunning(a)
	a.task.inflight--
	a.nd.cores.Release()
	r.recycle(a)
}

// flowDone fires once per completed flow of the current op; the last
// one accounts the op and advances the walk.
func (a *attempt) flowDone() {
	a.pending--
	if a.pending > 0 {
		return
	}
	r, st, op := a.r, a.st, a.curOp
	elapsed := r.eng.Now() - a.opStart
	s := &st.groups[a.gi].OpTimes[a.i]
	s.Kind = op.Kind
	s.Time += elapsed
	s.Bytes += op.Bytes
	s.Coupled += op.CoupledCompute
	s.Count++
	r.accountIO(st, a.nd, op, elapsed)
	a.i++
	a.step()
}

// execCurOp performs a.curOp allocation-free on the attempt's embedded
// flow pair.
func (a *attempt) execCurOp() {
	a.pending = a.r.startOp(a.st, a.nd, a.curOp, &a.flow, &a.netFlow, a.flowDoneF)
}

// startOp starts op on nd and returns how many times done will fire: a
// compute op arms one timer; an I/O op starts a disk flow in flow and,
// for network-crossing bytes on a modelled network, a NIC flow in
// netFlow. done never fires before startOp returns. This is the one
// implementation of an op's physics: device choice, bandwidth at the
// request size, HDFS replication and the remote shuffle fraction.
func (r *runner) startOp(st *stageState, nd *node, op Op, flow, netFlow *sim.Flow, done func()) int {
	if op.Kind == OpCompute {
		r.eng.After(max(op.Duration, 0), done)
		return 1
	}
	if op.Bytes <= 0 {
		r.eng.After(0, done)
		return 1
	}

	reqSize := op.DefaultReqSize(r.cfg.HDFSBlockSize)
	dev := r.cfg.HDFSDisk
	res := nd.hdfs
	if op.Kind.OnLocal() {
		dev = r.cfg.LocalDisk
		res = nd.local
	}
	var full units.Rate
	if op.Kind.IsRead() {
		full = dev.ReadBandwidth(reqSize)
	} else {
		full = dev.WriteBandwidth(reqSize)
	}

	diskBytes := op.Bytes
	var netBytes units.ByteSize
	switch op.Kind {
	case OpHDFSWrite:
		// dfs.replication copies: one local, the rest remote. The disk
		// load is symmetric across nodes, so we charge the full
		// replicated volume to this node's HDFS disk and the remote
		// copies to the NIC.
		diskBytes = op.Bytes * units.ByteSize(r.cfg.HDFSReplication)
		netBytes = op.Bytes * units.ByteSize(r.cfg.HDFSReplication-1)
	case OpShuffleRead:
		// A reducer pulls (N-1)/N of its input from remote mapper disks.
		// Disk load is symmetric; network carries the remote fraction.
		netBytes = units.ByteSize(float64(op.Bytes) * r.cfg.remoteFrac)
	}

	var computeRate units.Rate
	if op.CoupledCompute > 0 {
		computeRate = units.Over(diskBytes, op.CoupledCompute)
	}
	*flow = sim.Flow{
		Name:        op.Kind.String(),
		Bytes:       diskBytes,
		FullRate:    full,
		Cap:         op.StreamLimit,
		ComputeRate: computeRate,
		OnComplete:  done,
	}
	res.Start(flow)
	if !r.cfg.ModelNetwork || netBytes <= 0 {
		return 1
	}
	st.res.NetBytes += netBytes
	*netFlow = sim.Flow{
		Name:       netFlowNames[op.Kind],
		Bytes:      netBytes,
		FullRate:   r.cfg.NICRate,
		Cap:        op.StreamLimit,
		OnComplete: done,
	}
	nd.nic.Start(netFlow)
	return 2
}

// jitterFactor returns the deterministic per-task compute-time multiplier
// in [1-j, 1+j], derived from a splitmix64 hash of (seed, stage, task).
func (r *runner) jitterFactor(stageIdx, taskIdx int) float64 {
	j := r.cfg.ComputeJitter
	if j <= 0 {
		return 1
	}
	u := r.hash01(stageIdx, taskIdx, 0)
	return 1 - j + 2*j*u
}

// hash01 maps (seed, stage, task, salt) to a uniform [0,1) value via
// splitmix64.
func (r *runner) hash01(stageIdx, taskIdx int, salt uint64) float64 {
	x := r.cfg.Seed ^ (uint64(stageIdx)<<32 + uint64(taskIdx)) ^ (salt << 48)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// faultsOn reports whether the fault layer is active. Every fault-path
// behavior is gated on it so a zero-valued FaultConfig run is
// event-for-event identical to a run without the fault layer.
func (r *runner) faultsOn() bool { return r.cfg.Faults.Enabled() }

// memOn reports whether the memory layer is active. Like faultsOn,
// every memory-path behavior is gated on it so a zero-valued
// MemoryConfig run is event-for-event identical to a run without the
// memory layer (golden-pinned in internal/workloads).
func (r *runner) memOn() bool { return r.cfg.Memory.Enabled() }

// accountIO updates the stage-level iostat-style aggregation: integers
// inline, the float request count into the node's per-stage row (folded
// at completion; see completeStage). A completed
// stage's accounting is frozen — late ops of killed speculative
// attempts no longer shift it.
func (r *runner) accountIO(st *stageState, nd *node, op Op, elapsed time.Duration) {
	if !op.Kind.IsIO() || op.Bytes <= 0 || st.completed {
		return
	}
	bytes := op.Bytes
	if op.Kind == OpHDFSWrite {
		bytes *= units.ByteSize(r.cfg.HDFSReplication)
	}
	agg := &st.io[op.Kind]
	agg.time += elapsed
	agg.bytes += bytes
	agg.ops++
	if rs := op.DefaultReqSize(r.cfg.HDFSBlockSize); rs > 0 {
		st.reqSub[nd.id][op.Kind] += float64(bytes) / float64(rs)
	}
}

// execOp performs one op and calls done when it completes, on flows of
// its own: the allocating form of startOp, for parent recomputes.
func (r *runner) execOp(st *stageState, nd *node, op Op, done func()) {
	o := new(struct {
		flows   [2]sim.Flow
		pending int
	})
	o.pending = r.startOp(st, nd, op, &o.flows[0], &o.flows[1], func() {
		if o.pending--; o.pending == 0 {
			done()
		}
	})
}
