package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/optimizer"
	"repro/internal/serve"
	"repro/internal/spark"
	"repro/internal/units"
	"repro/internal/workloads"
)

// inproc is the tier served in-process: two serve.Server handlers and a
// cluster.Router handler on loopback listeners, each behind the
// recorder's timing wrapper when tracing.
type inproc struct {
	servers  []*serve.Server
	https    []*http.Server
	cancel   context.CancelFunc
	router   string
	replicas []string
}

// bootInproc starts the in-process tier; rec nil serves it untraced.
// The router gets `doppio route`'s defaults, including its hot cache.
func bootInproc(rec *recorder) (*inproc, error) {
	ip := &inproc{}
	listen := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h}
		ip.https = append(ip.https, srv)
		go srv.Serve(ln)
		return ln.Addr().String(), nil
	}
	var ids []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s, err := serve.New(serve.Config{Addr: ln.Addr().String()})
		if err != nil {
			ln.Close()
			return nil, err
		}
		var h http.Handler = s.Handler()
		if rec != nil {
			h = rec.wrap("serve", h)
		}
		// The handler tree answers readiness from Run, which is not used
		// here; the router's probes get their 200 from the wrapper.
		mux := http.NewServeMux()
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
		mux.Handle("/", h)
		srv := &http.Server{Handler: mux}
		ip.https = append(ip.https, srv)
		go srv.Serve(ln)
		ip.servers = append(ip.servers, s)
		ids = append(ids, ln.Addr().String())
		ip.replicas = append(ip.replicas, "http://"+ln.Addr().String())
	}
	rt, err := cluster.New(cluster.Config{
		Addr: "127.0.0.1:0", Replicas: ids,
		HotCacheTTL: 2 * time.Second, HotCacheEntries: 128,
	})
	if err != nil {
		ip.stop()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ip.cancel = cancel
	rt.StartProbes(ctx)
	var h http.Handler = rt.Handler()
	if rec != nil {
		h = rec.wrap("cluster", h)
	}
	addr, err := listen(h)
	if err != nil {
		ip.stop()
		return nil, err
	}
	ip.router = "http://" + addr
	return ip, nil
}

func (ip *inproc) stop() {
	if ip.cancel != nil {
		ip.cancel()
	}
	for _, s := range ip.https {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.Shutdown(ctx)
		cancel()
	}
}

// cacheStats sums the replicas' cache counters.
func (ip *inproc) cacheStats() serve.CacheStats {
	var t serve.CacheStats
	for _, s := range ip.servers {
		st := s.CacheStats()
		t.Hits += st.Hits
		t.Misses += st.Misses
		t.Evictions += st.Evictions
	}
	return t
}

// tracedOp is one operation of the traced run.
type tracedOp struct {
	c      *call
	body   []byte
	r      reply
	span   int
	stream bool
}

// traceAPI is the traced run of an API workload. It serves the tier
// in-process behind timing wrappers, runs setup and half the measured
// seconds of stream traced, replays the same stream untraced on a fresh
// tier for the tracing overhead, and then times each miss's inner
// layer calls in its own pass.
func traceAPI(o opts, p *apiPlan) (*result, error) {
	rec := newRecorder()
	ip, err := bootInproc(rec)
	if err != nil {
		return nil, err
	}
	hc := newClient()
	var ops []tracedOp
	tracedSend := func(stream bool) sender {
		return func(base string, c *call, body []byte) reply {
			i := rec.beginOp(len(ops))
			r := post(hc, base, c.route, body)
			rec.finish(i)
			ops = append(ops, tracedOp{c: c, body: body, r: r, span: i, stream: stream})
			return r
		}
	}
	so, err := p.setup(tracedSend(false), ip.router, ip.replicas)
	if err != nil {
		ip.stop()
		return nil, err
	}
	send := tracedSend(true)
	samples, tracedWall, err := p.stream(o.seconds/2, nil, func(c *call, body []byte) reply { return send(ip.router, c, body) })
	hc.CloseIdleConnections()
	stats := ip.cacheStats()
	ip.stop()
	if err != nil {
		return nil, err
	}
	ev := p.evaluate(samples, so)

	// The same stream, untraced, on a fresh tier.
	ut, err := bootInproc(nil)
	if err != nil {
		return nil, err
	}
	uc := newClient()
	if _, err := p.setup(httpSender(uc), ut.router, ut.replicas); err != nil {
		ut.stop()
		return nil, err
	}
	start := time.Now()
	for _, s := range samples {
		post(uc, ut.router, s.c.route, s.body)
	}
	untracedWall := time.Since(start)
	uc.CloseIdleConnections()
	ut.stop()

	spans := rec.snapshot()
	ls := newLayerStats()
	pass := newOwnPass(rec, ls)
	for i, op := range ops {
		ls.addDur("serve.canonical_key_us", timeCanonical(op.c.route, op.body), time.Microsecond)
		if op.r.hot || op.r.cache != "miss" {
			continue
		}
		sp, ok := rec.serveOf[i]
		if !ok {
			return nil, fmt.Errorf("op %d missed at a replica but has no serve span", i)
		}
		if err := pass.replay(op, sp); err != nil {
			return nil, err
		}
	}
	spans = rec.snapshot()
	self := selfTimes(spans)
	streamOps := map[int]bool{}
	var opTime, covered time.Duration
	hot, attempts := 0, 0
	for i, op := range ops {
		if !op.stream {
			continue
		}
		streamOps[i] = true
		opTime += spans[op.span].dur()
		if op.r.hot {
			hot++
		}
		attempts += op.r.attempts
	}
	for i, s := range spans {
		switch {
		case s.name == "cluster" && streamOps[s.op]:
			covered += min(s.dur(), spans[s.parent].dur())
			ls.addDur("cluster.self_us", self[i], time.Microsecond)
		case s.name == "serve" && ops[s.op].r.cache == "hit":
			ls.addDur("serve.hit_handler_us", s.dur(), time.Microsecond)
		case s.name == "serve" && ops[s.op].r.cache == "miss":
			ls.addDur("serve.miss_self_ms", self[i], time.Millisecond)
		}
	}
	n := float64(len(samples))
	fixed := pass.fixed()
	fixed["cluster.hot_hit_ratio"] = float64(hot) / n
	fixed["cluster.attempts_per_req"] = float64(attempts) / n
	fixed["serve.hit_ratio"] = stats.HitRatio()
	fixed["serve.evictions"] = float64(stats.Evictions)
	fixed["trace.coverage_pct"] = 100 * float64(covered) / float64(opTime)
	fixed["trace.overhead_pct"] = 100 * (tracedWall.Seconds()/untracedWall.Seconds() - 1)

	fmt.Printf("# traced %s seed %d: %d setup + %d stream ops, %d failed\n", p.name, o.seed, len(ops)-len(samples), len(samples), ev.failed)
	printCoverage(p.name, fixed["trace.coverage_pct"], layerSelf(spans, self, streamOps), opTime,
		"client request encoding, response decoding and client-to-router loopback transport")
	fmt.Printf("# tracing overhead: traced stream %.3f s vs untraced replay %.3f s (%+.2f%%)\n",
		tracedWall.Seconds(), untracedWall.Seconds(), fixed["trace.overhead_pct"])
	if pass.mismatch > 0 {
		fmt.Printf("# own pass: %d answers differ from the served totals\n", pass.mismatch)
	}
	return &result{Correct: ev.failed == 0, Attempted: len(samples), Failed: ev.failed, Metrics: ls.metrics(fixed)}, nil
}

// timeCanonical times the router's and replica's shared key function.
func timeCanonical(route string, body []byte) time.Duration {
	start := time.Now()
	serve.CanonicalShardKey("POST", route, body)
	return time.Since(start)
}

// printCoverage reports the share of op time inside named layer spans,
// each layer's self time as a share of op time, and names the rest.
func printCoverage(workload string, coverage float64, per map[string]time.Duration, opTime time.Duration, remainder string) {
	var names []string
	for k := range per {
		names = append(names, k)
	}
	sort.Strings(names)
	var parts []string
	for _, k := range names {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", k, 100*float64(per[k])/float64(opTime)))
	}
	fmt.Printf("# coverage %s: %.1f%% of %.1f ms op time in layer spans (self time: %s)\n",
		workload, coverage, float64(opTime)/float64(time.Millisecond), strings.Join(parts, ", "))
	fmt.Printf("# unattributed %s: %.1f%%: %s\n", workload, 100-coverage, remainder)
}

// ownPass times the inner public entry points a replica called for each
// miss, on the same inputs, as derived spans under the miss's serve
// span. It mirrors the replica's calibration cache per replica, so a
// calibration is timed exactly where the replica paid for one.
type ownPass struct {
	rec      *recorder
	ls       *layerStats
	done     map[string]map[string]bool // replica → calibration keys made
	cals     map[string]*core.Calibration
	calCount int
	searches int
	eval     int
	pruned   int
	total    int
	tasks    float64
	simSec   float64
	mismatch int
}

func newOwnPass(rec *recorder, ls *layerStats) *ownPass {
	return &ownPass{rec: rec, ls: ls, done: map[string]map[string]bool{}, cals: map[string]*core.Calibration{}}
}

func (o *ownPass) fixed() map[string]float64 {
	f := map[string]float64{"core.calibrations": float64(o.calCount)}
	if o.searches > 0 {
		f["optimizer.evaluated"] = float64(o.eval) / float64(o.searches)
		f["optimizer.pruned_ratio"] = float64(o.pruned) / float64(o.total)
	}
	if o.simSec > 0 {
		f["spark.sim_tasks_per_s"] = o.tasks / o.simSec
	}
	return f
}

// calibration returns the (testbed or cloud) calibration for workload
// at slaves, timing a core.Calibrate under parent when the replica had
// not made it yet.
func (o *ownPass) calibration(replica string, cloudDisks bool, workload string, slaves, parent int) (*core.Calibration, error) {
	key := fmt.Sprintf("testbed/%s/%d", workload, slaves)
	if cloudDisks {
		key = "cloud/" + workload
	}
	if o.done[replica] == nil {
		o.done[replica] = map[string]bool{}
	}
	if o.done[replica][key] {
		return o.cals[key], nil
	}
	o.done[replica][key] = true
	w, err := workloads.Get(workload)
	if err != nil {
		return nil, err
	}
	var ssd, hdd disk.Device
	var base spark.ClusterConfig
	if cloudDisks {
		ssd, hdd = cloud.NewDisk(cloud.PDSSD, 500*units.GB), cloud.NewDisk(cloud.PDStandard, 200*units.GB)
		base = spark.DefaultTestbed(3, 1, ssd, ssd)
	} else {
		ssd, hdd = disk.NewSSD(), disk.NewHDD()
		base = spark.DefaultTestbed(slaves, 1, ssd, ssd)
	}
	var cal *core.Calibration
	d := o.rec.timeDerived("core.calibrate", parent, func() { cal, err = core.Calibrate(base, ssd, hdd, w.Build) })
	if err != nil {
		return nil, err
	}
	o.ls.addDur("core.calibrate_ms", d, time.Millisecond)
	o.calCount++
	o.cals[key] = cal
	return cal, nil
}

// clusterConfig builds the simulator configuration the API builds for
// a cluster shape.
func clusterConfig(c serve.ClusterParams) (spark.ClusterConfig, error) {
	hd, err := cloud.ParseDevice(c.HDFS)
	if err != nil {
		return spark.ClusterConfig{}, err
	}
	ld, err := cloud.ParseDevice(c.Local)
	if err != nil {
		return spark.ClusterConfig{}, err
	}
	cfg := spark.DefaultTestbed(c.Slaves, c.Cores, hd, ld)
	cfg.Memory = spark.MemoryConfig{HeapGB: c.HeapGB}
	return cfg, nil
}

var modes = map[string]core.Mode{"doppio": core.ModeDoppio, "peak-bw": core.ModePeakBW, "no-overlap": core.ModeNoOverlap}

// replay times the inner calls of one miss.
func (o *ownPass) replay(op tracedOp, parent int) error {
	c, rep := op.c, op.r.servedBy
	switch {
	case c.pred != nil:
		cal, err := o.calibration(rep, false, c.pred.Workload, c.pred.Slaves, parent)
		if err != nil {
			return err
		}
		cfg, err := clusterConfig(c.pred.ClusterParams)
		if err != nil {
			return err
		}
		pl, mode := core.PlatformFor(cfg), modes[c.pred.Mode]
		start := time.Now()
		if _, err := core.Compile(cal.Model, core.EnvOf(pl), mode); err != nil {
			return err
		}
		o.ls.addDur("core.compile_us", time.Since(start), time.Microsecond)
		var total time.Duration
		if c.pred.Faults != nil {
			f := c.pred.Faults
			fp := core.FaultParams{TaskFailureProb: f.TaskFailureProb, ShuffleFetchFailureProb: f.ShuffleFetchFailureProb,
				MaxTaskFailures: f.MaxTaskFailures, RetryBackoff: units.SecDuration(f.RetryBackoffSeconds)}
			d := o.rec.timeDerived("core.predict_faulty", parent, func() {
				var pred core.FaultyAppPrediction
				pred, err = cal.Model.PredictFaulty(pl, mode, fp)
				total = pred.Total
			})
			o.ls.addDur("core.predict_faulty_us", d, time.Microsecond)
		} else {
			d := o.rec.timeDerived("core.predict", parent, func() {
				var pred core.AppPrediction
				pred, err = cal.Model.Predict(pl, mode)
				total = pred.Total
			})
			o.ls.addDur("core.predict_us", d, time.Microsecond)
		}
		if err != nil {
			return err
		}
		o.compare(op, total)
	case c.what != nil:
		cal, err := o.calibration(rep, false, c.what.Workload, c.what.Slaves, parent)
		if err != nil {
			return err
		}
		base, err := clusterConfig(c.what.ClusterParams)
		if err != nil {
			return err
		}
		for p := 1; p <= c.what.MaxCores; p *= 2 {
			pl := core.PlatformFor(base.WithCores(p))
			d := o.rec.timeDerived("core.predict", parent, func() { _, err = cal.Model.Predict(pl, core.ModeDoppio) })
			if err != nil {
				return err
			}
			o.ls.addDur("core.predict_us", d, time.Microsecond)
		}
	case c.swp != nil:
		for _, w := range c.swp.Workloads {
			for _, n := range c.swp.Nodes {
				cal, err := o.calibration(rep, false, w, n, parent)
				if err != nil {
					return err
				}
				for _, dev := range c.swp.Devices {
					hd, _ := cloud.ParseDevice(dev.HDFS)
					ld, _ := cloud.ParseDevice(dev.Local)
					env := core.EnvOf(core.PlatformFor(spark.DefaultTestbed(n, 1, hd, ld)))
					var cm *core.CompiledModel
					d := o.rec.timeDerived("core.compile", parent, func() { cm, err = core.Compile(cal.Model, env, core.ModeDoppio) })
					if err != nil {
						return err
					}
					o.ls.addDur("core.compile_us", d, time.Microsecond)
					shapes := make([]core.Shape, len(c.swp.Cores))
					for j, p := range c.swp.Cores {
						shapes[j] = core.Shape{N: n, P: p}
					}
					out := make([]time.Duration, len(shapes))
					o.rec.timeDerived("core.predict_batch", parent, func() {
						if _, err = cm.PredictBatch(shapes, out); err != nil {
							return
						}
						for _, s := range shapes {
							if _, err = cm.TopBottleneck(s.N, s.P); err != nil {
								return
							}
						}
					})
					if err != nil {
						return err
					}
				}
			}
		}
	case c.rec != nil:
		cal, err := o.calibration(rep, true, c.rec.Workload, 0, parent)
		if err != nil {
			return err
		}
		space := optimizer.DefaultSpace(c.rec.Slaves)
		space.HeapGBs = c.rec.HeapGBs
		cons := optimizer.Constraints{Deadline: time.Duration(c.rec.DeadlineMinutes * float64(time.Minute))}
		var sr optimizer.SearchReport
		d := o.rec.timeDerived("optimizer.search", parent, func() {
			sr, err = optimizer.PrunedSearch(space, optimizer.ModelEvaluator(cal.Model), cloud.DefaultPricing(), cons)
		})
		if err != nil {
			return err
		}
		o.ls.addDur("optimizer.search_ms", d, time.Millisecond)
		o.searches++
		o.eval += sr.Evaluated
		o.pruned += sr.Pruned
		o.total += sr.Total
	case c.sim != nil:
		cfg, err := clusterConfig(c.sim.ClusterParams)
		if err != nil {
			return err
		}
		cfg.Seed = c.sim.Seed
		if c.sim.Stragglers > 0 {
			cfg.StragglerFraction = c.sim.Stragglers
			cfg.StragglerSlowdown = 5
		}
		cfg.Speculation = c.sim.Speculate
		if f := c.sim.Faults; f != nil {
			cfg.Faults = spark.FaultConfig{TaskFailureProb: f.TaskFailureProb, ShuffleFetchFailureProb: f.ShuffleFetchFailureProb,
				MaxTaskFailures: f.MaxTaskFailures, RetryBackoff: spark.DurationParam(f.RetryBackoffSeconds), Seed: f.Seed}
		}
		total, err := o.simulate(c.sim.Workload, cfg, simClass(cfg), parent)
		if err != nil {
			return err
		}
		o.compare(op, total)
	}
	return nil
}

// simClass names the spark.Run metric a configuration's run counts
// toward: heap when the memory layer is on, faulty when faults,
// stragglers or speculation are, clean otherwise.
func simClass(cfg spark.ClusterConfig) string {
	switch {
	case cfg.Memory.HeapGB > 0:
		return "spark.run_heap_ms"
	case cfg.Faults.Enabled() || cfg.StragglerFraction > 0 || cfg.Speculation:
		return "spark.run_faulty_ms"
	}
	return "spark.run_clean_ms"
}

// simulate times a workload build and one simulator run.
func (o *ownPass) simulate(workload string, cfg spark.ClusterConfig, class string, parent int) (time.Duration, error) {
	w, err := workloads.Get(workload)
	if err != nil {
		return 0, err
	}
	var app spark.App
	d := o.rec.timeDerived("workloads.build", parent, func() { app = w.Build(cfg) })
	o.ls.addDur("workloads.build_us", d, time.Microsecond)
	var res *spark.Result
	d = o.rec.timeDerived("spark.run", parent, func() { res, err = spark.Run(cfg, app) })
	if err != nil {
		return 0, err
	}
	o.ls.addDur(class, d, time.Millisecond)
	o.tasks += float64(appTasks(app))
	o.simSec += d.Seconds()
	return res.Total, nil
}

func appTasks(a spark.App) int {
	n := 0
	for _, s := range a.Stages {
		for _, g := range s.Groups {
			n += g.Count
		}
	}
	return n
}

// compare counts own-pass totals that differ from the served answer:
// the pass must run on the same inputs as the replica did.
func (o *ownPass) compare(op tracedOp, total time.Duration) {
	want, err := checkAnswer(op.c.route, op.r.body)
	if err == nil && math.Abs(want-total.Seconds()) > 1e-9*math.Max(1, want) {
		o.mismatch++
	}
}
