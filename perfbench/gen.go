package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/serve"
)

// Request generation. Every workload's stream is a pure function of the
// seed. The generator fixes how many requests of each class a cycle
// holds; the seed varies only the parameters inside a class and the
// order inside a cycle. Parameters that change a request's cost (the
// slave count of a calibration) are dealt from strata by a low-
// discrepancy sequence, so any run's prefix has about the same cost mix
// whatever the seed.

// call is one generated API request.
type call struct {
	class string // request class, e.g. "predict-sql"
	route string // API path
	body  []byte // canonical spelling
	key   string // the replica cache key the body canonicalizes to

	pred *serve.PredictRequest
	sim  *serve.SimulateRequest
	what *serve.WhatifRequest
	rec  *serve.RecommendRequest
	swp  *serve.SweepRequest

	// pair links a predict with the simulate of the same cluster shape
	// (same nonzero value on both); model error is measured on pairs.
	pair int
}

const (
	routePredict   = "/api/v1/predict"
	routeSimulate  = "/api/v1/simulate"
	routeWhatif    = "/api/v1/whatif"
	routeRecommend = "/api/v1/recommend"
	routeSweep     = "/api/v1/sweep"
)

// newCall renders req (already fully normalized: every default spelled
// out) and checks that the rendering is the canonical spelling, i.e.
// that the replica's cache key for it is route + NUL + body.
func newCall(class, route string, req any) (*call, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	key, ok := serve.CanonicalShardKey("POST", route, body)
	if !ok {
		return nil, fmt.Errorf("generated %s body does not canonicalize: %s", route, body)
	}
	if key != route+"\x00"+string(body) {
		return nil, fmt.Errorf("generated %s body is not in canonical form:\n got  %s\n want %s", route, body, key)
	}
	c := &call{class: class, route: route, body: body, key: key}
	switch r := req.(type) {
	case *serve.PredictRequest:
		c.pred = r
	case *serve.SimulateRequest:
		c.sim = r
	case *serve.WhatifRequest:
		c.what = r
	case *serve.RecommendRequest:
		c.rec = r
	case *serve.SweepRequest:
		c.swp = r
	default:
		return nil, fmt.Errorf("unknown request type %T", req)
	}
	return c, nil
}

// dealer deals distinct integers from [lo, lo+n·2^bits), split into n
// strata of 2^bits consecutive values. The k-th value dealt from a
// stratum is its bitrev(k)-th value, so any prefix of a stratum's deals
// is spread evenly over the stratum (a van der Corput sequence).
type dealer struct {
	lo, bits int
	dealt    []int
}

func newDealer(lo, bits, n int) *dealer {
	return &dealer{lo: lo, bits: bits, dealt: make([]int, n)}
}

// deal returns the next value of stratum s; ok is false once the
// stratum is used up.
func (d *dealer) deal(s int) (int, bool) {
	k := d.dealt[s]
	if k >= 1<<d.bits {
		return 0, false
	}
	d.dealt[s]++
	return d.lo + s<<d.bits + bitrev(k, d.bits), true
}

// bitrev reverses the low bits bits of k.
func bitrev(k, bits int) int {
	r := 0
	for i := 0; i < bits; i++ {
		r = r<<1 | (k>>i)&1
	}
	return r
}

// gen wraps the seeded source with the parameter vocabularies the
// streams draw from, and a registry of keys already generated so that
// every generated request is a distinct cache key.
type gen struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newGen(seed uint64, stream string) *gen {
	h := int64(seed)
	for _, c := range stream {
		h = h*131 + int64(c)
	}
	return &gen{rng: rand.New(rand.NewSource(h)), seen: map[string]bool{}}
}

// fresh returns c unless its key was already generated.
func (g *gen) fresh(c *call, err error) (*call, bool, error) {
	if err != nil {
		return nil, false, err
	}
	if g.seen[c.key] {
		return nil, false, nil
	}
	g.seen[c.key] = true
	return c, true, nil
}

// unique retries draw until it yields a request with an unseen key.
func (g *gen) unique(draw func() (*call, error)) (*call, error) {
	for try := 0; try < 1000; try++ {
		c, ok, err := g.fresh(draw())
		if err != nil {
			return nil, err
		}
		if ok {
			return c, nil
		}
	}
	return nil, fmt.Errorf("generator: no unseen key after 1000 draws")
}

func (g *gen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

// between draws a value in [lo, hi] on a grid of step.
func (g *gen) between(lo, hi, step float64) float64 {
	n := int(math.Round((hi - lo) / step))
	return lo + float64(g.rng.Intn(n+1))*step
}

var testbedDevices = []string{"hdd", "ssd"}

// device draws from the full device vocabulary, cloud disks at a
// random provisioned size.
func (g *gen) device() string {
	switch g.rng.Intn(4) {
	case 0:
		return "hdd"
	case 1:
		return "ssd"
	case 2:
		return "pd-ssd:" + strconv.Itoa(50*(1+g.rng.Intn(80))) + "GB"
	default:
		return "pd-standard:" + strconv.Itoa(100*(1+g.rng.Intn(80))) + "GB"
	}
}

func (g *gen) mode() string { return g.pick([]string{"doppio", "peak-bw", "no-overlap"}) }

// faults draws fault rates low enough, and a retry budget high enough,
// that no simulated application aborts.
func (g *gen) faults() *serve.FaultSpec {
	return &serve.FaultSpec{
		TaskFailureProb:         g.between(0.002, 0.03, 0.002),
		ShuffleFetchFailureProb: g.between(0.002, 0.03, 0.002),
		MaxTaskFailures:         6 + g.rng.Intn(3),
		RetryBackoffSeconds:     g.between(0, 5, 0.5),
		Seed:                    uint64(1 + g.rng.Intn(1<<20)),
	}
}

func (g *gen) heaps(n int) []float64 {
	set := map[float64]bool{}
	var hs []float64
	for len(hs) < n {
		h := g.between(0.5, 32, 0.5)
		if !set[h] {
			set[h] = true
			hs = append(hs, h)
		}
	}
	sort.Float64s(hs)
	return hs
}

// shuffleCalls permutes one cycle in place.
func (g *gen) shuffleCalls(cs []*call) {
	g.rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
}

// ---------------------------------------------------------------------
// cold: every request misses the result cache and the calibration cache.

// coldCycles bounds a cold stream: at ~25 requests/s its 2,560
// requests outlast the longest run the benchmark allows.
const coldCycles = 128

// coldHeavy are the costlier calibrations of the cold stream's class C.
var coldHeavy = []string{"trianglecount", "svm", "terasort"}

// coldRecommend gets one recommend each: its first cloud calibration.
var coldRecommend = []string{"sql", "trianglecount", "svm", "terasort"}

// coldStream returns the cold workload's requests. A cycle of 20 holds:
//
//   - 8 sql predicts (class predict-sql), each on a new slave count:
//     four plain (two of them in the peak-bw and no-overlap modes), two
//     with a heap, two with faults;
//   - 6 simulates (class simulate) of the same cluster shapes as six of
//     those predicts, one with stragglers and speculation, so the
//     pairs measure model error;
//   - 6 predicts on new (trianglecount|svm|terasort, slaves) pairs
//     (class predict-heavy); in the first four cycles one of them is
//     replaced by a workload's first recommend.
//
// Sorted by cost the classes are simulate < predict-sql <
// predict-heavy, with shares 30/40/30%, so the median falls in the
// middle of predict-sql and the tail inside predict-heavy. Slot s of
// cycle c takes its slave count from stratum (s+c) mod n of its
// class's dealer, and its core count and devices from rotations. The
// cluster shapes, heap sizes and fault rates, which set both the cost
// of a request and the model's error on it, are therefore the same
// sequence for every seed, and so are the paired simulates' seeds; the
// seed draws the order inside each cycle, the remaining fault and
// simulator seeds, straggler fractions and the recommend parameters.
func coldStream(seed uint64) ([]*call, error) {
	g := newGen(seed, "cold")
	sqlSlaves := newDealer(1, 7, 8) // 1..1024
	heavySlaves := map[string]*dealer{}
	for _, w := range coldHeavy {
		heavySlaves[w] = newDealer(1, 7, 2) // 1..256
	}
	shape := func(w string, slaves, slot, cycle int) serve.ClusterParams {
		dev := (slot + cycle) % 4
		return serve.ClusterParams{Workload: w, Slaves: slaves,
			Cores: 1 + (bitrev(cycle%32, 5)+4*slot)%32,
			HDFS:  testbedDevices[dev/2], Local: testbedDevices[dev%2]}
	}
	var out []*call
	pairID := 0
	for cycle := 0; cycle < coldCycles; cycle++ {
		var cyc []*call
		modes := []string{"doppio", "doppio", "peak-bw", "no-overlap", "doppio", "doppio", "doppio", "doppio"}
		for slot, mode := range modes {
			slaves, ok := sqlSlaves.deal((slot + cycle) % 8)
			if !ok {
				return nil, fmt.Errorf("cold: sql slave counts used up")
			}
			pr := &serve.PredictRequest{ClusterParams: shape("sql", slaves, slot, cycle), Mode: mode}
			switch k := 2*cycle + slot; slot {
			case 4, 5:
				pr.HeapGB = 0.5 * float64(1+k%16)
			case 6, 7:
				pr.Faults = &serve.FaultSpec{
					TaskFailureProb:         0.002 * float64(1+k%15),
					ShuffleFetchFailureProb: 0.002 * float64(1+(k/15)%15),
					MaxTaskFailures:         6 + k%3,
					RetryBackoffSeconds:     0.5 * float64(k%11),
					Seed:                    uint64(1 + g.rng.Intn(1<<20)),
				}
			}
			p, err := g.unique(func() (*call, error) { return newCall("predict-sql", routePredict, pr) })
			if err != nil {
				return nil, err
			}
			cyc = append(cyc, p)
			if slot == 2 || slot == 3 {
				continue
			}
			// A paired simulate's seed is fixed by its place in the stream,
			// so the model error on the pairs is the same for every seed.
			sr := &serve.SimulateRequest{ClusterParams: pr.ClusterParams, Seed: uint64(1 + 8*cycle + slot)}
			if pr.Faults != nil {
				f := *pr.Faults
				f.Seed = sr.Seed
				sr.Faults = &f
			}
			if slot == 1 {
				sr.Seed = uint64(1 + g.rng.Intn(1<<20))
				sr.Stragglers = g.between(0.05, 0.2, 0.05)
				sr.Speculate = true
			}
			s, err := g.unique(func() (*call, error) { return newCall("simulate", routeSimulate, sr) })
			if err != nil {
				return nil, err
			}
			if slot != 1 {
				pairID++
				p.pair, s.pair = pairID, pairID
			}
			cyc = append(cyc, s)
		}
		for i := 0; i < 6; i++ {
			w := coldHeavy[i/2]
			slaves, ok := heavySlaves[w].deal((i + cycle) % 2)
			if !ok {
				return nil, fmt.Errorf("cold: %s slave counts used up", w)
			}
			if i == 0 && cycle < len(coldRecommend) {
				rr := &serve.RecommendRequest{Workload: coldRecommend[cycle], Slaves: 2 + g.rng.Intn(63), Top: 1 + g.rng.Intn(10)}
				r, err := g.unique(func() (*call, error) { return newCall("recommend", routeRecommend, rr) })
				if err != nil {
					return nil, err
				}
				cyc = append(cyc, r)
				continue
			}
			pr := &serve.PredictRequest{ClusterParams: shape(w, slaves, i, cycle), Mode: "doppio"}
			p, err := g.unique(func() (*call, error) { return newCall("predict-heavy", routePredict, pr) })
			if err != nil {
				return nil, err
			}
			cyc = append(cyc, p)
		}
		g.shuffleCalls(cyc)
		out = append(out, cyc...)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// fresh: result misses that reuse calibrations made at setup.

// freshPairs are the (workload, slaves) testbed calibrations fresh
// setup makes on each replica; freshCloud the cloud calibrations.
var (
	freshPairs = []struct {
		workload string
		slaves   int
	}{{"sql", 4}, {"sql", 16}, {"trianglecount", 5}, {"svm", 6}, {"terasort", 8}}
	freshCloud = []string{"sql", "trianglecount", "svm", "terasort"}
)

// freshSetupCalls are the requests fresh setup sends to every replica:
// a predict per calibration pair (at a shape the stream never asks
// for) and a recommend per cloud-calibrated workload. The simulates of
// the same predict shapes are sent once, for model error.
func freshSetupCalls() (perReplica, once []*call, err error) {
	for i, p := range freshPairs {
		cp := serve.ClusterParams{Workload: p.workload, Slaves: p.slaves, Cores: 4, HDFS: "ssd", Local: "ssd"}
		pc, err := newCall("setup-predict", routePredict, &serve.PredictRequest{ClusterParams: cp, Mode: "doppio"})
		if err != nil {
			return nil, nil, err
		}
		sc, err := newCall("setup-simulate", routeSimulate, &serve.SimulateRequest{ClusterParams: cp, Seed: 1})
		if err != nil {
			return nil, nil, err
		}
		pc.pair, sc.pair = i+1, i+1
		perReplica = append(perReplica, pc)
		once = append(once, sc)
	}
	for _, w := range freshCloud {
		rc, err := newCall("setup-recommend", routeRecommend, &serve.RecommendRequest{Workload: w, Slaves: 10, Top: 1})
		if err != nil {
			return nil, nil, err
		}
		perReplica = append(perReplica, rc)
	}
	return perReplica, once, nil
}

// freshStream returns the fresh workload's generator: each call returns
// the next cycle of requests, so the stream never runs out however fast
// the tier answers. A cycle of 20
// holds 12 predicts (class predict: plain, heap or faulty, over new
// cores, devices and modes), 3 model-backend whatifs, 2 sweeps and 3
// recommends (class recommend: heap axes of 0, 2 and 4 values, half
// with a deadline). Every request reuses a setup calibration. What
// sets a request's cost (the calibration pair, whatif points, sweep
// grid size, recommend workload and deadline) rotates with the cycle;
// the seed draws everything else.
func freshStream(seed uint64) (func() ([]*call, error), error) {
	g := newGen(seed, "fresh")
	setup, once, err := freshSetupCalls()
	if err != nil {
		return nil, err
	}
	for _, c := range append(setup, once...) {
		g.seen[c.key] = true
	}
	off := g.rng.Intn(1 << 10)
	cycle := -1
	return func() ([]*call, error) {
		cycle++
		rot := cycle + off
		var cyc []*call
		add := func(class, route string, build func() any) error {
			c, err := g.unique(func() (*call, error) { return newCall(class, route, build()) })
			if err != nil {
				return err
			}
			cyc = append(cyc, c)
			return nil
		}
		kinds := []string{"plain", "plain", "plain", "plain", "plain", "plain", "heap", "heap", "heap", "faulty", "faulty", "faulty"}
		for slot, kind := range kinds {
			kind, pair := kind, freshPairs[(rot+slot)%len(freshPairs)]
			if err := add("predict", routePredict, func() any {
				pr := &serve.PredictRequest{ClusterParams: serve.ClusterParams{Workload: pair.workload, Slaves: pair.slaves,
					Cores: 1 + g.rng.Intn(1024), HDFS: g.device(), Local: g.device()}, Mode: g.mode()}
				switch kind {
				case "heap":
					pr.HeapGB = g.between(0.5, 64, 0.5)
				case "faulty":
					pr.Faults = g.faults()
				}
				return pr
			}); err != nil {
				return nil, err
			}
		}
		for i := 0; i < 3; i++ {
			pair, points := freshPairs[(rot+i)%len(freshPairs)], 1+(rot+3*i)%10
			if err := add("whatif", routeWhatif, func() any {
				wr := &serve.WhatifRequest{ClusterParams: serve.ClusterParams{Workload: pair.workload, Slaves: pair.slaves,
					Cores: 1, HDFS: g.device(), Local: g.device()}, MaxCores: 1<<(points-1) + g.rng.Intn(1<<(points-1)), Backend: "model"}
				if g.rng.Intn(2) == 0 {
					wr.HeapGB = g.between(0.5, 64, 0.5)
				}
				return wr
			}); err != nil {
				return nil, err
			}
		}
		for i := 0; i < 2; i++ {
			pair, ncores, ndev := freshPairs[(rot+2*i)%len(freshPairs)], 4+(rot+i)%5, 1+(rot/2+i)%2
			if err := add("sweep", routeSweep, func() any {
				var nodes []int
				for _, q := range freshPairs {
					if q.workload == pair.workload {
						nodes = append(nodes, q.slaves)
					}
				}
				cores := map[int]bool{}
				for len(cores) < ncores {
					cores[1+g.rng.Intn(128)] = true
				}
				sr := &serve.SweepRequest{Workloads: []string{pair.workload}, Nodes: nodes}
				for c := range cores {
					sr.Cores = append(sr.Cores, c)
				}
				sort.Ints(sr.Cores)
				for j := 0; j < ndev; j++ {
					sr.Devices = append(sr.Devices, serve.DevicePairJSON{HDFS: g.device(), Local: g.device()})
				}
				return sr
			}); err != nil {
				return nil, err
			}
		}
		for slot, nh := range []int{0, 2, 4} {
			nh, w, deadline := nh, freshCloud[(rot+slot)%len(freshCloud)], (rot/4+slot)%2 == 0
			if err := add("recommend", routeRecommend, func() any {
				rr := &serve.RecommendRequest{Workload: w, Slaves: 2 + g.rng.Intn(199), Top: 1 + g.rng.Intn(10)}
				if deadline {
					rr.DeadlineMinutes = g.between(5, 600, 0.5)
				}
				if nh > 0 {
					rr.HeapGBs = g.heaps(nh)
				}
				return rr
			}); err != nil {
				return nil, err
			}
		}
		g.shuffleCalls(cyc)
		return cyc, nil
	}, nil
}

// ---------------------------------------------------------------------
// warm: replays of a fixed working set in spelling variants.

// warmKeys is the working-set size: above the router hot cache (128
// entries) and below the replica LRU (512).
const warmKeys = 256

var warmWorkloads = []string{"sql", "trianglecount", "svm", "terasort"}

// warmSet returns the warm working set in popularity-rank order: 128
// predicts and 32 whatifs on the eight (workload, slaves) calibrations
// of four workloads, 64 simulates (32 of them the same shapes as 32
// predicts, for model error) and 32 recommends. Ranks interleave the
// classes in a fixed pattern and each class cycles through the
// workloads, so what the hottest keys answer, and so the cost of a
// replay, does not depend on the seed; the seed draws the remaining
// parameters.
func warmSet(seed uint64) ([]*call, error) {
	g := newGen(seed, "warm")
	byClass := map[string][]*call{}
	add := func(class, route string, build func() any) (*call, error) {
		c, err := g.unique(func() (*call, error) { return newCall(class, route, build()) })
		if err != nil {
			return nil, err
		}
		byClass[class] = append(byClass[class], c)
		return c, nil
	}
	cluster := func(i int) serve.ClusterParams {
		return serve.ClusterParams{Workload: warmWorkloads[i%4], Slaves: 4 * (1 + (i/4)%2),
			Cores: 1 + g.rng.Intn(16), HDFS: g.pick(testbedDevices), Local: g.pick(testbedDevices)}
	}
	// Model error is measured on a fixed grid of shapes (4 workloads ×
	// 2 slave counts × 4 core counts) with fixed simulator seeds, so it
	// is the same for every seed.
	for j := 0; j < 32; j++ {
		dev := (j + j/8) % 4
		cp := serve.ClusterParams{Workload: warmWorkloads[j%4], Slaves: 4 * (1 + (j/4)%2), Cores: 2 << ((j / 8) % 4),
			HDFS: testbedDevices[dev/2], Local: testbedDevices[dev%2]}
		p, err := add("predict", routePredict, func() any { return &serve.PredictRequest{ClusterParams: cp, Mode: "doppio"} })
		if err != nil {
			return nil, err
		}
		s, err := add("simulate", routeSimulate, func() any { return &serve.SimulateRequest{ClusterParams: cp, Seed: uint64(j + 1)} })
		if err != nil {
			return nil, err
		}
		p.pair, s.pair = j+1, j+1
	}
	for i := 0; i < 96; i++ {
		if _, err := add("predict", routePredict, func() any {
			pr := &serve.PredictRequest{ClusterParams: cluster(i), Mode: "doppio"}
			switch (i / 8) % 3 {
			case 0:
				pr.Mode = g.mode()
			case 1:
				pr.HeapGB = g.between(0.5, 8, 0.5)
			case 2:
				pr.Faults = g.faults()
			}
			return pr
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 32; i++ {
		if _, err := add("simulate", routeSimulate, func() any {
			cp := cluster(i)
			cp.Workload = []string{"sql", "trianglecount"}[i%2]
			sr := &serve.SimulateRequest{ClusterParams: cp, Seed: uint64(1 + g.rng.Intn(1<<20))}
			switch (i / 2) % 4 {
			case 1:
				sr.HeapGB = g.between(0.5, 8, 0.5)
			case 2:
				sr.Faults = g.faults()
			case 3:
				sr.Stragglers = g.between(0.05, 0.2, 0.05)
			}
			return sr
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 32; i++ {
		if _, err := add("whatif", routeWhatif, func() any {
			cp := cluster(i)
			cp.Cores = 1
			return &serve.WhatifRequest{ClusterParams: cp, MaxCores: 1<<(1+i%8) + g.rng.Intn(1<<(1+i%8)), Backend: "model"}
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 32; i++ {
		if _, err := add("recommend", routeRecommend, func() any {
			rr := &serve.RecommendRequest{Workload: warmWorkloads[i%4], Slaves: 2 + g.rng.Intn(30), Top: 1 + (i/4)%8}
			if (i/2)%2 == 1 {
				rr.DeadlineMinutes = g.between(5, 600, 0.5)
			}
			return rr
		}); err != nil {
			return nil, err
		}
	}
	pattern := []string{"predict", "simulate", "predict", "whatif", "predict", "simulate", "predict", "recommend"}
	next := map[string]int{}
	var out []*call
	for r := 0; r < warmKeys; r++ {
		class := pattern[r%len(pattern)]
		out = append(out, byClass[class][next[class]])
		next[class]++
	}
	return out, nil
}

// warmVariants are the spellings each working-set key is replayed in.
const warmVariants = 4

// spellings renders c's body in warmVariants spellings that all
// canonicalize to c.key: the canonical bytes, the fields reversed, an
// indented rendering, and the defaults left out with the remaining
// fields shuffled.
func spellings(c *call, rng *rand.Rand) ([][]byte, error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(c.body, &fields); err != nil {
		return nil, err
	}
	var names []string
	for k := range fields {
		names = append(names, k)
	}
	sort.Strings(names)
	reversed := append([]string(nil), names...)
	sort.Sort(sort.Reverse(sort.StringSlice(reversed)))
	var indented bytes.Buffer
	if err := json.Indent(&indented, c.body, "", "  "); err != nil {
		return nil, err
	}
	var trimmed []string
	for _, k := range names {
		if !isDefault(c.route, k, fields[k]) {
			trimmed = append(trimmed, k)
		}
	}
	rng.Shuffle(len(trimmed), func(i, j int) { trimmed[i], trimmed[j] = trimmed[j], trimmed[i] })
	out := [][]byte{c.body, render(fields, reversed, ""), indented.Bytes(), render(fields, trimmed, " ")}
	for _, b := range out {
		if k, ok := serve.CanonicalShardKey("POST", c.route, b); !ok || k != c.key {
			return nil, fmt.Errorf("spelling %s does not canonicalize to %s", b, c.key)
		}
	}
	return out, nil
}

func render(fields map[string]json.RawMessage, order []string, sep string) []byte {
	var b bytes.Buffer
	b.WriteString("{" + sep)
	for i, k := range order {
		if i > 0 {
			b.WriteString("," + sep)
		}
		fmt.Fprintf(&b, "%q:%s%s", k, sep, fields[k])
	}
	b.WriteString(sep + "}")
	return b.Bytes()
}

// isDefault reports whether a field holds the value the API fills in
// when the field is left out.
func isDefault(route, field string, v json.RawMessage) bool {
	defaults := map[string]string{
		"slaves": "10", "cores": "36", "hdfs": `"ssd"`, "local": `"ssd"`,
		"mode": `"doppio"`, "max_cores": "64", "backend": `"model"`, "top": "5",
	}
	if route == routeWhatif && field == "cores" {
		return true // pinned by the API whatever the body says
	}
	return defaults[field] == string(v)
}

// ---------------------------------------------------------------------
// campaign: the committed study with the seed applied.

// studyFor returns the study config bytes for a seed: the committed
// config with base.seed set from the seed (fault and jitter draws).
func studyFor(study []byte, seed uint64) ([]byte, error) {
	var cfg map[string]any
	if err := json.Unmarshal(study, &cfg); err != nil {
		return nil, fmt.Errorf("study config: %w", err)
	}
	base, _ := cfg["base"].(map[string]any)
	if base == nil {
		return nil, fmt.Errorf("study config has no base object")
	}
	base["seed"] = 1 + seed%1000003
	return json.MarshalIndent(cfg, "", "  ")
}
