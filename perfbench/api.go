package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A run boots the tier and runs the workload's warm-up at least
// setupReps times and until setupMinSeconds have been spent on it;
// setup_s is the median, and the last tier serves the measured stream.
// A cold boot takes ~20 ms, so the time floor gives it dozens of
// samples where a single one is at the mercy of the host's scheduler.
const (
	setupReps       = 3
	setupMinSeconds = 1.0
)

// apiPlan is one API workload's inputs: what setup sends, and the
// measured stream.
type apiPlan struct {
	name string
	// Setup sends perReplica to every replica directly and once to the
	// first replica directly; it sends workingSet through the router,
	// then replays it through the router once more as warm-up.
	perReplica, once, workingSet []*call
	// calls is the measured stream for cold and fresh; more, if set,
	// generates its next cycle once calls is used up.
	calls []*call
	more  func() ([]*call, error)
	// warm replays workingSet: pick chooses the next key and spelling.
	spell [][][]byte
	pick  func() (key, variant int)
	// digestN is how many leading stream answers the digest covers
	// (warm digests its working set instead).
	digestN int
	// rssAt is the stream request after which peak RSS is read, so that
	// it measures a fixed amount of work whatever the run's speed.
	rssAt int
}

func newAPIPlan(name string, seed uint64) (*apiPlan, error) {
	p := &apiPlan{name: name}
	var err error
	switch name {
	case "cold":
		p.calls, err = coldStream(seed)
		p.digestN, p.rssAt = 64, 64
	case "fresh":
		if p.perReplica, p.once, err = freshSetupCalls(); err != nil {
			return nil, err
		}
		p.more, err = freshStream(seed)
		p.digestN, p.rssAt = 1024, 1024
	case "warm":
		if p.workingSet, err = warmSet(seed); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(seed)*7919 + 17))
		for _, c := range p.workingSet {
			s, err := spellings(c, rng)
			if err != nil {
				return nil, err
			}
			p.spell = append(p.spell, s)
		}
		zipf := rand.NewZipf(rng, warmZipfS, 1, warmKeys-1)
		p.pick = func() (int, int) { return int(zipf.Uint64()), rng.Intn(warmVariants) }
		p.rssAt = 4096
	default:
		return nil, fmt.Errorf("unknown API workload %q", name)
	}
	return p, err
}

// warmZipfS is the warm stream's Zipf exponent over working-set ranks.
const warmZipfS = 1.1

// setupOutcome is what a workload's setup learned.
type setupOutcome struct {
	// want holds the bytes each working-set key answered at setup.
	want map[*call][]byte
	// totals holds predict/simulate totals of paired setup requests.
	totals map[*call]float64
}

// sender performs one request against base.
type sender func(base string, c *call, body []byte) reply

// setup runs the workload's warm-up, serially, on a booted tier.
func (p *apiPlan) setup(do sender, router string, replicas []string) (*setupOutcome, error) {
	out := &setupOutcome{want: map[*call][]byte{}, totals: map[*call]float64{}}
	send := func(base string, c *call, body []byte) ([]byte, error) {
		r := do(base, c, body)
		if !r.ok() {
			return nil, fmt.Errorf("setup %s %s: status %d, error %v: %s", c.route, c.body, r.status, r.err, r.body)
		}
		t, err := checkAnswer(c.route, r.body)
		if err != nil {
			return nil, fmt.Errorf("setup %s %s: %v", c.route, c.body, err)
		}
		if c.pair != 0 {
			out.totals[c] = t
		}
		return r.body, nil
	}
	for _, base := range replicas {
		for _, c := range p.perReplica {
			if _, err := send(base, c, c.body); err != nil {
				return nil, err
			}
		}
	}
	for _, c := range p.once {
		if _, err := send(replicas[0], c, c.body); err != nil {
			return nil, err
		}
	}
	for _, c := range p.workingSet {
		b, err := send(router, c, c.body)
		if err != nil {
			return nil, err
		}
		out.want[c] = b
	}
	for i, c := range p.workingSet {
		b, err := send(router, c, p.spell[i][0])
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(b, out.want[c]) {
			return nil, fmt.Errorf("setup replay of %s answered different bytes", c.body)
		}
	}
	return out, nil
}

// next returns the i-th stream request and the body to send.
func (p *apiPlan) next(i int) (*call, []byte, error) {
	if p.pick != nil {
		k, v := p.pick()
		return p.workingSet[k], p.spell[k][v], nil
	}
	for i >= len(p.calls) && p.more != nil {
		cyc, err := p.more()
		if err != nil {
			return nil, nil, err
		}
		p.calls = append(p.calls, cyc...)
	}
	if i >= len(p.calls) {
		return nil, nil, fmt.Errorf("%s stream exhausted after %d requests", p.name, i)
	}
	return p.calls[i], p.calls[i].body, nil
}

func httpSender(hc *http.Client) sender {
	return func(base string, c *call, body []byte) reply { return post(hc, base, c.route, body) }
}

// sample is one measured request.
type sample struct {
	c    *call
	body []byte
	r    reply
	done time.Duration // completion time since the stream started
}

// stream drives the closed loop: one request at a time on one
// connection until the deadline. With a meter it times the host
// reference between requests; completion times leave that time out.
func (p *apiPlan) stream(seconds float64, ref *refMeter, send func(c *call, body []byte) reply) ([]sample, time.Duration, error) {
	var out []sample
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var spent0 time.Duration
	if ref != nil {
		spent0 = ref.spent
	}
	for i := 0; time.Now().Before(deadline); i++ {
		c, body, err := p.next(i)
		if err != nil {
			return nil, 0, err
		}
		r := send(c, body)
		done := time.Since(start)
		if ref != nil {
			done -= ref.spent - spent0
			if err := ref.tick(); err != nil {
				return nil, 0, err
			}
		}
		out = append(out, sample{c: c, body: body, r: r, done: done})
	}
	return out, out[len(out)-1].done, nil
}

// runAPI is the untraced run of an API workload against the real
// binaries.
func runAPI(o opts, p *apiPlan) (*result, error) {
	// The caller is one closed loop: one processor is all it needs, and
	// idle processors of its own would only compete with the tier's.
	runtime.GOMAXPROCS(1)
	ref, err := newRefMeter(true)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	var setupS []float64
	var t *tier
	var so *setupOutcome
	for rep := 0; ; rep++ {
		start := time.Now()
		var err error
		if t, err = bootTier(o.doppio); err != nil {
			return nil, err
		}
		hc := newClient()
		so, err = p.setup(httpSender(hc), "http://"+t.router.addr, []string{"http://" + t.replicas[0].addr, "http://" + t.replicas[1].addr})
		hc.CloseIdleConnections()
		if err != nil {
			t.stop()
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if err := ref.tick(); err != nil {
			t.stop()
			return nil, err
		}
		if rep+1 >= setupReps && sumOf(setupS) >= setupMinSeconds {
			break
		}
		if err := t.stop(); err != nil {
			return nil, err
		}
	}
	hc := newClient()
	base := "http://" + t.router.addr
	sent := 0
	peakMB := 0.0
	var rssErr error
	samples, _, err := p.stream(o.seconds, ref, func(c *call, body []byte) reply {
		r := post(hc, base, c.route, body)
		if sent++; sent == p.rssAt {
			peakMB, rssErr = t.hwmMB()
		}
		return r
	})
	hc.CloseIdleConnections()
	if err == nil && rssErr == nil && sent < p.rssAt {
		fmt.Printf("# peak RSS read at the end: the stream ended after %d of the %d requests it is read after\n", sent, p.rssAt)
		peakMB, rssErr = t.hwmMB()
	}
	stopErr := t.stop()
	for _, e := range []error{err, stopErr, rssErr} {
		if e != nil {
			return nil, e
		}
	}
	fmt.Printf("# peak RSS %.2f MB (router and replicas) after %d stream requests\n", peakMB, min(sent, p.rssAt))
	ev := p.evaluate(samples, so)
	ev.print(p.name, o.seed)
	fmt.Printf("# setup_s: median of %d samples, from %.4f to %.4f s\n", len(setupS), nearestRank(sortedCopy(setupS), 0), nearestRank(sortedCopy(setupS), 1))
	res := &result{
		Correct: ev.failed == 0, Attempted: len(samples), Failed: ev.failed,
		Metrics: endToEnd(ref.scale(map[string]float64{
			"setup_s":           median(setupS),
			"latency_p50_ms":    ev.p50,
			"latency_tail_ms":   ev.tail,
			"throughput_per_s":  ev.throughput,
			"peak_rss_mb":       peakMB,
			"model_err_p90_pct": ev.modelErr,
		})),
	}
	return res, nil
}

// evaluation is the checked outcome of one stream.
type evaluation struct {
	n, failed       int
	misses, hits    int
	p50, tail, tpct float64
	modelErr        float64
	pairs           int
	digest          string
	digestN         int
	classes         map[string]int
	throughput      float64
	windows         int
	windowN         int
	classLat        map[string][]float64
	firstFailure    string
}

// evaluate checks every answer and computes the latency statistics.
func (p *apiPlan) evaluate(samples []sample, so *setupOutcome) *evaluation {
	ev := &evaluation{n: len(samples), classes: map[string]int{}, classLat: map[string][]float64{}}
	lat := make([]float64, 0, len(samples))
	totals := map[*call]float64{}
	for c, t := range so.totals {
		totals[c] = t
	}
	var bodies [][]byte
	fail := func(s sample, why string) {
		ev.failed++
		if ev.firstFailure == "" {
			ev.firstFailure = fmt.Sprintf("%s %s: %s", s.c.route, s.c.body, why)
		}
	}
	for i, s := range samples {
		ev.classes[s.c.class]++
		ms := float64(s.r.lat) / float64(time.Millisecond)
		lat = append(lat, ms)
		ev.classLat[s.c.class] = append(ev.classLat[s.c.class], ms)
		switch s.r.cache {
		case "hit":
			ev.hits++
		case "miss":
			ev.misses++
		}
		if !s.r.ok() {
			fail(s, fmt.Sprintf("status %d, error %v: %.200s", s.r.status, s.r.err, s.r.body))
			continue
		}
		if p.pick != nil {
			if !bytes.Equal(s.r.body, so.want[s.c]) {
				fail(s, "answer differs from the bytes the key answered at setup")
			}
			continue
		}
		t, err := checkAnswer(s.c.route, s.r.body)
		if err != nil {
			fail(s, err.Error())
			continue
		}
		if s.c.pair != 0 {
			totals[s.c] = t
		}
		if i < p.digestN {
			bodies = append(bodies, s.r.body)
		}
	}
	if p.pick != nil {
		for _, c := range p.workingSet {
			bodies = append(bodies, so.want[c])
		}
	}
	ev.digest, ev.digestN = digest(bodies), len(bodies)
	ev.p50 = median(lat)
	ev.tail, ev.tpct, ev.throughput, ev.windows = windowed(samples, lat)
	ev.windowN = len(samples) / ev.windows
	calls := append(append(append([]*call{}, p.perReplica...), p.once...), p.workingSet...)
	for _, s := range samples {
		calls = append(calls, s.c)
	}
	errs := modelErrors(dedupe(calls), totals)
	ev.pairs = len(errs)
	ev.modelErr = nearestRank(sortedCopy(errs), 0.9)
	return ev
}

func dedupe(cs []*call) []*call {
	seen := map[*call]bool{}
	var out []*call
	for _, c := range cs {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// windowSamples is how many requests a window of the stream holds.
const windowSamples = 1000

// windowed splits a stream into consecutive windows of windowSamples
// requests (the last one takes the remainder), applies the tail rule
// and counts completions per second in each, and returns the medians
// over the windows: a stall of the host then moves the windows it hits,
// not the result. A stream too short for two windows is one window.
func windowed(samples []sample, lat []float64) (tailMS, tailPct, perSec float64, windows int) {
	windows = max(1, len(samples)/windowSamples)
	var tails, pcts, rates []float64
	per := len(samples) / windows
	prev := time.Duration(0)
	for w := 0; w < windows; w++ {
		lo, hi := w*per, (w+1)*per
		if w == windows-1 {
			hi = len(samples)
		}
		t, pct, ok := tail(lat[lo:hi])
		if !ok { // too few samples for the rule: report the slowest
			t, pct = nearestRank(sortedCopy(lat[lo:hi]), 1), 100
		}
		tails, pcts = append(tails, t), append(pcts, pct)
		end := samples[hi-1].done
		rates = append(rates, float64(hi-lo)/(end-prev).Seconds())
		prev = end
	}
	return median(tails), median(pcts), median(rates), windows
}

func (ev *evaluation) print(workload string, seed uint64) {
	var cls []string
	for k, v := range ev.classes {
		l := sortedCopy(ev.classLat[k])
		cls = append(cls, fmt.Sprintf("%s %d [p10 %.3f, p50 %.3f, p90 %.3f ms]", k, v,
			nearestRank(l, 0.1), nearestRank(l, 0.5), nearestRank(l, 0.9)))
	}
	sort.Strings(cls)
	fmt.Printf("# %s seed %d: %d requests (%s), %d failed; replica cache %d hit / %d miss\n",
		workload, seed, ev.n, strings.Join(cls, ", "), ev.failed, ev.hits, ev.misses)
	if ev.firstFailure != "" {
		fmt.Printf("# first failure: %s\n", ev.firstFailure)
	}
	fmt.Printf("# latency p50 %.4f ms over %d samples; tail p%.2f %.4f ms (%d samples beyond it in each of %d windows of ~%d samples; median over windows)\n",
		ev.p50, ev.n, ev.tpct, ev.tail, tailBeyond, ev.windows, ev.windowN)
	fmt.Printf("# throughput %.2f/s (median over the windows)\n", ev.throughput)
	fmt.Printf("# model error p90 %.3f%% over %d predict/simulate pairs\n", ev.modelErr, ev.pairs)
	fmt.Printf("# digest %s %s over %d answers\n", workload, ev.digest, ev.digestN)
}

func roundAll(xs []float64, digits int) []float64 {
	out := make([]float64, len(xs))
	f := math.Pow(10, float64(digits))
	for i, x := range xs {
		out[i] = math.Round(x*f) / f
	}
	return out
}
