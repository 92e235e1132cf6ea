package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve"
)

// newClient returns an HTTP client that holds at most one connection:
// every API workload is one closed-loop caller.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// reply is one answered request as the client saw it.
type reply struct {
	status   int
	body     []byte
	cache    string // X-Cache: hit or miss at the replica
	hot      bool   // X-Route-Cache: hit, answered by the router
	servedBy string // X-Served-By
	attempts int    // X-Route-Attempts
	lat      time.Duration
	err      error
}

func (r reply) ok() bool { return r.err == nil && r.status == http.StatusOK }

// post sends one request and reads the whole answer.
func post(hc *http.Client, base, route string, body []byte) reply {
	start := time.Now()
	resp, err := hc.Post(base+route, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err, lat: time.Since(start)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{
		status: resp.StatusCode, body: b, err: err, lat: time.Since(start),
		cache:    resp.Header.Get("X-Cache"),
		hot:      resp.Header.Get("X-Route-Cache") == "hit",
		servedBy: resp.Header.Get("X-Served-By"),
	}
	r.attempts, _ = strconv.Atoi(resp.Header.Get("X-Route-Attempts"))
	return r
}

// finitePos reports whether x is a finite, strictly positive number.
func finitePos(x float64) bool { return x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) }

// checkAnswer decodes a 200 answer for its route and checks that every
// total it carries is finite and positive. It returns the headline
// total (seconds) for predict and simulate answers.
func checkAnswer(route string, body []byte) (total float64, err error) {
	switch route {
	case routePredict:
		var r serve.PredictResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return 0, err
		}
		if !finitePos(r.TotalSeconds) || len(r.Stages) == 0 {
			return 0, fmt.Errorf("predict total %v over %d stages", r.TotalSeconds, len(r.Stages))
		}
		return r.TotalSeconds, nil
	case routeSimulate:
		var r serve.SimulateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return 0, err
		}
		if !finitePos(r.TotalSeconds) || !finitePos(r.CoreSeconds) || len(r.Stages) == 0 {
			return 0, fmt.Errorf("simulate total %v, core seconds %v", r.TotalSeconds, r.CoreSeconds)
		}
		return r.TotalSeconds, nil
	case routeWhatif:
		var r serve.WhatifResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return 0, err
		}
		if len(r.Points) == 0 {
			return 0, fmt.Errorf("whatif has no points")
		}
		for _, p := range r.Points {
			if !finitePos(p.TotalSeconds) {
				return 0, fmt.Errorf("whatif point at %d cores: total %v", p.Cores, p.TotalSeconds)
			}
		}
	case routeRecommend:
		var r serve.RecommendResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return 0, err
		}
		if r.Evaluated+r.Pruned != r.SpaceSize || r.SpaceSize == 0 {
			return 0, fmt.Errorf("recommend evaluated %d + pruned %d != space %d", r.Evaluated, r.Pruned, r.SpaceSize)
		}
		for _, c := range r.Best {
			if !finitePos(c.TimeMinutes) || !finitePos(c.CostUSD) {
				return 0, fmt.Errorf("recommend candidate %s: %v min, $%v", c.Spec, c.TimeMinutes, c.CostUSD)
			}
		}
		if len(r.References) != 2 {
			return 0, fmt.Errorf("recommend has %d references", len(r.References))
		}
		for _, ref := range r.References {
			if !finitePos(ref.TimeMinutes) || !finitePos(ref.CostUSD) {
				return 0, fmt.Errorf("recommend reference %s: %v min, $%v", ref.Name, ref.TimeMinutes, ref.CostUSD)
			}
		}
	case routeSweep:
		var r serve.SweepResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return 0, err
		}
		if len(r.Points) == 0 {
			return 0, fmt.Errorf("sweep has no points")
		}
		for _, p := range r.Points {
			if p.Err != "" || !finitePos(p.TotalSeconds) {
				return 0, fmt.Errorf("sweep point %s/n%d/p%d: total %v, error %q", p.Workload, p.Nodes, p.Cores, p.TotalSeconds, p.Err)
			}
		}
	default:
		return 0, fmt.Errorf("no answer check for %s", route)
	}
	return 0, nil
}

// maxPairs caps the pairs model error is measured on: the first ones
// generated, which every run of the default length completes, so the
// metric does not depend on how far a run got.
const maxPairs = 32

// modelErrors returns |model − sim| / sim in percent for each of the
// first maxPairs pairs whose predict and simulate totals are both known.
func modelErrors(calls []*call, totals map[*call]float64) []float64 {
	pred := map[int]float64{}
	sim := map[int]float64{}
	for _, c := range calls {
		t, ok := totals[c]
		if c.pair == 0 || c.pair > maxPairs || !ok {
			continue
		}
		if c.pred != nil {
			pred[c.pair] = t
		} else if c.sim != nil {
			sim[c.pair] = t
		}
	}
	var errs []float64
	for id, p := range pred {
		if s, ok := sim[id]; ok && s > 0 {
			errs = append(errs, 100*math.Abs(p-s)/s)
		}
	}
	return errs
}
