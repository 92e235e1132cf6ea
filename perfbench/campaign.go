package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
)

// campaignChecked is how many points each run recomputes in-process
// and compares with their checkpoint records.
const campaignChecked = 4

// campaignRefs is how many times the host reference is timed after each
// iteration.
const campaignRefs = 8

// iteration is one `doppio campaign run` + `merge` of the study.
type iteration struct {
	points  int
	elapsed time.Duration
	pointMS []float64 // host time per point, from progress-line arrivals
	names   []string  // the point each progress line reports, in order
	// inPoints is the part of elapsed the run spent on points, on its own
	// timeline: from the first progress line to the last, plus the time
	// the run reports for the first point.
	inPoints time.Duration
	peakMB   float64 // VmHWM of `campaign run`, read at its progress lines
	trend    []byte
	ckpt     string
	failures []string
}

// campaignStudy writes the seeded study config into dir.
func campaignStudy(o opts, dir string) (string, campaign.Config, error) {
	raw, err := os.ReadFile(o.study)
	if err != nil {
		return "", campaign.Config{}, err
	}
	data, err := studyFor(raw, o.seed)
	if err != nil {
		return "", campaign.Config{}, err
	}
	cfg, err := campaign.ParseConfig(data)
	if err != nil {
		return "", campaign.Config{}, err
	}
	path := filepath.Join(dir, "study.json")
	return path, cfg, os.WriteFile(path, data, 0o644)
}

var (
	pointLineRE = regexp.MustCompile(`^# point \d+/\d+ (\S+) .*\((\d+)ms\)$`)
	mergedRE    = regexp.MustCompile(`^# merged (\d+) points from (\d+) checkpoint\(s\), (\d+) duplicate`)
)

// runIteration runs the study once in a fresh checkpoint directory with
// one worker, then merges it.
func runIteration(o opts, study, dir string, want int) (*iteration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	it := &iteration{ckpt: filepath.Join(dir, "points.jsonl")}
	start := time.Now()
	cmd := exec.Command(o.doppio, "campaign", "run", "-config", study, "-checkpoint", it.ckpt, "-parallel", "1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	last := start
	var first time.Time
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if m := pointLineRE.FindStringSubmatch(sc.Text()); m != nil {
			now := time.Now()
			it.pointMS = append(it.pointMS, float64(now.Sub(last))/float64(time.Millisecond))
			it.names = append(it.names, m[1])
			if first.IsZero() {
				first = now
				ms, _ := strconv.Atoi(m[2])
				it.inPoints = time.Duration(ms) * time.Millisecond
			}
			last = now
			// The run's peak so far, read while it runs (a child's
			// rusage would include the benchmark's own peak); the last
			// read that finds the process alive counts.
			if mb, err := vmHWMMB(cmd.Process.Pid); err == nil {
				it.peakMB = mb
			}
			if strings.Contains(sc.Text(), "FAILED") {
				it.failures = append(it.failures, sc.Text())
			}
		}
	}
	if !first.IsZero() {
		it.inPoints += last.Sub(first)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("campaign run: %v: %s", err, stderr.String())
	}
	trendPath := filepath.Join(dir, "trend.json")
	merge := exec.Command(o.doppio, "campaign", "merge", "-config", study,
		"-report", filepath.Join(dir, "report.txt"), "-bench", trendPath, it.ckpt)
	mout, err := merge.Output()
	if err != nil {
		return nil, fmt.Errorf("campaign merge: %v: %s", err, mout)
	}
	it.elapsed = time.Since(start)
	m := mergedRE.FindStringSubmatch(strings.TrimSpace(string(mout)))
	if m == nil {
		return nil, fmt.Errorf("campaign merge printed no summary: %s", mout)
	}
	it.points, _ = strconv.Atoi(m[1])
	if it.points != want || m[2] != "1" || m[3] != "0" || len(it.pointMS) != want {
		it.failures = append(it.failures, fmt.Sprintf("coverage: merged %s points (want %d) from %s checkpoint(s), %s duplicates, %d progress lines",
			m[1], want, m[2], m[3], len(it.pointMS)))
	}
	if it.peakMB == 0 {
		it.failures = append(it.failures, "peak RSS: the run's status could not be read at any progress line")
	}
	if it.trend, err = os.ReadFile(trendPath); err != nil {
		return nil, err
	}
	return it, nil
}

// trendSummary decodes the fields of the trend JSON the checks use.
type trendSummary struct {
	Points map[string]struct {
		ModelErrPct float64 `json:"model_err_pct"`
	} `json:"points"`
	Summary  map[string]float64 `json:"summary"`
	Failures map[string]string  `json:"failures"`
}

func runCampaign(o opts) (*result, error) {
	dir := filepath.Join(o.workdir, "campaign")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	study, cfg, err := campaignStudy(o, dir)
	if err != nil {
		return nil, err
	}
	want := len(cfg.Points())
	ref, err := newRefMeter(false)
	if err != nil {
		return nil, err
	}
	var setupS []float64
	for i := 0; i < setupReps || sumOf(setupS) < setupMinSeconds; i++ {
		start := time.Now()
		if out, err := exec.Command(o.doppio, "campaign", "plan", "-config", study).CombinedOutput(); err != nil {
			return nil, fmt.Errorf("campaign plan: %v: %s", err, out)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if err := ref.tick(); err != nil {
			return nil, err
		}
	}

	var its []*iteration
	var lat, rates []float64
	peak := 0.0
	attempted, failed := 0, 0
	var firstTrend []byte
	var failures []string
	start := time.Now()
	for len(its) == 0 || time.Since(start).Seconds() < o.seconds {
		it, err := runIteration(o, study, filepath.Join(dir, fmt.Sprintf("iter-%d", len(its))), want)
		if err != nil {
			return nil, err
		}
		its = append(its, it)
		for i := 0; i < campaignRefs; i++ {
			if err := ref.now(); err != nil {
				return nil, err
			}
		}
		attempted += want
		lat = append(lat, it.pointMS...)
		rates = append(rates, float64(it.points)/it.elapsed.Seconds())
		if it.peakMB > peak {
			peak = it.peakMB
		}
		if firstTrend == nil {
			firstTrend = it.trend
		} else if !bytes.Equal(firstTrend, it.trend) {
			it.failures = append(it.failures, "trend JSON differs from the first iteration's")
		}
		var ts trendSummary
		if err := json.Unmarshal(it.trend, &ts); err != nil {
			it.failures = append(it.failures, "trend JSON: "+err.Error())
		} else if int(ts.Summary["points"]) != want || ts.Summary["points_failed"] != 0 || len(ts.Points) != want {
			it.failures = append(it.failures, fmt.Sprintf("trend summary %v", ts.Summary))
		}
		if len(it.failures) > 0 {
			failed += want
			failures = append(failures, it.failures...)
		}
	}
	// Recompute a seeded sample of points in-process and compare them
	// with the last iteration's checkpoint records.
	checkFailures, err := recheckPoints(cfg, its[len(its)-1].ckpt, o.seed)
	if err != nil {
		return nil, err
	}
	attempted += campaignChecked
	failed += len(checkFailures)
	failures = append(failures, checkFailures...)

	var ts trendSummary
	if err := json.Unmarshal(firstTrend, &ts); err != nil {
		return nil, err
	}
	var errs []float64
	for _, p := range ts.Points {
		errs = append(errs, p.ModelErrPct)
	}
	modelErr := nearestRank(sortedCopy(errs), 0.9)
	p50 := median(lat)
	tl, tpct, _ := tail(lat)
	sum := sha256.Sum256(firstTrend)
	fmt.Printf("# campaign seed %d: %d iterations of %d points, %d failed\n", o.seed, len(its), want, failed)
	for i, f := range failures {
		if i == 3 {
			break
		}
		fmt.Printf("# failure: %s\n", f)
	}
	fmt.Printf("# point latency p50 %.4f ms; tail p%.2f %.4f ms (%d samples beyond it, of %d)\n", p50, tpct, tl, tailBeyond, len(lat))
	fmt.Printf("# iteration throughput %v points/s\n", roundAll(rates, 2))
	fmt.Printf("# model error p90 %.3f%% over %d points\n", modelErr, len(errs))
	fmt.Printf("# digest campaign %s over the trend JSON\n", hex.EncodeToString(sum[:])[:16])
	fmt.Printf("# setup_s: median of %d samples, from %.4f to %.4f s\n", len(setupS), nearestRank(sortedCopy(setupS), 0), nearestRank(sortedCopy(setupS), 1))
	return &result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: endToEnd(ref.scale(map[string]float64{
			"setup_s":           median(setupS),
			"latency_p50_ms":    p50,
			"latency_tail_ms":   tl,
			"throughput_per_s":  median(rates),
			"peak_rss_mb":       peak,
			"model_err_p90_pct": modelErr,
		})),
	}, nil
}

// recheckPoints recomputes a seeded sample of the study's points with
// campaign.EvaluatePoint and compares each with its checkpoint record.
func recheckPoints(cfg campaign.Config, ckpt string, seed uint64) ([]string, error) {
	cp, err := campaign.ReadCheckpoint(ckpt)
	if err != nil {
		return nil, err
	}
	byIndex := map[int]campaign.Record{}
	for _, r := range cp.Records {
		byIndex[r.Index] = r
	}
	points := cfg.Points()
	rng := rand.New(rand.NewSource(int64(seed) + 99))
	var failures []string
	for _, i := range rng.Perm(len(points))[:campaignChecked] {
		p := points[i]
		rec, ok := byIndex[p.Index]
		if !ok {
			failures = append(failures, fmt.Sprintf("point %s has no checkpoint record", p.Name()))
			continue
		}
		got, err := campaign.EvaluatePoint(context.Background(), cfg, p)
		if err != nil {
			failures = append(failures, fmt.Sprintf("point %s: %v", p.Name(), err))
			continue
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(rec.Result)
		if !bytes.Equal(a, b) || rec.Error != "" {
			failures = append(failures, fmt.Sprintf("point %s: recomputed %s, checkpoint %s %s", p.Name(), a, b, rec.Error))
		}
	}
	return failures, nil
}
