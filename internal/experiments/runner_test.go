package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/calib"
	"repro/internal/core"
)

// parallelTestIDs are cheap artifacts (no calibration) used to exercise
// the pool; the CI race job runs these tests with -count=3.
var parallelTestIDs = []string{"tab4", "tab5", "fig5", "fig6"}

// stripRuntime removes the metrics that legitimately differ between
// runs (wall-clock time, the scheduling-dependent cache hit/miss
// split), using the same predicate production comparisons use.
func stripRuntime(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		if NondeterministicMetric(k) {
			continue
		}
		out[k] = v
	}
	return out
}

// TestRegistryParallelMatchesSerial asserts the acceptance criterion:
// every artifact's Rows and Metrics are identical whether regenerated
// serially or through a four-worker pool.
func TestRegistryParallelMatchesSerial(t *testing.T) {
	ids := parallelTestIDs
	if !testing.Short() {
		ids = append(append([]string{}, ids...), "fig2", "errorbars")
	}
	serial, err := RunSet(context.Background(), ids, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSet(context.Background(), ids, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("report counts differ: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		s, p := serial[i], par[i]
		if s.ID != ids[i] || p.ID != ids[i] {
			t.Fatalf("report %d out of order: serial=%s parallel=%s want %s", i, s.ID, p.ID, ids[i])
		}
		if s.Err != nil || p.Err != nil {
			t.Fatalf("%s: serial err=%v parallel err=%v", ids[i], s.Err, p.Err)
		}
		if !reflect.DeepEqual(s.Table.Columns, p.Table.Columns) {
			t.Errorf("%s: columns differ", ids[i])
		}
		if !reflect.DeepEqual(s.Table.Rows, p.Table.Rows) {
			t.Errorf("%s: rows differ\nserial:   %v\nparallel: %v", ids[i], s.Table.Rows, p.Table.Rows)
		}
		if !reflect.DeepEqual(s.Table.Notes, p.Table.Notes) {
			t.Errorf("%s: notes differ", ids[i])
		}
		sm, pm := stripRuntime(s.Table.Metrics), stripRuntime(p.Table.Metrics)
		if !reflect.DeepEqual(sm, pm) {
			t.Errorf("%s: metrics differ\nserial:   %v\nparallel: %v", ids[i], sm, pm)
		}
		if s.Table.Metrics[RuntimeMetric] <= 0 || p.Table.Metrics[RuntimeMetric] <= 0 {
			t.Errorf("%s: missing %s metric", ids[i], RuntimeMetric)
		}
	}
}

// TestRegistryParallelIsolatesFailure asserts that one failing (or
// panicking) artifact is reported in place without cancelling its
// siblings.
func TestRegistryParallelIsolatesFailure(t *testing.T) {
	boom := fmt.Errorf("deliberate failure")
	exps := []Experiment{
		{ID: "ok-1", Title: "ok", Run: func(context.Context) (*Table, error) {
			tab := &Table{ID: "ok-1", Columns: []string{"a"}}
			tab.AddRow("1")
			return tab, nil
		}},
		{ID: "fails", Title: "fails", Run: func(context.Context) (*Table, error) { return nil, boom }},
		{ID: "panics", Title: "panics", Run: func(context.Context) (*Table, error) { panic("deliberate panic") }},
		{ID: "ok-2", Title: "ok", Run: func(context.Context) (*Table, error) {
			tab := &Table{ID: "ok-2", Columns: []string{"a"}}
			tab.AddRow("2")
			return tab, nil
		}},
	}
	for _, parallel := range []int{1, 4} {
		reports := runExperiments(context.Background(), exps, Options{Parallel: parallel})
		if len(reports) != 4 {
			t.Fatalf("parallel=%d: %d reports", parallel, len(reports))
		}
		for i, e := range exps {
			if reports[i].ID != e.ID {
				t.Fatalf("parallel=%d: report %d is %s, want %s", parallel, i, reports[i].ID, e.ID)
			}
		}
		if reports[0].Err != nil || reports[3].Err != nil {
			t.Errorf("parallel=%d: healthy siblings failed: %v, %v", parallel, reports[0].Err, reports[3].Err)
		}
		if reports[1].Err == nil || reports[2].Err == nil {
			t.Errorf("parallel=%d: failures not reported: %v, %v", parallel, reports[1].Err, reports[2].Err)
		}
		if got := Failed(reports); len(got) != 2 {
			t.Errorf("parallel=%d: Failed() = %d reports, want 2", parallel, len(got))
		}
	}
}

// TestRegistryParallelUnknownID asserts upfront resolution: no work
// starts when any id is unknown.
func TestRegistryParallelUnknownID(t *testing.T) {
	if _, err := RunSet(context.Background(), []string{"tab4", "no-such-artifact"}, Options{Parallel: 2}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestRunnerArtifactTimeout asserts the per-artifact deadline: a slow
// artifact is abandoned with context.DeadlineExceeded while fast
// siblings complete and keep their tables.
func TestRunnerArtifactTimeout(t *testing.T) {
	exps := []Experiment{
		{ID: "fast", Title: "fast", Run: func(context.Context) (*Table, error) {
			tab := &Table{ID: "fast", Columns: []string{"a"}}
			tab.AddRow("1")
			return tab, nil
		}},
		{ID: "slow", Title: "slow", Run: func(ctx context.Context) (*Table, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(30 * time.Second):
				return &Table{ID: "slow"}, nil
			}
		}},
		{ID: "stuck", Title: "ignores its context", Run: func(context.Context) (*Table, error) {
			time.Sleep(200 * time.Millisecond) // long past the deadline, never checks ctx
			return &Table{ID: "stuck"}, nil
		}},
	}
	reports := runExperiments(context.Background(), exps, Options{Parallel: 3, ArtifactTimeout: 20 * time.Millisecond})
	if reports[0].Err != nil || reports[0].Table == nil {
		t.Errorf("fast artifact should survive the deadline: %v", reports[0].Err)
	}
	for _, i := range []int{1, 2} {
		if !errors.Is(reports[i].Err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want DeadlineExceeded", reports[i].ID, reports[i].Err)
		}
		if reports[i].Table != nil {
			t.Errorf("%s: timed-out artifact still returned a table", reports[i].ID)
		}
	}
}

// TestRunnerCancellation asserts partial-result semantics: cancelling
// the parent context mid-run stops feeding the pool, artifacts that
// already completed keep their reports, and never-started ones report
// the cancellation cause.
func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mk := func(id string) Experiment {
		return Experiment{ID: id, Title: id, Run: func(context.Context) (*Table, error) {
			tab := &Table{ID: id, Columns: []string{"a"}}
			tab.AddRow("1")
			return tab, nil
		}}
	}
	// "second" cancels the set mid-run, then lingers long enough for the
	// feed loop to observe the cancellation before the worker frees up.
	second := Experiment{ID: "second", Title: "second", Run: func(context.Context) (*Table, error) {
		cancel()
		time.Sleep(50 * time.Millisecond)
		return &Table{ID: "second", Columns: []string{"a"}, Rows: [][]string{{"1"}}}, nil
	}}
	exps := []Experiment{mk("first"), second, mk("third")}
	reports := runExperiments(ctx, exps, Options{Parallel: 1})
	if len(reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(reports))
	}
	// "first" completed before the cancellation and keeps its table.
	if reports[0].Err != nil || reports[0].Table == nil {
		t.Errorf("completed artifact lost: err=%v", reports[0].Err)
	}
	// "third" was never dispatched and reports the cancellation.
	if !errors.Is(reports[2].Err, context.Canceled) {
		t.Errorf("third: err = %v, want Canceled", reports[2].Err)
	}
}

// TestRunnerPreCancelled: a context cancelled before the call yields a
// full slate of not-started reports and returns promptly.
func TestRunnerPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reports, err := RunSet(ctx, parallelTestIDs, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(parallelTestIDs) {
		t.Fatalf("got %d reports, want %d", len(reports), len(parallelTestIDs))
	}
	for _, r := range reports {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want Canceled", r.ID, r.Err)
		}
	}
}

// TestRegistryParallelStress hammers the pool from several goroutines at
// once — the race detector's view of the registry, the calibration
// cache and the table builders. CI runs it with -count=3 under -race.
func TestRegistryParallelStress(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports, err := RunSet(context.Background(), parallelTestIDs, Options{Parallel: len(parallelTestIDs)})
			if err != nil {
				t.Error(err)
				return
			}
			for _, r := range reports {
				if r.Err != nil {
					t.Errorf("%s: %v", r.ID, r.Err)
				}
			}
		}()
	}
	wg.Wait()
}

// freshCalCache points the artifacts at an empty calibration cache for
// the rest of the test.
func freshCalCache(t *testing.T) *calib.Cache {
	old := calCache
	calCache = calib.NewCache(16)
	t.Cleanup(func() { calCache = old })
	return calCache
}

// TestRegistryParallelCalibrationSingleflight checks the artifacts'
// calibration path end to end under concurrency: concurrent lookups of
// one recipe share one calibration, different recipes calibrate side by
// side, and a failed calibration is retried rather than cached. The sql
// recipes are the registry's cheapest (four ~10 ms sample runs).
func TestRegistryParallelCalibrationSingleflight(t *testing.T) {
	cache := freshCalCache(t)
	recipes := []calib.Recipe{calib.Testbed("sql", 1), calib.Testbed("sql", 2), calib.Cloud("sql")}
	var wg sync.WaitGroup
	got := make([]*core.Calibration, 32*len(recipes))
	for i := 0; i < 32; i++ {
		for j, r := range recipes {
			wg.Add(1)
			go func(slot int, r calib.Recipe) {
				defer wg.Done()
				c, err := calibrated(context.Background(), r)
				if err != nil {
					t.Error(err)
				}
				got[slot] = c
			}(i*len(recipes)+j, r)
		}
	}
	wg.Wait()
	if st := cache.Stats(); st.Misses != uint64(len(recipes)) || st.Hits != uint64(31*len(recipes)) {
		t.Errorf("cache stats %+v, want one calibration per recipe (%d)", st, len(recipes))
	}
	for i := 1; i < 32; i++ {
		for j := range recipes {
			if got[i*len(recipes)+j] != got[j] {
				t.Errorf("%s: callers saw different calibrations", recipes[j].Key())
			}
		}
	}

	// Failure path: nothing is cached, so the next call calibrates again.
	missing := calib.Testbed("no-such-workload", 3)
	for i := 0; i < 2; i++ {
		if _, err := calibrated(context.Background(), missing); err == nil {
			t.Fatal("calibrating an unknown workload succeeded")
		}
	}
	if st := cache.Stats(); st.Misses != uint64(len(recipes))+2 {
		t.Errorf("misses = %d after two failed calibrations, want %d (failures must not cache)", st.Misses, len(recipes)+2)
	}
}

// TestRegistryParallelSpeedup asserts the pool actually buys wall-clock
// time on sim-heavy artifacts: a four-worker RunSet must finish faster
// than the same set run serially (acceptance criterion on >=4 cores).
func TestRegistryParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison needs the sim-heavy artifacts")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skip("needs >=4 cores for a meaningful comparison")
	}
	ids := []string{"fig2", "fig3", "errorbars", "fig6"}
	start := time.Now()
	if _, err := RunSet(context.Background(), ids, Options{Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	serial := time.Since(start)
	start = time.Now()
	if _, err := RunSet(context.Background(), ids, Options{Parallel: 4}); err != nil {
		t.Fatal(err)
	}
	parallel := time.Since(start)
	t.Logf("serial %v, parallel %v (%.2fx)", serial, parallel, serial.Seconds()/parallel.Seconds())
	if parallel >= serial {
		t.Errorf("parallel RunSet (%v) not faster than serial (%v)", parallel, serial)
	}
}

// TestRunReportsCalibrationCacheStats checks the runner threads the
// calibration-cache counters into the report and the table metrics: an
// artifact that asks for the same calibration three times pays one miss
// and two hits, and an artifact that never calibrates carries no cache
// metrics at all.
func TestRunReportsCalibrationCacheStats(t *testing.T) {
	freshCalCache(t)
	calibrating := Experiment{ID: "cache-stats", Title: "calibrating artifact",
		Run: func(ctx context.Context) (*Table, error) {
			for i := 0; i < 3; i++ {
				if _, err := calibrated(ctx, calib.Testbed("sql", 3)); err != nil {
					return nil, err
				}
			}
			return &Table{ID: "cache-stats", Title: "t"}, nil
		}}
	plain := Experiment{ID: "plain", Title: "no calibration",
		Run: func(context.Context) (*Table, error) {
			return &Table{ID: "plain", Title: "t"}, nil
		}}
	reports := runExperiments(context.Background(), []Experiment{calibrating, plain}, Options{Parallel: 1})

	r := reports[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.CacheMisses != 1 || r.CacheHits != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/1", r.CacheHits, r.CacheMisses)
	}
	if got := r.Table.Metrics[CacheLookupsMetric]; got != 3 {
		t.Errorf("%s = %v, want 3", CacheLookupsMetric, got)
	}
	if got := r.Table.Metrics[CacheHitsMetric]; got != 2 {
		t.Errorf("%s = %v, want 2", CacheHitsMetric, got)
	}
	if got := r.Table.Metrics[CacheMissesMetric]; got != 1 {
		t.Errorf("%s = %v, want 1", CacheMissesMetric, got)
	}

	p := reports[1]
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if p.CacheHits != 0 || p.CacheMisses != 0 {
		t.Errorf("plain artifact counted cache traffic: %d/%d", p.CacheHits, p.CacheMisses)
	}
	for _, k := range []string{CacheHitsMetric, CacheMissesMetric, CacheLookupsMetric} {
		if _, ok := p.Table.Metrics[k]; ok {
			t.Errorf("plain artifact has %s metric", k)
		}
	}
}

func TestNondeterministicMetricPredicate(t *testing.T) {
	for _, k := range []string{
		RuntimeMetric, CacheHitsMetric, CacheMissesMetric,
		"doppio_cluster_retries_total", "doppio_cluster_failovers_total",
		"doppio_cluster_probes_total",
	} {
		if !NondeterministicMetric(k) {
			t.Errorf("%s should be nondeterministic", k)
		}
	}
	for _, k := range []string{
		CacheLookupsMetric, "avg_error",
		"doppio_cluster_replica_healthy", "doppio_cluster_breaker_state",
	} {
		if NondeterministicMetric(k) {
			t.Errorf("%s should be deterministic", k)
		}
	}
}
