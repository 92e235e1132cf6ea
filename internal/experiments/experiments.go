// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment produces a Table (rows/series in the same
// shape the paper reports) and is addressable by the paper artifact id
// ("fig2", "tab4", ...). The bench harness (bench_test.go) and the
// doppio CLI both drive this registry.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/spark"
	"repro/internal/units"
	"repro/internal/workloads"
)

// Table is a reproduced paper artifact in tabular form.
type Table struct {
	// ID is the registry key ("fig7").
	ID string
	// Title describes the artifact ("Fig. 7: GATK4 measured vs model").
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells, one slice per row.
	Rows [][]string
	// Notes carry the paper-expected values and any calibration caveats.
	Notes []string
	// Metrics exposes headline numbers (average error rates, gap
	// ratios, savings) for programmatic assertions by the test suite
	// and benches.
	Metrics map[string]float64
}

// SetMetric records a headline number.
func (t *Table) SetMetric(name string, v float64) {
	if t.Metrics == nil {
		t.Metrics = map[string]float64{}
	}
	t.Metrics[name] = v
}

// AddRow appends a row from formatted values.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// WriteTo renders the table with aligned columns.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	fmt.Fprintf(cw, "## %s — %s\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(cw, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return cw.n, err
	}
	for _, n := range t.Notes {
		fmt.Fprintf(cw, "# %s\n", n)
	}
	return cw.n, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Experiment is one reproducible paper artifact. Run receives the
// runner's context (already carrying the per-artifact deadline, if
// any); long multi-point artifacts should check it between points so
// cancellation and timeouts take effect promptly.
type Experiment struct {
	ID    string
	Title string
	Run   func(context.Context) (*Table, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	return e, nil
}

// IDs lists registered experiments in a stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// --- shared helpers -------------------------------------------------

func fmtMin(d time.Duration) string   { return fmt.Sprintf("%.1f", d.Minutes()) }
func fmtPct(v float64) string         { return fmt.Sprintf("%.1f%%", v*100) }
func fmtUSD(v float64) string         { return fmt.Sprintf("$%.2f", v) }
func fmtRate(r units.Rate) string     { return r.String() }
func fmtGB(b units.ByteSize) string   { return fmt.Sprintf("%.0f", b.GBytes()) }
func fmtX(v float64) string           { return fmt.Sprintf("%.1fx", v) }
func fmtSize(b units.ByteSize) string { return b.String() }

// mustWorkload resolves a registered workload.
func mustWorkload(name string) workloads.Workload {
	w, err := workloads.Get(name)
	if err != nil {
		panic(err)
	}
	return w
}

// runSim runs a workload on a config.
func runSim(w workloads.Workload, cfg spark.ClusterConfig) (*spark.Result, error) {
	return spark.Run(cfg, w.Build(cfg))
}

// phaseTime aggregates stage durations of a result by name prefix.
func phaseTime(res *spark.Result, prefix string) time.Duration {
	var total time.Duration
	for _, s := range res.Stages {
		if strings.HasPrefix(s.Name, prefix) {
			total += s.Duration()
		}
	}
	return total
}

// phasePrediction aggregates predicted stage times by name prefix.
func phasePrediction(pred core.AppPrediction, prefix string) time.Duration {
	var total time.Duration
	for _, s := range pred.Stages {
		if strings.HasPrefix(s.Name, prefix) {
			total += s.T
		}
	}
	return total
}

// --- calibration ---------------------------------------------------

// calCache is where artifacts calibrate: calib.Shared, the process-wide
// cache campaigns and the CLI use too, so two artifacts (or an artifact
// and a campaign) asking for one calibration share one build. Tests
// substitute a fresh cache.
var calCache = calib.Shared

// calStats counts one artifact's calibration-cache activity. The runner
// installs a collector in the artifact's context; the report and the
// table metrics surface the counts so CI can watch cache effectiveness
// (a regression that stops sharing calibrations shows up as a lookup or
// miss count shift, long before it shows up as wall-clock time).
type calStats struct {
	mu           sync.Mutex
	hits, misses int
}

func (s *calStats) record(hit bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if hit {
		s.hits++
	} else {
		s.misses++
	}
}

// counts snapshots (hits, misses).
func (s *calStats) counts() (int, int) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

type calStatsKey struct{}

// withCalStats returns a context carrying a fresh collector plus the
// collector itself.
func withCalStats(ctx context.Context) (context.Context, *calStats) {
	s := &calStats{}
	return context.WithValue(ctx, calStatsKey{}, s), s
}

// calStatsFrom extracts the collector; nil (a no-op recorder) when the
// caller did not install one.
func calStatsFrom(ctx context.Context) *calStats {
	s, _ := ctx.Value(calStatsKey{}).(*calStats)
	return s
}

// calibrated returns r's calibration from calCache and counts the
// lookup in ctx's artifact stats. A lookup that joins a calibration
// still in flight is a hit: this caller spends no sample runs of its own.
func calibrated(ctx context.Context, r calib.Recipe) (*core.Calibration, error) {
	cal, hit, err := calib.For(calCache, r)
	calStatsFrom(ctx).record(hit)
	return cal, err
}

// SharedTestbedCalibration calibrates a workload on the paper's
// physical testbed devices. Section V profiles on the evaluation cluster
// itself (ten slaves) and varies P and the disks, so the sample runs use
// the same slave count: RDD cache-or-persist decisions depend on cluster
// memory, and the fitted δ constants must live at the target scale. The
// campaign runner's model mode calibrates here too, so a campaign
// sharing a workload with an artifact run (or with its own sibling
// points) reuses one fitted model.
func SharedTestbedCalibration(ctx context.Context, workload string) (*core.Calibration, error) {
	return calibrated(ctx, calib.Testbed(workload, 10))
}
