package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// run invokes the CLI and returns (stdout, stderr, exit code).
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errW strings.Builder
	code := Main(args, &out, &errW)
	return out.String(), errW.String(), code
}

func TestNoArgsShowsUsage(t *testing.T) {
	_, errOut, code := run(t)
	if code != 2 {
		t.Errorf("exit = %d", code)
	}
	if !strings.Contains(errOut, "doppio") {
		t.Error("usage missing")
	}
}

func TestUnknownCommand(t *testing.T) {
	_, _, code := run(t, "frobnicate")
	if code != 2 {
		t.Errorf("exit = %d", code)
	}
}

func TestHelp(t *testing.T) {
	out, _, code := run(t, "help")
	if code != 0 || !strings.Contains(out, "experiments") {
		t.Errorf("help: code=%d out=%q", code, out)
	}
}

func TestExperimentsList(t *testing.T) {
	out, _, code := run(t, "experiments")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"fig7", "tab4", "headline", "scheduler"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiments list missing %s", want)
		}
	}
}

func TestWorkloadsList(t *testing.T) {
	out, _, code := run(t, "workloads")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"gatk4", "terasort", "pagerank"} {
		if !strings.Contains(out, want) {
			t.Errorf("workloads list missing %s", want)
		}
	}
}

func TestRunExperimentFormats(t *testing.T) {
	out, _, code := run(t, "run", "tab5")
	if code != 0 || !strings.Contains(out, "SSD provisioned space") {
		t.Errorf("run tab5: code=%d", code)
	}
	csvOut, _, code := run(t, "run", "-format", "csv", "tab5")
	if code != 0 || !strings.Contains(csvOut, "type,price") {
		t.Errorf("csv output: code=%d out=%q", code, csvOut)
	}
	mdOut, _, code := run(t, "run", "-format", "md", "tab5")
	if code != 0 || !strings.Contains(mdOut, "| type |") {
		t.Errorf("md output: code=%d out=%q", code, mdOut)
	}
	_, _, code = run(t, "run", "-format", "xml", "tab5")
	if code != 1 {
		t.Errorf("bad format exit = %d", code)
	}
	_, _, code = run(t, "run", "no-such-figure")
	if code != 1 {
		t.Errorf("unknown experiment exit = %d", code)
	}
	_, _, code = run(t, "run")
	if code != 1 {
		t.Errorf("missing id exit = %d", code)
	}
}

// TestRunParallelOrderedOutput asserts that pool execution keeps tables
// in the requested order, prints per-artifact timings and closes a
// multi-artifact run with the summary footer.
func TestRunParallelOrderedOutput(t *testing.T) {
	out, _, code := run(t, "run", "-parallel", "4", "tab4", "tab5", "fig5", "fig6")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	prev := -1
	for _, id := range []string{"## tab4", "## tab5", "## fig5", "## fig6"} {
		i := strings.Index(out, id)
		if i < 0 {
			t.Fatalf("output missing %q", id)
		}
		if i < prev {
			t.Errorf("%q rendered out of order", id)
		}
		prev = i
	}
	if n := strings.Count(out, "# regenerated in"); n != 4 {
		t.Errorf("%d per-artifact timing lines, want 4", n)
	}
	if !strings.Contains(out, "# total: 4 artifacts in") || !strings.Contains(out, "pool speedup") {
		t.Errorf("summary footer missing:\n%s", out)
	}
}

// TestRunParallelMatchesSerialOutput asserts byte-identical rendering
// (CSV has no timing lines) between serial and pooled runs.
func TestRunParallelMatchesSerialOutput(t *testing.T) {
	serial, _, code := run(t, "run", "-format", "csv", "-parallel", "1", "tab4", "fig5", "tab5")
	if code != 0 {
		t.Fatalf("serial exit = %d", code)
	}
	parallel, _, code := run(t, "run", "-format", "csv", "-parallel", "3", "tab4", "fig5", "tab5")
	if code != 0 {
		t.Fatalf("parallel exit = %d", code)
	}
	if serial != parallel {
		t.Errorf("serial and parallel CSV output differ:\n--- serial\n%s\n--- parallel\n%s", serial, parallel)
	}
}

func TestFio(t *testing.T) {
	out, _, code := run(t, "fio")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"WD4000FYYZ", "SAMSUNG", "30KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("fio output missing %s", want)
		}
	}
}

func TestSim(t *testing.T) {
	out, _, code := run(t, "sim", "-slaves", "3", "-cores", "8", "-local", "hdd", "-iostat", "-blocked", "svm")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"subtract", "avgrq-sz", "blocked-on-I/O"} {
		if !strings.Contains(out, want) {
			t.Errorf("sim output missing %q", want)
		}
	}
	_, _, code = run(t, "sim", "nonexistent-workload")
	if code != 1 {
		t.Errorf("unknown workload exit = %d", code)
	}
	_, _, code = run(t, "sim")
	if code != 1 {
		t.Errorf("missing workload exit = %d", code)
	}
	_, _, code = run(t, "sim", "-local", "floppy", "svm")
	if code != 1 {
		t.Errorf("bad device exit = %d", code)
	}
	// Flags after the workload are flags, and mean what they mean
	// before it; after "--" everything is a positional argument.
	first, _, _ := run(t, "sim", "-slaves", "3", "-cores", "8", "-iostat", "-blocked", "svm")
	mixed, errOut, code := run(t, "sim", "-slaves", "3", "-cores", "8", "svm", "-iostat", "-blocked")
	if code != 0 || mixed != first {
		t.Errorf("flags after the workload: exit = %d (%s), output equal to flags-first: %v", code, errOut, mixed == first)
	}
	_, _, code = run(t, "sim", "svm", "--", "-iostat")
	if code != 1 {
		t.Errorf("sim svm -- -iostat exit = %d, want 1 (two workloads)", code)
	}
}

// TestParseArgs checks that flags parse after positional arguments and
// that "--" ends flag parsing. The first three forms are how perfbench
// invokes campaign run, merge and plan; they parse as flag.Parse
// parses them.
func TestParseArgs(t *testing.T) {
	for _, c := range []struct {
		args   []string
		pos    string
		config string
		n      int
		q      bool
	}{
		{[]string{"-config", "S", "-checkpoint", "C", "-parallel", "1"}, "", "S", 1, false},
		{[]string{"-config", "S", "-report", "R", "-bench", "T", "C"}, "C", "S", 0, false},
		{[]string{"-config", "S"}, "", "S", 0, false},
		{[]string{"a", "-parallel", "2", "b", "-q"}, "a b", "", 2, true},
		{[]string{"-q", "--", "-parallel", "2"}, "-parallel 2", "", 0, true},
		{[]string{"a", "--", "-q", "--"}, "a -q --", "", 0, false},
		{[]string{"-", "-q"}, "-", "", 0, true},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		for _, name := range []string{"checkpoint", "report", "bench"} {
			fs.String(name, "", "")
		}
		config, n, q := fs.String("config", "", ""), fs.Int("parallel", 0, ""), fs.Bool("q", false, "")
		pos, err := parseArgs(fs, c.args)
		if got := strings.Join(pos, " "); err != nil || got != c.pos || *config != c.config || *n != c.n || *q != c.q {
			t.Errorf("%q: positionals %q, -config %q, -parallel %d, -q %v, err %v", c.args, got, *config, *n, *q, err)
		}
	}
}

func TestSimVirtualDisks(t *testing.T) {
	out, _, code := run(t, "sim", "-slaves", "2", "-cores", "4",
		"-hdfs", "pd-standard:1TB", "-local", "pd-ssd:200GB", "svm")
	if code != 0 || !strings.Contains(out, "subtract") {
		t.Errorf("virtual-disk sim failed: code=%d", code)
	}
}

func TestPredict(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a calibration")
	}
	out, _, code := run(t, "predict", "-slaves", "4", "-cores", "12", "-local", "hdd", "svm")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"calibrating", "TOTAL", "bottleneck"} {
		if !strings.Contains(out, want) {
			t.Errorf("predict output missing %q", want)
		}
	}
}

func TestOptimize(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a calibration plus a grid search")
	}
	out, _, code := run(t, "optimize", "-slaves", "3", "-workload", "svm", "-top", "3")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"configuration", "reference R1", "reference R2"} {
		if !strings.Contains(out, want) {
			t.Errorf("optimize output missing %q", want)
		}
	}
	out2, _, code := run(t, "optimize", "-slaves", "3", "-workload", "svm", "-descend")
	if code != 0 || !strings.Contains(out2, "best after") {
		t.Errorf("descend output: code=%d", code)
	}
}

func TestRecommend(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a calibration plus a constrained search")
	}
	// A loose deadline keeps the space feasible while still exercising the
	// pruning path; the footer must account for the whole space.
	out, _, code := run(t, "recommend", "-slaves", "3", "-workload", "svm", "-top", "3", "-deadline", "600")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"configuration", "# evaluated"} {
		if !strings.Contains(out, want) {
			t.Errorf("recommend output missing %q", want)
		}
	}
	var evaluated, pruned, total int
	if _, err := fmt.Sscanf(out[strings.Index(out, "# evaluated"):],
		"# evaluated %d, pruned %d, total %d", &evaluated, &pruned, &total); err != nil {
		t.Fatalf("footer did not parse: %v\n%s", err, out)
	}
	if evaluated+pruned != total || total == 0 {
		t.Errorf("accounting: evaluated=%d pruned=%d total=%d", evaluated, pruned, total)
	}

	// -no-prune runs the exhaustive reference path: same candidates, every
	// point evaluated.
	out2, _, code := run(t, "recommend", "-slaves", "3", "-workload", "svm", "-top", "3", "-deadline", "600", "-no-prune")
	if code != 0 {
		t.Fatalf("no-prune exit = %d", code)
	}
	var evaluated2, pruned2, total2 int
	if _, err := fmt.Sscanf(out2[strings.Index(out2, "# evaluated"):],
		"# evaluated %d, pruned %d, total %d", &evaluated2, &pruned2, &total2); err != nil {
		t.Fatalf("no-prune footer did not parse: %v\n%s", err, out2)
	}
	if evaluated2 != total2 || pruned2 != 0 || total2 != total {
		t.Errorf("no-prune accounting: evaluated=%d pruned=%d total=%d", evaluated2, pruned2, total2)
	}
	// Candidate tables (everything between the header and the footer) must
	// agree between the two modes.
	table := func(s string) string {
		return s[strings.Index(s, "configuration"):strings.Index(s, "# evaluated")]
	}
	if table(out) != table(out2) {
		t.Errorf("pruned and no-prune tables differ:\n%s\nvs\n%s", table(out), table(out2))
	}

	if _, _, code := run(t, "recommend", "-deadline", "-5"); code == 0 {
		t.Error("negative deadline should fail")
	}
}

func TestWhatif(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a calibration")
	}
	out, _, code := run(t, "whatif", "-slaves", "3", "-local", "hdd", "-maxcores", "16", "svm")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"total(min)", "bottlenecks", "calibrating"} {
		if !strings.Contains(out, want) {
			t.Errorf("whatif output missing %q", want)
		}
	}
}

func TestPredictSaveLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a calibration")
	}
	path := t.TempDir() + "/model.json"
	out, _, code := run(t, "predict", "-slaves", "3", "-cores", "8", "-save", path, "svm")
	if code != 0 || !strings.Contains(out, "saved calibrated model") {
		t.Fatalf("save: code=%d", code)
	}
	out2, _, code := run(t, "predict", "-slaves", "3", "-cores", "8", "-load", path, "svm")
	if code != 0 || !strings.Contains(out2, "loaded calibrated model") {
		t.Fatalf("load: code=%d out=%q", code, out2)
	}
	if !strings.Contains(out2, "TOTAL") {
		t.Error("loaded-model prediction missing")
	}
	_, _, code = run(t, "predict", "-load", "/nonexistent.json", "svm")
	if code != 1 {
		t.Errorf("missing model file exit = %d", code)
	}
}

// TestRunArtifactTimeout is the acceptance check: an absurdly small
// per-artifact deadline must produce per-artifact failure reports and a
// clean (non-panicking) nonzero exit, not a hang or a crash.
func TestRunArtifactTimeout(t *testing.T) {
	// tab4 regenerates simulator runs (hundreds of ms); tab5 is a static
	// price table that normally beats even a 1ms deadline — together they
	// show a timed-out artifact failing in place while the run continues.
	out, errOut, code := run(t, "run", "-timeout", "1ms", "tab4", "tab5")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(out, "# FAILED tab4") || !strings.Contains(out, "deadline exceeded") {
		t.Errorf("tab4 should fail with a deadline error:\n%s", out)
	}
	if !strings.Contains(errOut, "artifacts failed") {
		t.Errorf("summary error missing: %q", errOut)
	}
}

// TestRunCancelledContext drives runMain with an already-cancelled
// context — the SIGINT path without delivering a signal. Artifacts
// never started must be reported, and the command must still exit in
// an orderly way.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errW strings.Builder
	code := runMain(ctx, []string{"run", "tab4", "tab5"}, &out, &errW)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "context canceled") {
		t.Errorf("cancelled artifacts not reported:\n%s", out.String())
	}
}

// TestSimFaultFlags exercises the fault-injection flags end to end: a
// faulty run must carry the faults summary line, and out-of-range
// probabilities must be rejected at flag-validation time.
func TestSimFaultFlags(t *testing.T) {
	out, _, code := run(t, "sim", "-slaves", "3", "-cores", "8",
		"-fail-prob", "0.02", "-fetch-fail-prob", "0.05", "-fault-seed", "7", "svm")
	if code != 0 {
		t.Fatalf("faulty sim exit = %d", code)
	}
	if !strings.Contains(out, "# faults:") {
		t.Errorf("faulty sim output missing the faults summary:\n%s", out)
	}
	_, errOut, code := run(t, "sim", "-fail-prob", "1.5", "svm")
	if code != 1 || !strings.Contains(errOut, "TaskFailureProb") {
		t.Errorf("bad -fail-prob: code=%d err=%q", code, errOut)
	}
	_, errOut, code = run(t, "sim", "-retry-backoff", "-1", "svm")
	if code != 1 || !strings.Contains(errOut, "RetryBackoff") {
		t.Errorf("bad -retry-backoff: code=%d err=%q", code, errOut)
	}
}

// TestDeviceZeroSizeRejected: a zero-sized virtual disk must fail flag
// parsing instead of producing a zero-bandwidth device.
func TestDeviceZeroSizeRejected(t *testing.T) {
	_, errOut, code := run(t, "sim", "-local", "pd-ssd:0GB", "svm")
	if code != 1 || !strings.Contains(errOut, "size must be positive") {
		t.Errorf("zero-sized device: code=%d err=%q", code, errOut)
	}
}

func TestSimStragglersAndSpeculation(t *testing.T) {
	out, _, code := run(t, "sim", "-slaves", "3", "-cores", "8",
		"-stragglers", "0.05", "-speculate", "-seed", "7", "svm")
	if code != 0 || !strings.Contains(out, "subtract") {
		t.Fatalf("straggler sim: code=%d", code)
	}
}

// TestRunWritesProfiles checks the pprof hooks: -cpuprofile and
// -memprofile must leave non-empty profile files behind a successful
// artifact run.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	_, _, code := run(t, "run", "-cpuprofile", cpu, "-memprofile", mem, "tab5")
	if code != 0 {
		t.Fatalf("run exit = %d", code)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	// An unwritable profile path must fail up front, not mid-run.
	_, _, code = run(t, "run", "-cpuprofile", filepath.Join(dir, "no-such-dir", "x"), "tab5")
	if code != 1 {
		t.Errorf("bad cpuprofile path exit = %d", code)
	}
}

// TestCampaignRunWritesProfiles checks the same pprof hooks on the
// campaign runner, which is where degraded-mode profiling sessions
// actually happen (docs/CI.md).
func TestCampaignRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	config := filepath.Join(dir, "study.json")
	study := `{"name":"prof","base":{"workload":"sql"},"axes":{"nodes":[2],"seeds":[1]}}`
	if err := os.WriteFile(config, []byte(study), 0o644); err != nil {
		t.Fatal(err)
	}
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	ckpt := filepath.Join(dir, "c.jsonl")
	_, errOut, code := run(t, "campaign", "run", "-config", config, "-checkpoint", ckpt,
		"-cpuprofile", cpu, "-memprofile", mem, "-q")
	if code != 0 {
		t.Fatalf("campaign run exit = %d: %s", code, errOut)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	_, _, code = run(t, "campaign", "run", "-config", config,
		"-cpuprofile", filepath.Join(dir, "no-such-dir", "x"))
	if code != 1 {
		t.Errorf("bad cpuprofile path exit = %d", code)
	}
}

// TestCampaignPerfbenchForms runs plan, run and merge with the argument
// forms perfbench's campaign workload uses, so a parse change that
// breaks them fails here rather than as a benchmark run failure.
func TestCampaignPerfbenchForms(t *testing.T) {
	dir := t.TempDir()
	config := filepath.Join(dir, "study.json")
	study := `{"name":"forms","base":{"workload":"sql"},"axes":{"nodes":[2],"seeds":[1]}}`
	if err := os.WriteFile(config, []byte(study), 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "points.jsonl")
	report := filepath.Join(dir, "report.txt")
	trend := filepath.Join(dir, "trend.json")
	for _, args := range [][]string{
		{"campaign", "plan", "-config", config},
		{"campaign", "run", "-config", config, "-checkpoint", ckpt, "-parallel", "1"},
		{"campaign", "merge", "-config", config, "-report", report, "-bench", trend, ckpt},
	} {
		out, errOut, code := run(t, args...)
		if code != 0 {
			t.Fatalf("%q: exit = %d: %s", args, code, errOut)
		}
		if args[1] == "merge" && !strings.Contains(out, "# merged 1 points from 1 checkpoint(s)") {
			t.Errorf("merge output = %q", out)
		}
	}
	if fi, err := os.Stat(trend); err != nil || fi.Size() == 0 {
		t.Errorf("-bench %s missing or empty: %v", trend, err)
	}
}
