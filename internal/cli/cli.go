// Package cli implements the doppio command: it lists and runs the
// paper's experiments, simulates workloads on configurable clusters,
// calibrates and applies the analytical model, profiles I/O, and
// searches Google Cloud configurations for the cost optimum. The thin
// binary in cmd/doppio delegates here so every subcommand is testable
// against an injected writer.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/calib"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/experiments"
	"repro/internal/optimizer"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/spark"
	"repro/internal/units"
	"repro/internal/workloads"
)

// Main runs the doppio CLI with the given arguments (excluding the
// program name) and returns a process exit code. All output goes to the
// supplied writers, which makes every subcommand testable.
func Main(args []string, stdout, stderr io.Writer) int {
	// Ctrl-C (or SIGTERM from an orchestrator) cancels the context instead
	// of killing the process: long artifact sweeps stop feeding their
	// worker pool and flush whatever reports already completed, and
	// `doppio serve` drains in-flight requests before exiting. A second
	// signal kills the process the usual way (signal.NotifyContext
	// restores the default handler once the context is cancelled).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runMain(ctx, args, stdout, stderr)
}

// runMain is Main with an injectable context, so tests can exercise
// cancellation without delivering real signals.
func runMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	a := &app{out: stdout}
	var err error
	switch args[0] {
	case "experiments":
		err = a.cmdExperiments()
	case "run":
		err = a.cmdRun(ctx, args[1:])
	case "workloads":
		err = a.cmdWorkloads()
	case "sim":
		err = a.cmdSim(args[1:])
	case "predict":
		err = a.cmdPredict(args[1:])
	case "optimize":
		err = a.cmdOptimize(args[1:])
	case "recommend":
		err = a.cmdRecommend(args[1:])
	case "whatif":
		err = a.cmdWhatif(args[1:])
	case "serve":
		err = a.cmdServe(ctx, args[1:])
	case "route":
		err = a.cmdRoute(ctx, args[1:])
	case "campaign":
		err = a.cmdCampaign(ctx, args[1:])
	case "fio":
		err = a.cmdFio()
	case "help", "-h", "--help":
		usage(stdout)
	default:
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "doppio:", err)
		return 1
	}
	return 0
}

// app carries the output sink through the subcommands.
type app struct {
	out io.Writer
}

func usage(w io.Writer) {
	fmt.Fprint(w, `doppio — I/O-aware performance analysis, modeling and optimization

  doppio experiments                 list reproducible paper artifacts
  doppio run [-parallel N] [-timeout D] [-cpuprofile F] [-memprofile F] <id>|all
                                     regenerate tables/figures (e.g. fig7);
                                     Ctrl-C flushes completed artifacts;
                                     -cpuprofile/-memprofile write pprof data
  doppio workloads                   list workloads
  doppio sim [flags] <workload>      simulate a workload on a cluster
  doppio predict [flags] <workload>  calibrated model vs simulator
  doppio optimize [flags]            search cloud configurations for min cost
  doppio recommend [flags]           constrained search with deadline/budget
                                     pruning (see -deadline, -budget, -no-prune)
  doppio whatif [flags] <workload>   sweep core counts with the calibrated model
  doppio serve [flags]               HTTP prediction service (see docs/SERVING.md);
                                     SIGTERM drains in-flight requests
  doppio route [flags]               fault-tolerant sharding front tier over N
                                     serve replicas: consistent-hash routing,
                                     health-checked failover, retries, hedging
  doppio campaign plan|run|merge     resumable, checkpointed parameter studies
                                     (see docs/CAMPAIGN.md); run checkpoints every
                                     completed point, -resume skips them, and
                                     -cpuprofile/-memprofile write pprof data
  doppio fio                         effective-bandwidth sweep of HDD/SSD models
`)
}

// startProfiles begins the optional pprof captures shared by `doppio
// run` and `doppio campaign run`. The returned stop function (never
// nil) ends the CPU profile and writes the heap profile; defer it so
// every exit path flushes the data.
func (a *app) startProfiles(cpuprofile, memprofile string) (func(), error) {
	var stopCPU func()
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("start CPU profile: %v", err)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	return func() {
		if stopCPU != nil {
			stopCPU()
		}
		if memprofile == "" {
			return
		}
		f, err := os.Create(memprofile)
		if err != nil {
			fmt.Fprintf(a.out, "# memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile reflects retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(a.out, "# memprofile: %v\n", err)
		}
	}, nil
}

func (a *app) cmdExperiments() error {
	for _, id := range experiments.IDs() {
		e, err := experiments.Get(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(a.out, "%-14s %s\n", id, e.Title)
	}
	return nil
}

// cmdRun regenerates artifacts through the experiments worker pool:
// independent artifacts run concurrently (-parallel N workers), tables
// are rendered in the requested order regardless of completion order,
// and one failing artifact is reported without cancelling its siblings.
// -timeout bounds each artifact with its own deadline; SIGINT cancels
// the whole set. Either way the reports that did complete are rendered
// before the command returns.
func (a *app) cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	format := fs.String("format", "text", "output format: text, csv, md")
	parallel := fs.Int("parallel", 0, "experiment worker pool size (0 = GOMAXPROCS, 1 = serial)")
	timeout := fs.Duration("timeout", 0, "per-artifact deadline (0 = none); timed-out artifacts fail, siblings continue")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the artifact run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	ids, err := parseArgs(fs, args)
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return fmt.Errorf("run: need an experiment id or 'all'")
	}
	if err := firstError(
		checkNonNegativeInt("parallel", *parallel),
		checkNonNegativeDuration("timeout", *timeout),
	); err != nil {
		return fmt.Errorf("run: %v", err)
	}
	stopProf, err := a.startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return fmt.Errorf("run: %v", err)
	}
	defer stopProf()
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	start := time.Now()
	reports, err := experiments.RunSet(ctx, ids, experiments.Options{
		Parallel:        *parallel,
		ArtifactTimeout: *timeout,
	})
	if err != nil {
		return err
	}
	var artifactTime time.Duration
	var calHits, calLookups int
	for _, r := range reports {
		artifactTime += r.Runtime
		calHits += r.CacheHits
		calLookups += r.CacheHits + r.CacheMisses
		if r.Err != nil {
			fmt.Fprintf(a.out, "# FAILED %s: %v\n\n", r.ID, r.Err)
			continue
		}
		if err := r.Table.Render(a.out, *format); err != nil {
			return err
		}
		if *format == "text" {
			fmt.Fprintf(a.out, "# regenerated in %.1fs\n", r.Runtime.Seconds())
		}
		fmt.Fprintln(a.out)
	}
	if len(reports) > 1 && *format == "text" {
		wall := time.Since(start).Seconds()
		if wall <= 0 {
			wall = 1e-9
		}
		fmt.Fprintf(a.out, "# total: %d artifacts in %.1fs wall, %.1fs artifact time (%.1fx pool speedup)\n",
			len(reports), wall, artifactTime.Seconds(), artifactTime.Seconds()/wall)
		if calLookups > 0 {
			fmt.Fprintf(a.out, "# calibration cache: %d lookups, %d hits (each miss costs 4 sample runs)\n",
				calLookups, calHits)
		}
	}
	if failed := experiments.Failed(reports); len(failed) > 0 {
		return fmt.Errorf("run: %d of %d artifacts failed", len(failed), len(reports))
	}
	return nil
}

func (a *app) cmdWorkloads() error {
	for _, n := range workloads.Names() {
		w, err := workloads.Get(n)
		if err != nil {
			return err
		}
		fmt.Fprintf(a.out, "%-14s %s\n", n, w.Description)
	}
	return nil
}

// clusterFlags defines the shared cluster-shape flags.
type clusterFlags struct {
	slaves     *int
	cores      *int
	hdfs       *string
	local      *string
	heapGB     *float64
	seed       *uint64
	stragglers *float64
	speculate  *bool
	failProb   *float64
	fetchProb  *float64
	maxFail    *int
	backoff    *float64
	faultSeed  *uint64
}

// parseArgs parses args with fs and returns the positional arguments.
// Unlike fs.Parse it keeps parsing flags after a positional argument, so
// "doppio sim gatk4 -iostat" means what it says; everything after "--"
// is positional.
func parseArgs(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		rest := fs.Args()
		if n := len(args) - len(rest); len(rest) == 0 || n > 0 && args[n-1] == "--" {
			return append(pos, rest...), nil
		}
		pos = append(pos, rest[0])
		args = rest[1:]
	}
}

func addClusterFlags(fs *flag.FlagSet) clusterFlags {
	return clusterFlags{
		slaves:     fs.Int("slaves", 10, "worker node count N"),
		cores:      fs.Int("cores", 36, "executor cores per node P"),
		hdfs:       fs.String("hdfs", "ssd", "HDFS device: hdd, ssd, pd-standard:SIZE, pd-ssd:SIZE"),
		local:      fs.String("local", "ssd", "Spark Local device: hdd, ssd, pd-standard:SIZE, pd-ssd:SIZE"),
		heapGB:     fs.Float64("heap-gb", 0, "executor heap per node in GB (0 = unlimited memory, legacy behaviour)"),
		seed:       fs.Uint64("seed", 0, "task-time jitter seed (repeat-run error bars)"),
		stragglers: fs.Float64("stragglers", 0, "fraction of tasks running 5x slower"),
		speculate:  fs.Bool("speculate", false, "enable Spark-style speculative execution"),
		failProb:   fs.Float64("fail-prob", 0, "per-attempt task failure probability (fault injection)"),
		fetchProb:  fs.Float64("fetch-fail-prob", 0, "per-attempt shuffle-fetch failure probability"),
		maxFail:    fs.Int("max-task-failures", 0, "attempt budget before the app aborts (0 = Spark default 4)"),
		backoff:    fs.Float64("retry-backoff", 0, "base retry delay in seconds (0 = 1s default)"),
		faultSeed:  fs.Uint64("fault-seed", 0, "fault-injection seed (mixed with -seed)"),
	}
}

func (c clusterFlags) config() (spark.ClusterConfig, error) {
	hd, err := parseDevice(*c.hdfs)
	if err != nil {
		return spark.ClusterConfig{}, err
	}
	ld, err := parseDevice(*c.local)
	if err != nil {
		return spark.ClusterConfig{}, err
	}
	cfg := spark.DefaultTestbed(*c.slaves, *c.cores, hd, ld)
	cfg.Memory = spark.MemoryConfig{HeapGB: *c.heapGB}
	cfg.Seed = *c.seed
	if *c.stragglers > 0 {
		cfg.StragglerFraction = *c.stragglers
		cfg.StragglerSlowdown = 5
	}
	cfg.Speculation = *c.speculate
	cfg.Faults = spark.FaultConfig{
		TaskFailureProb:         *c.failProb,
		ShuffleFetchFailureProb: *c.fetchProb,
		MaxTaskFailures:         *c.maxFail,
		RetryBackoff:            spark.DurationParam(*c.backoff),
		Seed:                    *c.faultSeed,
	}
	// Surface bad flag combinations here, with flag vocabulary, instead
	// of letting spark.Run fail later with config vocabulary.
	if err := cfg.Validate(); err != nil {
		return spark.ClusterConfig{}, err
	}
	return cfg, nil
}

// parseDevice understands "hdd", "ssd", "pd-standard:2TB", "pd-ssd:200GB".
// The vocabulary lives in cloud.ParseDevice so the serve API shares it.
func parseDevice(s string) (disk.Device, error) {
	return cloud.ParseDevice(s)
}

func (a *app) cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	cf := addClusterFlags(fs)
	iostat := fs.Bool("iostat", false, "print the per-stage iostat report")
	blocked := fs.Bool("blocked", false, "print the blocked-time analysis")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("sim: need exactly one workload (see 'doppio workloads')")
	}
	w, err := workloads.Get(pos[0])
	if err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	res, err := spark.Run(cfg, w.Build(cfg))
	if err != nil {
		return err
	}
	if _, err := res.WriteTo(a.out); err != nil {
		return err
	}
	if *iostat {
		fmt.Fprintln(a.out)
		if err := profile.WriteIostat(a.out, profile.Iostat(res)); err != nil {
			return err
		}
	}
	if *blocked {
		fmt.Fprintln(a.out)
		if err := profile.WriteBlockedTime(a.out, profile.BlockedTimeAnalysis(res)); err != nil {
			return err
		}
	}
	return nil
}

func (a *app) cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	cf := addClusterFlags(fs)
	save := fs.String("save", "", "write the calibrated model to this JSON file")
	load := fs.String("load", "", "load a previously saved model instead of calibrating")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("predict: need exactly one workload")
	}
	w, err := workloads.Get(pos[0])
	if err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}

	var model core.AppModel
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		defer f.Close()
		if model, err = core.ReadJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(a.out, "# loaded calibrated model from %s\n", *load)
	} else {
		// Calibrate on the same slave count per the paper's Section VI-1.
		fmt.Fprintf(a.out, "# calibrating (4 sample runs, %d slaves)...\n", cfg.Slaves)
		cal, _, err := calib.For(calib.Shared, calib.Testbed(w.Name, cfg.Slaves))
		if err != nil {
			return err
		}
		for _, warn := range cal.Warnings {
			fmt.Fprintln(a.out, "# warning:", warn)
		}
		model = cal.Model
		if *save != "" {
			f, err := os.Create(*save)
			if err != nil {
				return err
			}
			if err := model.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(a.out, "# saved calibrated model to %s\n", *save)
		}
	}

	res, err := spark.Run(cfg, w.Build(cfg))
	if err != nil {
		return err
	}
	pred, err := model.Predict(core.PlatformFor(cfg), core.ModeDoppio)
	if err != nil {
		return err
	}
	fmt.Fprintf(a.out, "%-20s %10s %10s %8s %s\n", "stage", "exp(min)", "model(min)", "err", "bottleneck")
	for i, s := range res.Stages {
		p := pred.Stages[i]
		fmt.Fprintf(a.out, "%-20s %10.1f %10.1f %7.1f%% %s\n",
			s.Name, s.Duration().Minutes(), p.T.Minutes(),
			core.ErrorRate(p.T, s.Duration())*100, p.Bottleneck)
	}
	fmt.Fprintf(a.out, "%-20s %10.1f %10.1f %7.1f%%\n", "TOTAL",
		res.Total.Minutes(), pred.Total.Minutes(),
		core.ErrorRate(pred.Total, res.Total)*100)
	return nil
}

func (a *app) cmdOptimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	slaves := fs.Int("slaves", 10, "worker node count")
	workload := fs.String("workload", "gatk4", "workload to optimise for")
	top := fs.Int("top", 10, "show the N cheapest configurations")
	descend := fs.Bool("descend", false, "use coordinate descent instead of the full grid")
	heapGBs := fs.String("heap-gbs", "", "comma-separated executor heap sizes in GB to add as a search axis (empty = memory-free space)")
	if _, err := parseArgs(fs, args); err != nil {
		return err
	}
	heaps, err := parseHeapGBs(*heapGBs)
	if err != nil {
		return fmt.Errorf("optimize: %v", err)
	}
	w, err := workloads.Get(*workload)
	if err != nil {
		return err
	}

	fmt.Fprintln(a.out, "# calibrating on virtual disks (4 sample runs, 3 slaves)...")
	cal, _, err := calib.For(calib.Shared, calib.Cloud(w.Name))
	if err != nil {
		return err
	}
	eval := optimizer.ModelEvaluator(cal.Model)
	pricing := cloud.DefaultPricing()
	space := optimizer.DefaultSpace(*slaves)
	space.HeapGBs = heaps

	if *descend {
		start := cloud.ClusterSpec{
			Slaves: *slaves, VCPUs: 16,
			HDFSType: cloud.PDStandard, HDFSSize: units.TB,
			LocalType: cloud.PDStandard, LocalSize: units.TB,
		}
		best, evals, err := optimizer.CoordinateDescent(space, start, eval, pricing)
		if err != nil {
			return err
		}
		fmt.Fprintf(a.out, "best after %d evaluations (space has %d):\n  %v  time=%.0fmin  cost=%s\n",
			evals, space.Size(), best.Spec, best.Time.Minutes(), usd(best.Cost))
		return nil
	}

	cands, err := optimizer.GridSearch(space, eval, pricing)
	if err != nil {
		return err
	}
	fmt.Fprintf(a.out, "%-55s %10s %8s\n", "configuration", "time(min)", "cost")
	for i, c := range cands {
		if i >= *top {
			break
		}
		fmt.Fprintf(a.out, "%-55s %10.0f %8s\n", c.Spec.String(), c.Time.Minutes(), usd(c.Cost))
	}
	for _, ref := range []struct {
		name string
		spec cloud.ClusterSpec
	}{{"R1", cloud.R1(*slaves, 16)}, {"R2", cloud.R2(*slaves, 16)}} {
		d, err := eval.Evaluate(ref.spec)
		if err != nil {
			return err
		}
		c := ref.spec.Cost(d, pricing)
		fmt.Fprintf(a.out, "reference %s: %v time=%.0fmin cost=%s (optimal saves %.0f%%)\n",
			ref.name, ref.spec, d.Minutes(), usd(c), (1-cands[0].Cost/c)*100)
	}
	return nil
}

// cmdRecommend is the constrained flavour of cmdOptimize: it searches
// the same space but under a deadline and/or budget, using
// PrunedSearch's Eq. 1 monotonicity bounds to skip configurations that
// provably cannot be feasible. -no-prune runs the exhaustive
// GridSearch-then-Filter reference path instead — same answer, every
// point evaluated — so the two modes A/B the pruning on real
// calibrations.
func (a *app) cmdRecommend(args []string) error {
	fs := flag.NewFlagSet("recommend", flag.ContinueOnError)
	slaves := fs.Int("slaves", 10, "worker node count")
	workload := fs.String("workload", "gatk4", "workload to optimise for")
	top := fs.Int("top", 10, "show the N cheapest feasible configurations")
	deadline := fs.Float64("deadline", 0, "longest admissible runtime in minutes (0 = none)")
	budget := fs.Float64("budget", 0, "highest admissible cost in dollars (0 = none)")
	noPrune := fs.Bool("no-prune", false, "evaluate the full grid and filter (reference path)")
	heapGBs := fs.String("heap-gbs", "", "comma-separated executor heap sizes in GB to add as a search axis (empty = memory-free space)")
	if _, err := parseArgs(fs, args); err != nil {
		return err
	}
	heaps, err := parseHeapGBs(*heapGBs)
	if err != nil {
		return fmt.Errorf("recommend: %v", err)
	}
	if *deadline < 0 {
		return fmt.Errorf("recommend: -deadline must be >= 0")
	}
	if *budget < 0 {
		return fmt.Errorf("recommend: -budget must be >= 0")
	}
	w, err := workloads.Get(*workload)
	if err != nil {
		return err
	}

	fmt.Fprintln(a.out, "# calibrating on virtual disks (4 sample runs, 3 slaves)...")
	cal, _, err := calib.For(calib.Shared, calib.Cloud(w.Name))
	if err != nil {
		return err
	}
	eval := optimizer.ModelEvaluator(cal.Model)
	pricing := cloud.DefaultPricing()
	space := optimizer.DefaultSpace(*slaves)
	space.HeapGBs = heaps
	cons := optimizer.Constraints{
		Deadline: time.Duration(*deadline * float64(time.Minute)),
		Budget:   *budget,
	}

	var rep optimizer.SearchReport
	if *noPrune {
		cands, err := optimizer.GridSearch(space, eval, pricing)
		if err != nil {
			return err
		}
		rep = optimizer.SearchReport{
			Candidates: optimizer.Filter(cands, cons),
			Evaluated:  space.Size(),
			Total:      space.Size(),
		}
	} else {
		rep, err = optimizer.PrunedSearch(space, eval, pricing, cons)
		if err != nil {
			return err
		}
	}

	if len(rep.Candidates) == 0 {
		fmt.Fprintln(a.out, "no feasible configuration under the given constraints")
	} else {
		fmt.Fprintf(a.out, "%-55s %10s %8s\n", "configuration", "time(min)", "cost")
		for i, c := range rep.Candidates {
			if i >= *top {
				break
			}
			fmt.Fprintf(a.out, "%-55s %10.0f %8s\n", c.Spec.String(), c.Time.Minutes(), usd(c.Cost))
		}
	}
	fmt.Fprintf(a.out, "# evaluated %d, pruned %d, total %d configurations\n",
		rep.Evaluated, rep.Pruned, rep.Total)
	return nil
}

func usd(v float64) string { return fmt.Sprintf("$%.2f", v) }

// parseHeapGBs turns a -heap-gbs value ("4,16,64") into the search
// space's heap axis. Empty means no axis: the legacy memory-free space.
func parseHeapGBs(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("heap-gbs: %q is not a number", p)
		}
		if v <= 0 || v > 4096 {
			return nil, fmt.Errorf("heap-gbs: %v outside (0, 4096]", v)
		}
		if slices.Contains(out, v) {
			// The axis is a set: a repeat would list its configurations twice.
			return nil, fmt.Errorf("heap-gbs: %v listed twice", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func (a *app) cmdFio() error {
	for _, d := range []disk.Device{disk.NewHDD(), disk.NewSSD()} {
		rep := disk.Fio(d, nil)
		if _, err := rep.WriteTo(a.out); err != nil {
			return err
		}
		fmt.Fprintln(a.out)
	}
	return nil
}

// cmdServe runs the HTTP prediction service until the context is
// cancelled (SIGINT/SIGTERM), then drains: in-flight requests finish
// within -drain-timeout and readiness flips off first so load balancers
// stop routing here.
func (a *app) cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	maxInflight := fs.Int("max-inflight", 64, "concurrent API request bound; excess sheds with 429")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request computation deadline (503 on expiry)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long in-flight requests get to finish on shutdown")
	cacheSize := fs.Int("cache-size", 512, "bounded result/calibration cache entries")
	accessLog := fs.String("access-log", "", `JSON access log destination: a file path, or "-" for stdout (empty = off)`)
	replicaID := fs.String("replica-id", "", "name stamped in X-Served-By and the access log (empty = bound host:port)")
	snapshotPath := fs.String("cache-snapshot", "", "cache snapshot file for warm starts: restored on boot, rewritten periodically and on drain (empty = off)")
	snapshotInterval := fs.Duration("cache-snapshot-interval", 30*time.Second, "periodic snapshot write period (with -cache-snapshot)")
	var peers replicaList
	fs.Var(&peers, "peers", "comma-separated replica host:port peers (including this one) for cross-replica read-through; requires -replica-id (repeatable)")
	peerTimeout := fs.Duration("peer-timeout", 150*time.Millisecond, "per-peek deadline for cross-replica read-through")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 0 {
		return fmt.Errorf("serve: unexpected argument %q", pos[0])
	}
	if err := firstError(
		checkListenAddr("addr", *addr),
		checkPositiveInt("max-inflight", *maxInflight),
		checkNonNegativeDuration("request-timeout", *reqTimeout),
		checkNonNegativeDuration("drain-timeout", *drainTimeout),
		checkPositiveInt("cache-size", *cacheSize),
		checkNonNegativeDuration("cache-snapshot-interval", *snapshotInterval),
		checkNonNegativeDuration("peer-timeout", *peerTimeout),
	); err != nil {
		return fmt.Errorf("serve: %v", err)
	}
	if len(peers) > 0 && *replicaID == "" {
		return fmt.Errorf("serve: -peers requires -replica-id (the ring identity of this replica)")
	}
	var logW io.Writer
	switch *accessLog {
	case "":
	case "-":
		logW = a.out
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("serve: %v", err)
		}
		defer f.Close()
		logW = f
	}
	srv, err := serve.New(serve.Config{
		Addr:             *addr,
		MaxInFlight:      *maxInflight,
		RequestTimeout:   *reqTimeout,
		DrainTimeout:     *drainTimeout,
		CacheEntries:     *cacheSize,
		AccessLog:        logW,
		ReplicaID:        *replicaID,
		SnapshotPath:     *snapshotPath,
		SnapshotInterval: *snapshotInterval,
		Peers:            peers,
		PeerTimeout:      *peerTimeout,
	})
	if err != nil {
		return err
	}
	go func() {
		<-srv.Started()
		fmt.Fprintf(a.out, "# doppio serve listening on %s (Ctrl-C or SIGTERM drains)\n", srv.Addr())
	}()
	return srv.Run(ctx)
}

// cmdWhatif calibrates once, then sweeps the per-node core count with
// the analytical model — the capacity-planning question (how many cores
// before I/O stops the scaling?) that the paper's break-point analysis
// answers without burning cluster hours.
func (a *app) cmdWhatif(args []string) error {
	fs := flag.NewFlagSet("whatif", flag.ContinueOnError)
	cf := addClusterFlags(fs)
	maxP := fs.Int("maxcores", 64, "largest per-node core count to sweep")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("whatif: need exactly one workload")
	}
	w, err := workloads.Get(pos[0])
	if err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	fmt.Fprintln(a.out, "# calibrating (4 sample runs)...")
	cal, _, err := calib.For(calib.Shared, calib.Testbed(w.Name, cfg.Slaves))
	if err != nil {
		return err
	}
	fmt.Fprintf(a.out, "%6s %12s %-10s\n", "P", "total(min)", "bottlenecks")
	prev := time.Duration(0)
	for p := 1; p <= *maxP; p *= 2 {
		pl := core.PlatformFor(cfg.WithCores(p))
		pred, err := cal.Model.Predict(pl, core.ModeDoppio)
		if err != nil {
			return err
		}
		bn := map[string]int{}
		for _, s := range pred.Stages {
			bn[s.Bottleneck]++
		}
		var parts []string
		for _, k := range []string{"scale", "read", "write", "device", "memory"} {
			if bn[k] > 0 {
				parts = append(parts, fmt.Sprintf("%s:%d", k, bn[k]))
			}
		}
		marker := ""
		if prev > 0 && pred.Total.Seconds() > prev.Seconds()*0.95 {
			marker = "  <- scaling exhausted (P > B for the binding stages)"
		}
		fmt.Fprintf(a.out, "%6d %12.1f %-10s%s\n", p, pred.Total.Minutes(), strings.Join(parts, " "), marker)
		prev = pred.Total
	}
	return nil
}
