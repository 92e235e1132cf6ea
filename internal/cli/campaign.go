package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/campaign"
)

// cmdCampaign drives resumable, checkpointed parameter studies:
//
//	doppio campaign plan  -config study.json [-shards N -shard i]
//	doppio campaign run   -config study.json [-checkpoint F] [-resume]
//	                      [-shards N -shard i] [-parallel N]
//	                      [-point-timeout D] [-metrics F]
//	doppio campaign merge -config study.json [-report F] [-bench F] ckpt...
//
// `run` executes one shard of the study, appending each completed point
// to an fsync'd JSONL checkpoint; a killed run resumes with -resume,
// recomputing only the points that were in flight when it died. `merge`
// combines the checkpoints (one, or one per shard) into the study's
// report and BENCH-style trend JSON — byte-identical however the points
// were executed. See docs/CAMPAIGN.md.
func (a *app) cmdCampaign(ctx context.Context, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("campaign: need a verb: plan, run or merge (see docs/CAMPAIGN.md)")
	}
	switch args[0] {
	case "plan":
		return a.cmdCampaignPlan(args[1:])
	case "run":
		return a.cmdCampaignRun(ctx, args[1:])
	case "merge":
		return a.cmdCampaignMerge(args[1:])
	default:
		return fmt.Errorf("campaign: unknown verb %q (want plan, run or merge)", args[0])
	}
}

// campaignShardFlags adds and validates the -shards/-shard pair.
func campaignShardFlags(fs *flag.FlagSet) (shards, shard *int) {
	shards = fs.Int("shards", 1, "partition the point list across this many processes")
	shard = fs.Int("shard", 0, "which partition this process runs, in [0, shards)")
	return shards, shard
}

func checkShards(shards, shard int) error {
	if shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", shards)
	}
	if shard < 0 || shard >= shards {
		return fmt.Errorf("-shard must be in [0, %d), got %d", shards, shard)
	}
	return nil
}

// defaultCheckpoint derives the checkpoint path the run and smoke
// tooling agree on when -checkpoint is not given.
func defaultCheckpoint(cfg campaign.Config, shards, shard int) string {
	if shards > 1 {
		return fmt.Sprintf("%s.shard%d-of-%d.campaign.jsonl", cfg.Name, shard, shards)
	}
	return cfg.Name + ".campaign.jsonl"
}

func (a *app) cmdCampaignPlan(args []string) error {
	fs := flag.NewFlagSet("campaign plan", flag.ContinueOnError)
	configPath := fs.String("config", "", "study config file (JSON; see docs/CAMPAIGN.md)")
	shards, shard := campaignShardFlags(fs)
	if _, err := parseArgs(fs, args); err != nil {
		return err
	}
	if *configPath == "" {
		return fmt.Errorf("campaign plan: -config is required")
	}
	if err := checkShards(*shards, *shard); err != nil {
		return fmt.Errorf("campaign plan: %v", err)
	}
	cfg, err := campaign.LoadConfig(*configPath)
	if err != nil {
		return err
	}
	points := campaign.Shard(cfg.Points(), *shards, *shard)
	fmt.Fprintf(a.out, "# campaign %s: %d points total, %d in shard %d/%d, config hash %s\n",
		cfg.Name, cfg.Size(), len(points), *shard, *shards, cfg.Hash())
	for _, p := range points {
		fmt.Fprintf(a.out, "%6d  %s  %s\n", p.Index, cfg.PointHash(p)[:12], p.Name())
	}
	return nil
}

func (a *app) cmdCampaignRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("campaign run", flag.ContinueOnError)
	configPath := fs.String("config", "", "study config file (JSON; see docs/CAMPAIGN.md)")
	checkpoint := fs.String("checkpoint", "", "JSONL checkpoint path (default <name>[.shardI-of-N].campaign.jsonl)")
	resume := fs.Bool("resume", false, "skip points already in the checkpoint instead of refusing to touch it")
	parallel := fs.Int("parallel", 0, "point worker pool size (0 = config value, then GOMAXPROCS)")
	pointTimeout := fs.Duration("point-timeout", 0, "per-point deadline override (0 = config value; timed-out points are retried on resume)")
	metricsPath := fs.String("metrics", "", "write campaign progress counters (Prometheus text) to this file on exit")
	quiet := fs.Bool("q", false, "suppress per-point progress lines")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the campaign run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	shards, shard := campaignShardFlags(fs)
	if _, err := parseArgs(fs, args); err != nil {
		return err
	}
	if *configPath == "" {
		return fmt.Errorf("campaign run: -config is required")
	}
	stopProf, err := a.startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return fmt.Errorf("campaign run: %v", err)
	}
	defer stopProf()
	if err := firstError(
		checkShards(*shards, *shard),
		checkNonNegativeInt("parallel", *parallel),
		checkNonNegativeDuration("point-timeout", *pointTimeout),
	); err != nil {
		return fmt.Errorf("campaign run: %v", err)
	}
	cfg, err := campaign.LoadConfig(*configPath)
	if err != nil {
		return err
	}
	ckpt := *checkpoint
	if ckpt == "" {
		ckpt = defaultCheckpoint(cfg, *shards, *shard)
	}
	progress := campaign.NewProgress()
	var logW = a.out
	if *quiet {
		logW = nil
	}
	sum, err := campaign.Run(ctx, cfg, campaign.RunOptions{
		CheckpointPath: ckpt,
		Resume:         *resume,
		Shards:         *shards,
		Shard:          *shard,
		Parallel:       *parallel,
		PointTimeout:   *pointTimeout,
		Progress:       progress,
		Log:            logW,
	})
	if *metricsPath != "" {
		if merr := progress.WriteFile(*metricsPath); merr != nil {
			fmt.Fprintf(a.out, "# metrics: %v\n", merr)
		}
	}
	// The summary line renders on every exit path — it is what the
	// campaign-smoke gate parses to prove zero recompute waste.
	fmt.Fprintf(a.out, "# campaign %s shard %d/%d: %d points, %d skipped (checkpointed), %d executed, %d failed, %d unfinished in %.1fs\n",
		sum.Name, *shard, *shards, sum.Total, sum.Skipped, sum.Executed, sum.Failed, sum.Unfinished, sum.Elapsed.Seconds())
	if err != nil {
		if errors.Is(err, campaign.ErrInterrupted) {
			fmt.Fprintf(a.out, "# checkpoint %s is durable; continue with: doppio campaign run -config %s -checkpoint %s -resume\n",
				ckpt, *configPath, ckpt)
		}
		return err
	}
	fmt.Fprintf(a.out, "# checkpoint complete: %s (merge with: doppio campaign merge -config %s %s)\n",
		ckpt, *configPath, ckpt)
	return nil
}

func (a *app) cmdCampaignMerge(args []string) error {
	fs := flag.NewFlagSet("campaign merge", flag.ContinueOnError)
	configPath := fs.String("config", "", "study config file (JSON; see docs/CAMPAIGN.md)")
	reportPath := fs.String("report", "", `write the merged report here ("-" or empty = stdout)`)
	format := fs.String("format", "text", "report format: text, csv, md")
	benchPath := fs.String("bench", "", "write the BENCH-style trend JSON to this file")
	ckpts, err := parseArgs(fs, args)
	if err != nil {
		return err
	}
	if *configPath == "" {
		return fmt.Errorf("campaign merge: -config is required")
	}
	if len(ckpts) == 0 {
		return fmt.Errorf("campaign merge: need at least one checkpoint file")
	}
	cfg, err := campaign.LoadConfig(*configPath)
	if err != nil {
		return err
	}
	merged, err := campaign.Merge(cfg, ckpts)
	if err != nil {
		return err
	}
	table := merged.Table()
	if *reportPath == "" || *reportPath == "-" {
		if err := table.Render(a.out, *format); err != nil {
			return err
		}
	} else {
		f, err := os.Create(*reportPath)
		if err != nil {
			return err
		}
		if err := table.Render(f, *format); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *benchPath != "" {
		f, err := os.Create(*benchPath)
		if err != nil {
			return err
		}
		if err := merged.WriteBenchJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(a.out, "# merged %d points from %d checkpoint(s), %d duplicate record(s) collapsed\n",
		len(merged.Records), merged.Sources, merged.Duplicates)
	return nil
}
