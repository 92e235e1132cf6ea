package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/shard"
)

// replicaList collects repeated -replica flags (and accepts one
// comma-separated value) so topologies read naturally either way:
//
//	doppio route -replica :8081 -replica :8082
//	doppio route -replicas 127.0.0.1:8081,127.0.0.1:8082
type replicaList []string

func (r *replicaList) String() string { return strings.Join(*r, ",") }

func (r *replicaList) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		*r = append(*r, part)
	}
	return nil
}

// cmdRoute runs the fault-tolerant sharding front tier over N `doppio
// serve` replicas until the context is cancelled, then drains like
// serve does. See docs/SERVING.md, "Cluster mode".
func (a *app) cmdRoute(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address")
	var reps replicaList
	fs.Var(&reps, "replica", "backend replica host:port (repeatable)")
	fs.Var(&reps, "replicas", "comma-separated backend replicas (alias for repeated -replica)")
	vnodes := fs.Int("vnodes", shard.DefaultVNodes, "hash-ring points per replica")
	probeInterval := fs.Duration("probe-interval", time.Second, "active /readyz probe period")
	probeTimeout := fs.Duration("probe-timeout", 0, "per-probe deadline (0 = probe-interval, capped at 1s)")
	failAfter := fs.Int("fail-after", 2, "consecutive probe failures that mark a replica down")
	recoverAfter := fs.Int("recover-after", 2, "consecutive probe successes that mark it back up")
	breakerThreshold := fs.Int("breaker-threshold", 3, "consecutive proxied failures that open a replica's circuit")
	breakerCooldown := fs.Duration("breaker-cooldown", 3*time.Second, "open-circuit cooldown before a half-open trial")
	maxRetries := fs.Int("max-retries", 3, "extra attempts after the first, failing over along the ring")
	retryBase := fs.Duration("retry-base", 50*time.Millisecond, "first retry backoff (doubles per attempt, jittered)")
	retryMax := fs.Duration("retry-max", time.Second, "retry backoff cap")
	hedgeAfter := fs.Duration("hedge-after", 0, "duplicate a request to the next replica after this delay (0 = off)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-client-request deadline across all attempts")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long in-flight requests get to finish on shutdown")
	hotCacheTTL := fs.Duration("hot-cache-ttl", 2*time.Second, "router-side replay window for hot replica cache hits (0 = off)")
	hotCacheEntries := fs.Int("hot-cache-entries", 128, "hot-response cache capacity (with -hot-cache-ttl)")
	accessLog := fs.String("access-log", "", `JSON access log destination: a file path, or "-" for stdout (empty = off)`)
	pos, err := parseArgs(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 0 {
		return fmt.Errorf("route: unexpected argument %q", pos[0])
	}
	if len(reps) == 0 {
		return fmt.Errorf("route: at least one -replica is required")
	}
	if err := firstError(
		checkListenAddr("addr", *addr),
		checkPositiveInt("vnodes", *vnodes),
		checkPositiveInt("fail-after", *failAfter),
		checkPositiveInt("recover-after", *recoverAfter),
		checkPositiveInt("breaker-threshold", *breakerThreshold),
		checkNonNegativeInt("max-retries", *maxRetries),
		checkNonNegativeDuration("probe-interval", *probeInterval),
		checkNonNegativeDuration("probe-timeout", *probeTimeout),
		checkNonNegativeDuration("breaker-cooldown", *breakerCooldown),
		checkNonNegativeDuration("retry-base", *retryBase),
		checkNonNegativeDuration("retry-max", *retryMax),
		checkNonNegativeDuration("hedge-after", *hedgeAfter),
		checkNonNegativeDuration("request-timeout", *reqTimeout),
		checkNonNegativeDuration("drain-timeout", *drainTimeout),
		checkNonNegativeDuration("hot-cache-ttl", *hotCacheTTL),
		checkNonNegativeInt("hot-cache-entries", *hotCacheEntries),
	); err != nil {
		return fmt.Errorf("route: %v", err)
	}
	var logW io.Writer
	switch *accessLog {
	case "":
	case "-":
		logW = a.out
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("route: %v", err)
		}
		defer f.Close()
		logW = f
	}
	rt, err := cluster.New(cluster.Config{
		Addr:             *addr,
		Replicas:         reps,
		VNodes:           *vnodes,
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		FailAfter:        *failAfter,
		RecoverAfter:     *recoverAfter,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		MaxRetries:       *maxRetries,
		RetryBase:        *retryBase,
		RetryMax:         *retryMax,
		HedgeAfter:       *hedgeAfter,
		RequestTimeout:   *reqTimeout,
		DrainTimeout:     *drainTimeout,
		HotCacheTTL:      *hotCacheTTL,
		HotCacheEntries:  *hotCacheEntries,
		AccessLog:        logW,
	})
	if err != nil {
		return err
	}
	go func() {
		<-rt.Started()
		fmt.Fprintf(a.out, "# doppio route listening on %s, sharding %d replicas (Ctrl-C or SIGTERM drains)\n",
			rt.Addr(), len(rt.Ring().Replicas()))
	}()
	return rt.Run(ctx)
}
