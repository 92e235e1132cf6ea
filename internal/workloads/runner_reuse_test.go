package workloads

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/disk"
	"repro/internal/spark"
)

// reuseCase is one run of TestRunnerReuseMatchesGolden: a golden case
// (key set), or an extra case checked against a fresh spark.Run.
type reuseCase struct {
	key   string
	name  string
	cfg   spark.ClusterConfig
	abort bool // the extra case must end in an error
}

// reuseOrder lists every golden case of workload name plus extra
// memory-layer, blacklisting and aborting cases, grouped by slave
// count (so between groups the reused Runner grows from 4 to 8 nodes,
// then shrinks to 3) and shuffled within each group by a fixed seed,
// so consecutive runs differ in cores, devices, jitter, faults,
// speculation and memory. No group ends on its aborting case: the run
// after an abort must reuse the runner it left.
func reuseOrder(name string) []reuseCase {
	ssd, hdd := disk.NewSSD(), disk.NewHDD()
	groups := map[int][]reuseCase{}
	add := func(c reuseCase) { groups[c.cfg.Slaves] = append(groups[c.cfg.Slaves], c) }
	for _, sh := range registryShapes() {
		add(reuseCase{key: "registry/" + name + "/" + sh.name,
			cfg: homogeneousConfig(sh.slaves, sh.cores, sh.hdfs, sh.local)})
	}
	add(reuseCase{key: "jitter/" + name, cfg: jitterConfig()})
	profiles := faultProfiles()
	names := make([]string, 0, len(profiles))
	for prof := range profiles {
		names = append(names, prof)
	}
	sort.Strings(names)
	for _, sh := range faultyShapes() {
		for _, prof := range names {
			cfg := homogeneousConfig(sh.slaves, sh.cores, sh.hdfs, sh.local)
			profiles[prof](&cfg)
			add(reuseCase{key: "faulty/" + name + "/" + sh.name + "/" + prof, cfg: cfg})
		}
	}
	slaves := []int{4, 8, 3}
	for i, n := range slaves {
		mem := spark.DefaultTestbed(n, 2+2*i, ssd, hdd)
		mem.Memory = spark.MemoryConfig{HeapGB: 1}
		mem.Speculation = i == 1
		add(reuseCase{name: "memory", cfg: mem})
		black := homogeneousConfig(n, 2, ssd, ssd)
		black.Faults = spark.FaultConfig{TaskFailureProb: 0.01, BlacklistThreshold: 2, RetryBackoff: 0.05, Seed: 9}
		add(reuseCase{name: "blacklist", cfg: black})
		abort := homogeneousConfig(n, 4, hdd, ssd)
		abort.Faults = spark.FaultConfig{TaskFailureProb: 0.5, MaxTaskFailures: 1, Seed: uint64(n)}
		add(reuseCase{name: "abort", cfg: abort, abort: true})
	}
	var order []reuseCase
	rng := rand.New(rand.NewSource(26))
	for _, n := range slaves {
		g := groups[n]
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		if last := len(g) - 1; g[last].abort {
			g[0], g[last] = g[last], g[0]
		}
		order = append(order, g...)
	}
	return order
}

// TestRunnerReuseMatchesGolden replays every sim_golden.json case back
// to back through one spark.Runner per workload, mixed with
// memory-layer, blacklisting and aborting runs: a reused Runner must
// reproduce every committed digest, and the extra runs must match a
// fresh spark.Run.
func TestRunnerReuseMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every golden case a second time")
	}
	if *updateGolden {
		t.Skip("goldens are being rewritten")
	}
	want, err := readSimGolden()
	if err != nil {
		t.Fatal(err)
	}
	replayed := map[string]bool{}
	for _, name := range Names() {
		w, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			var rn spark.Runner
			for i, c := range reuseOrder(name) {
				app := w.Build(c.cfg)
				res, runErr := rn.Run(c.cfg, app)
				got := digestOf(t, res, runErr)
				if c.key != "" {
					replayed[c.key] = true
					if got != want[c.key] {
						t.Errorf("run %d, %s on a reused Runner: got total %d ns sha256 %s, golden total %d ns sha256 %s",
							i, c.key, got.TotalNS, got.SHA256, want[c.key].TotalNS, want[c.key].SHA256)
					}
					continue
				}
				if c.abort && runErr == nil {
					t.Errorf("run %d, %s at %d slaves: completed, want an abort", i, c.name, c.cfg.Slaves)
				}
				if fresh := digestRun(t, c.cfg, app); got != fresh {
					t.Errorf("run %d, %s at %d slaves on a reused Runner: got total %d ns sha256 %s, fresh run total %d ns sha256 %s",
						i, c.name, c.cfg.Slaves, got.TotalNS, got.SHA256, fresh.TotalNS, fresh.SHA256)
				}
			}
		})
	}
	for key := range want {
		if !replayed[key] {
			t.Errorf("golden case %s was not replayed", key)
		}
	}
}
