package workloads

// Registry-wide simulator goldens: every registered workload, on a
// matrix of cluster shapes — jitter-free, jittered (the registry's
// default), and degraded by faults, speculation and stragglers — must
// reproduce the committed digest of its whole spark.Result, or of its
// typed error, byte for byte. The digests were generated when the
// simulator still had three execution paths whose outputs were pinned
// equal to each other, so they are the record every later simulator
// change is checked against. Regenerate only with -update, and only for
// a change that is *supposed* to alter results.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/spark"
)

// simGoldenFile holds one line per case, keyed "<test section>/<subtest>".
const simGoldenFile = "testdata/sim_golden.json"

// simDigest pins one run: its total (readable drift at a glance) and a
// SHA-256 over the JSON encoding of the whole Result, or over the
// error's type, message and fields when the run fails.
type simDigest struct {
	TotalNS int64  `json:"total_ns"`
	SHA256  string `json:"sha256"`
}

func digestRun(t *testing.T, cfg spark.ClusterConfig, app spark.App) simDigest {
	t.Helper()
	res, err := spark.Run(cfg, app)
	return digestOf(t, res, err)
}

func digestOf(t *testing.T, res *spark.Result, err error) simDigest {
	t.Helper()
	var d simDigest
	var buf []byte
	var jerr error
	if err != nil {
		buf, jerr = json.Marshal(err)
		buf = append([]byte(fmt.Sprintf("%T %s ", err, err)), buf...)
	} else {
		d.TotalNS = int64(res.Total)
		buf, jerr = json.Marshal(res)
	}
	if jerr != nil {
		t.Fatalf("encode run output: %v", jerr)
	}
	sum := sha256.Sum256(buf)
	d.SHA256 = hex.EncodeToString(sum[:])
	return d
}

func readSimGolden() (map[string]simDigest, error) {
	buf, err := os.ReadFile(simGoldenFile)
	if err != nil {
		return nil, err
	}
	var all map[string]simDigest
	return all, json.Unmarshal(buf, &all)
}

// simGolden checks the cases of one test section against the file.
type simGolden struct {
	section string
	want    map[string]simDigest // the whole file; nil under -update
	got     map[string]simDigest
}

func loadSimGolden(t *testing.T, section string) *simGolden {
	t.Helper()
	g := &simGolden{section: section, got: map[string]simDigest{}}
	if *updateGolden {
		return g
	}
	var err error
	if g.want, err = readSimGolden(); err != nil {
		t.Fatalf("read %s (run with -update from a known-good tree): %v", simGoldenFile, err)
	}
	return g
}

// check runs one case inside its subtest and compares it with the
// golden entry.
func (g *simGolden) check(t *testing.T, cfg spark.ClusterConfig, app spark.App) {
	t.Helper()
	key := g.section + t.Name()[strings.Index(t.Name(), "/"):]
	got := digestRun(t, cfg, app)
	g.got[key] = got
	if *updateGolden {
		return
	}
	if want, ok := g.want[key]; !ok {
		t.Errorf("%s has no golden entry in %s", key, simGoldenFile)
	} else if got != want {
		t.Errorf("%s drifted: got total %d ns sha256 %s, want total %d ns sha256 %s",
			key, got.TotalNS, got.SHA256, want.TotalNS, want.SHA256)
	}
}

// finish requires that every golden case of the section still ran, so
// a shrunken matrix cannot pass; under -update it rewrites the
// section's lines of the file instead.
func (g *simGolden) finish(t *testing.T) {
	t.Helper()
	prefix := g.section + "/"
	if !*updateGolden {
		for key := range g.want {
			if _, ok := g.got[key]; strings.HasPrefix(key, prefix) && !ok {
				t.Errorf("golden case %s did not run", key)
			}
		}
		return
	}
	all, err := readSimGolden()
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for key := range all {
		if strings.HasPrefix(key, prefix) {
			delete(all, key)
		}
	}
	if all == nil {
		all = map[string]simDigest{}
	}
	for key, d := range g.got {
		all[key] = d
	}
	keys := make([]string, 0, len(all))
	for key := range all {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var out strings.Builder
	out.WriteString("{\n")
	for i, key := range keys {
		entry, _ := json.Marshal(all[key]) // a struct of an int and a string cannot fail
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&out, "  %q: %s%s\n", key, entry, sep)
	}
	out.WriteString("}\n")
	if err := os.WriteFile(simGoldenFile, []byte(out.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote section %q of %s", g.section, simGoldenFile)
}

// homogeneousConfig is the paper testbed with every per-task
// heterogeneity source disabled: all nodes run identical schedules
// whenever the task counts divide the node count.
func homogeneousConfig(slaves, cores int, hdfs, local disk.Device) spark.ClusterConfig {
	cfg := spark.DefaultTestbed(slaves, cores, hdfs, local)
	cfg.ComputeJitter = 0
	return cfg
}

type shape struct {
	name          string
	slaves, cores int
	hdfs, local   disk.Device
}

// registryShapes are the jitter-free clusters of the registry section:
// task counts divide the node count at many stages (4 and 8 slaves) or
// mostly do not (3).
func registryShapes() []shape {
	hdd, ssd := disk.NewHDD(), disk.NewSSD()
	return []shape{
		{"4xSSD", 4, 8, ssd, ssd},
		{"4xHDD", 4, 8, hdd, hdd},
		{"8xHybrid", 8, 4, ssd, hdd},
		{"3xSSD", 3, 8, ssd, ssd},
	}
}

// TestCoalescingGoldenRegistry pins every registered workload on
// registryShapes.
func TestCoalescingGoldenRegistry(t *testing.T) {
	g := loadSimGolden(t, "registry")
	for _, name := range Names() {
		w, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range registryShapes() {
			t.Run(name+"/"+sh.name, func(t *testing.T) {
				cfg := homogeneousConfig(sh.slaves, sh.cores, sh.hdfs, sh.local)
				g.check(t, cfg, w.Build(cfg))
			})
		}
	}
	g.finish(t)
}

// TestCoalescingGoldenJitterFallback pins every registered workload on
// the default testbed, compute jitter on — the shape of every config
// the product builds.
func TestCoalescingGoldenJitterFallback(t *testing.T) {
	g := loadSimGolden(t, "jitter")
	for _, name := range Names() {
		w, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			cfg := jitterConfig()
			g.check(t, cfg, w.Build(cfg))
		})
	}
	g.finish(t)
}

// jitterConfig is the jitter section's cluster: the default testbed,
// compute jitter 0.15.
func jitterConfig() spark.ClusterConfig {
	ssd := disk.NewSSD()
	return spark.DefaultTestbed(4, 8, ssd, ssd)
}

// faultProfiles are representative degraded configurations applied on
// top of a homogeneous cluster: the regimes of the paper's failure,
// fetch-failure and straggler measurements.
func faultProfiles() map[string]func(cfg *spark.ClusterConfig) {
	return map[string]func(cfg *spark.ClusterConfig){
		"faults": func(cfg *spark.ClusterConfig) {
			cfg.Faults = spark.FaultConfig{TaskFailureProb: 0.004, Seed: 7, RetryBackoff: 0.05}
		},
		"fetch": func(cfg *spark.ClusterConfig) {
			cfg.Faults = spark.FaultConfig{TaskFailureProb: 0.002, ShuffleFetchFailureProb: 0.01, Seed: 3, RetryBackoff: 0.05}
		},
		"stragglers": func(cfg *spark.ClusterConfig) {
			cfg.Speculation = true
			cfg.StragglerFraction = 0.01
			cfg.StragglerSlowdown = 4
		},
		"all": func(cfg *spark.ClusterConfig) {
			cfg.Speculation = true
			cfg.StragglerFraction = 0.008
			cfg.StragglerSlowdown = 4
			cfg.Faults = spark.FaultConfig{TaskFailureProb: 0.003, ShuffleFetchFailureProb: 0.005, Seed: 11, RetryBackoff: 0.05}
		},
	}
}

// faultyShapes are the faulty section's clusters: divisible (8, 4
// slaves) and odd (3) node counts.
func faultyShapes() []shape {
	hdd, ssd := disk.NewHDD(), disk.NewSSD()
	return []shape{
		{"8xSSD", 8, 4, ssd, ssd},
		{"4xHDD", 4, 8, hdd, hdd},
		{"3xSSD", 3, 8, ssd, ssd},
	}
}

// TestFaultyCoalescingGoldenRegistry pins every registered workload
// under every fault profile on faultyShapes.
func TestFaultyCoalescingGoldenRegistry(t *testing.T) {
	g := loadSimGolden(t, "faulty")
	for _, name := range Names() {
		w, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range faultyShapes() {
			for prof, apply := range faultProfiles() {
				t.Run(name+"/"+sh.name+"/"+prof, func(t *testing.T) {
					cfg := homogeneousConfig(sh.slaves, sh.cores, sh.hdfs, sh.local)
					apply(&cfg)
					g.check(t, cfg, w.Build(cfg))
				})
			}
		}
	}
	g.finish(t)
}
