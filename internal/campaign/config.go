// Package campaign turns one-shot doppio runs into durable parameter
// studies: a JSON study config names the axes to vary (nodes, cores,
// device, workload, executor heap, fault rate, data scale, seed) over a fixed base
// configuration, expands deterministically into a point list, and runs
// every point through the streaming sweep engine with per-point
// panic/error isolation. Completed points are appended to an fsync'd
// JSONL checkpoint keyed by a canonical point hash, so a campaign killed
// mid-run resumes without recomputing anything it already finished, and
// a sharded campaign fans the point list out across processes whose
// checkpoints merge back into one report. See docs/CAMPAIGN.md.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/workloads"
)

// Study modes: "sim" runs every point through the simulator; "model"
// additionally calibrates the analytical model once per workload
// (through calib.For on the process-wide calib.Shared cache) and records
// the prediction and its error next to each simulated point.
const (
	ModeSim   = "sim"
	ModeModel = "model"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("30s", "2m"), so study configs stay human-editable. A bare JSON
// number is accepted as seconds.
type Duration time.Duration

// UnmarshalJSON accepts "30s"-style strings or numeric seconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	s := strings.TrimSpace(string(b))
	if len(s) > 0 && s[0] == '"' {
		var str string
		if err := json.Unmarshal(b, &str); err != nil {
			return err
		}
		v, err := time.ParseDuration(str)
		if err != nil {
			return fmt.Errorf("campaign: bad duration %q: %w", str, err)
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return err
	}
	*d = Duration(secs * float64(time.Second))
	return nil
}

// MarshalJSON renders the duration string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Base is the fixed part of a study: the value every axis falls back to
// when the config does not vary it.
type Base struct {
	// Workload is the default workload (required unless Axes.Workloads
	// is set).
	Workload string `json:"workload,omitempty"`
	// Nodes is the default worker node count N (default 4).
	Nodes int `json:"nodes,omitempty"`
	// Cores is the default per-node executor core count P (default 4).
	Cores int `json:"cores,omitempty"`
	// Device backs both HDFS and Spark Local on every point; the
	// vocabulary is cloud.ParseDevice's ("hdd", "ssd", "pd-ssd:500GB",
	// "pd-standard:2TB"). Default "ssd".
	Device string `json:"device,omitempty"`
	// FetchFailProb is the default per-attempt shuffle-fetch failure
	// probability (the resilience studies' fault-rate axis).
	FetchFailProb float64 `json:"fetch_fail_prob,omitempty"`
	// DataScale multiplies every task group's partition count, modeling
	// a proportionally larger (or smaller) input at fixed per-partition
	// volume. Default 1.
	DataScale float64 `json:"data_scale,omitempty"`
	// HeapGB is the default executor heap per node in GB. 0 (the
	// default) disables the memory layer entirely — the legacy regime
	// with no spill and no GC.
	HeapGB float64 `json:"heap_gb,omitempty"`
	// Seed is the default jitter/fault seed.
	Seed uint64 `json:"seed,omitempty"`
	// MaxTaskFailures is spark.task.maxFailures for faulty points
	// (0 = Spark default 4). High fault rates need headroom here to
	// measure recovery cost rather than abort behaviour.
	MaxTaskFailures int `json:"max_task_failures,omitempty"`
}

// Axes lists the values each varied dimension takes. An empty axis
// contributes the single Base value, so a config can sweep any subset
// of the dimensions.
type Axes struct {
	Nodes     []int    `json:"nodes,omitempty"`
	Cores     []int    `json:"cores,omitempty"`
	Devices   []string `json:"devices,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	// HeapGBs sweeps the executor heap (GB per node). A 0 value is a
	// memory-layer-off point, so off-vs-on studies are one axis.
	HeapGBs    []float64 `json:"heap_gbs,omitempty"`
	FetchFail  []float64 `json:"fetch_fail_probs,omitempty"`
	DataScales []float64 `json:"data_scales,omitempty"`
	Seeds      []uint64  `json:"seeds,omitempty"`
}

// Config is one campaign study.
type Config struct {
	// Name identifies the study; it keys default artifact paths and the
	// merged report. Lowercase letters, digits, '-' and '_' only.
	Name string `json:"name"`
	// Mode is ModeSim (default) or ModeModel.
	Mode string `json:"mode,omitempty"`
	// Base is the fixed configuration every point starts from.
	Base Base `json:"base"`
	// Axes are the varied dimensions.
	Axes Axes `json:"axes"`
	// PointTimeout bounds each point's evaluation (0 = none).
	PointTimeout Duration `json:"point_timeout,omitempty"`
	// Parallel is the default worker-pool size (0 = GOMAXPROCS); the
	// -parallel flag overrides it. Not part of the config hash: it
	// cannot change results.
	Parallel int `json:"parallel,omitempty"`
}

// Point is one expanded evaluation point of a study.
type Point struct {
	// Index is the point's position in the deterministic row-major
	// expansion (workloads, nodes, cores, devices, heaps, fault rates,
	// data scales, seeds).
	Index    int    `json:"index"`
	Workload string `json:"workload"`
	Nodes    int    `json:"nodes"`
	Cores    int    `json:"cores"`
	Device   string `json:"device"`
	// HeapGB carries omitempty so points from pre-memory studies hash
	// and checkpoint byte-identically.
	HeapGB        float64 `json:"heap_gb,omitempty"`
	FetchFailProb float64 `json:"fetch_fail_prob"`
	DataScale     float64 `json:"data_scale"`
	Seed          uint64  `json:"seed"`
}

// Name renders the point's compact row label:
// "lr-small/n4/p8/ssd/q0.05/x1/s3", with an "/h<GB>" segment after the
// device on memory-limited points ("…/ssd/h0.5/q0.05/x1/s3").
func (p Point) Name() string {
	heap := ""
	if p.HeapGB != 0 {
		heap = "/h" + strconv.FormatFloat(p.HeapGB, 'g', -1, 64)
	}
	return fmt.Sprintf("%s/n%d/p%d/%s%s/q%s/x%s/s%d",
		p.Workload, p.Nodes, p.Cores, p.Device, heap,
		strconv.FormatFloat(p.FetchFailProb, 'g', -1, 64),
		strconv.FormatFloat(p.DataScale, 'g', -1, 64),
		p.Seed)
}

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]*$`)

// ParseConfig decodes and validates a study config. Unknown fields are
// rejected so a typoed axis name fails loudly instead of silently not
// sweeping.
func ParseConfig(data []byte) (Config, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("campaign: parsing config: %w", err)
	}
	c = c.withDefaults()
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// LoadConfig reads and parses a study config file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	c, err := ParseConfig(data)
	if err != nil {
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// withDefaults fills the zero-valued knobs, so hashing and expansion
// see one canonical form regardless of which fields the file spelled
// out.
func (c Config) withDefaults() Config {
	if c.Mode == "" {
		c.Mode = ModeSim
	}
	if c.Base.Nodes == 0 {
		c.Base.Nodes = 4
	}
	if c.Base.Cores == 0 {
		c.Base.Cores = 4
	}
	if c.Base.Device == "" {
		c.Base.Device = "ssd"
	}
	if c.Base.DataScale == 0 {
		c.Base.DataScale = 1
	}
	return c
}

// Validate checks the study for problems that should fail at config
// load, with config vocabulary, rather than surface per point.
func (c Config) Validate() error {
	if !nameRE.MatchString(c.Name) {
		return fmt.Errorf("campaign: name %q must match %s", c.Name, nameRE)
	}
	if c.Mode != ModeSim && c.Mode != ModeModel {
		return fmt.Errorf("campaign: mode %q must be %q or %q", c.Mode, ModeSim, ModeModel)
	}
	if len(c.Axes.Workloads) == 0 && c.Base.Workload == "" {
		return fmt.Errorf("campaign: no workload: set base.workload or axes.workloads")
	}
	for _, w := range append(append([]string{}, c.Axes.Workloads...), c.Base.Workload) {
		if w == "" {
			continue
		}
		if _, err := workloads.Get(w); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	for _, d := range append(append([]string{}, c.Axes.Devices...), c.Base.Device) {
		if d == "" {
			continue
		}
		if _, err := cloud.ParseDevice(d); err != nil {
			return fmt.Errorf("campaign: device %q: %w", d, err)
		}
	}
	for _, n := range append(append([]int{}, c.Axes.Nodes...), c.Base.Nodes) {
		if n < 1 {
			return fmt.Errorf("campaign: node count %d must be at least 1", n)
		}
	}
	for _, p := range append(append([]int{}, c.Axes.Cores...), c.Base.Cores) {
		if p < 1 {
			return fmt.Errorf("campaign: core count %d must be at least 1", p)
		}
	}
	for _, h := range append(append([]float64{}, c.Axes.HeapGBs...), c.Base.HeapGB) {
		if h < 0 || h > 4096 {
			return fmt.Errorf("campaign: heap %v GB outside [0, 4096] (0 = memory layer off)", h)
		}
	}
	for _, q := range append(append([]float64{}, c.Axes.FetchFail...), c.Base.FetchFailProb) {
		if q < 0 || q >= 1 {
			return fmt.Errorf("campaign: fetch-fail probability %v outside [0,1)", q)
		}
	}
	for _, s := range append(append([]float64{}, c.Axes.DataScales...), c.Base.DataScale) {
		if s <= 0 {
			return fmt.Errorf("campaign: data scale %v must be positive", s)
		}
	}
	if c.PointTimeout < 0 {
		return fmt.Errorf("campaign: point_timeout must not be negative")
	}
	if c.Parallel < 0 {
		return fmt.Errorf("campaign: parallel must not be negative")
	}
	if c.Size() == 0 {
		return fmt.Errorf("campaign: study expands to zero points")
	}
	return nil
}

// axis returns the varied values, or the base fallback for an unswept
// dimension.
func axis[T any](values []T, base T) []T {
	if len(values) > 0 {
		return values
	}
	return []T{base}
}

// Points expands the study into its deterministic row-major point list:
// workloads vary slowest, then nodes, cores, devices, heaps, fault
// rates, data scales, and seeds fastest. The same config always yields
// the same list in the same order — the property checkpointing,
// sharding and merging all key on.
func (c Config) Points() []Point {
	c = c.withDefaults()
	ws := axis(c.Axes.Workloads, c.Base.Workload)
	ns := axis(c.Axes.Nodes, c.Base.Nodes)
	ps := axis(c.Axes.Cores, c.Base.Cores)
	ds := axis(c.Axes.Devices, c.Base.Device)
	hs := axis(c.Axes.HeapGBs, c.Base.HeapGB)
	qs := axis(c.Axes.FetchFail, c.Base.FetchFailProb)
	xs := axis(c.Axes.DataScales, c.Base.DataScale)
	ss := axis(c.Axes.Seeds, c.Base.Seed)
	out := make([]Point, 0, len(ws)*len(ns)*len(ps)*len(ds)*len(hs)*len(qs)*len(xs)*len(ss))
	for _, w := range ws {
		for _, n := range ns {
			for _, p := range ps {
				for _, d := range ds {
					for _, h := range hs {
						for _, q := range qs {
							for _, x := range xs {
								for _, s := range ss {
									out = append(out, Point{
										Index: len(out), Workload: w,
										Nodes: n, Cores: p, Device: d, HeapGB: h,
										FetchFailProb: q, DataScale: x, Seed: s,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Size is the number of points the study expands to.
func (c Config) Size() int {
	c = c.withDefaults()
	n := len(axis(c.Axes.Workloads, c.Base.Workload)) *
		len(axis(c.Axes.Nodes, c.Base.Nodes)) *
		len(axis(c.Axes.Cores, c.Base.Cores)) *
		len(axis(c.Axes.Devices, c.Base.Device)) *
		len(axis(c.Axes.HeapGBs, c.Base.HeapGB)) *
		len(axis(c.Axes.FetchFail, c.Base.FetchFailProb)) *
		len(axis(c.Axes.DataScales, c.Base.DataScale)) *
		len(axis(c.Axes.Seeds, c.Base.Seed))
	return n
}

// Shard filters the point list down to shard i of n (points whose
// Index ≡ i mod n). The shards are disjoint and cover the study, and
// round-robin assignment keeps each shard's workload mix representative
// even when the expansion orders expensive workloads first.
func Shard(points []Point, n, i int) []Point {
	if n <= 1 {
		return points
	}
	out := make([]Point, 0, (len(points)+n-1)/n)
	for _, p := range points {
		if p.Index%n == i {
			out = append(out, p)
		}
	}
	return out
}

// hashIdentity is what the config hash covers: everything that can
// change a point's result or the point list. Execution knobs (parallel,
// point timeout) are deliberately excluded — re-running a study with a
// bigger pool must still resume its checkpoint.
type hashIdentity struct {
	Version int    `json:"v"`
	Name    string `json:"name"`
	Mode    string `json:"mode"`
	Base    Base   `json:"base"`
	Axes    Axes   `json:"axes"`
}

// hashVersion bumps whenever the expansion order, the point evaluation
// semantics, or the checkpoint record shape changes incompatibly — a
// stale checkpoint must refuse to resume rather than silently mix
// regimes.
const hashVersion = 1

// Hash returns the canonical study hash: a hex SHA-256 over the
// defaults-applied identity fields in fixed struct order.
func (c Config) Hash() string {
	c = c.withDefaults()
	b, err := json.Marshal(hashIdentity{
		Version: hashVersion, Name: c.Name, Mode: c.Mode, Base: c.Base, Axes: c.Axes,
	})
	if err != nil {
		// Marshaling a plain struct of scalars and slices cannot fail.
		panic(fmt.Sprintf("campaign: hashing config: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// PointHash returns the canonical hash a checkpoint record is keyed by:
// the study hash combined with the point's own fields, so a checkpoint
// from a different base config (or a different expansion) can never
// satisfy this study's points.
func (c Config) PointHash(p Point) string {
	b, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("campaign: hashing point: %v", err))
	}
	sum := sha256.Sum256(append([]byte(c.Hash()+":"), b...))
	return hex.EncodeToString(sum[:])
}
