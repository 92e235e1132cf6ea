package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/calib"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/experiments/sweep"
	"repro/internal/optimizer"
	"repro/internal/spark"
	"repro/internal/units"
	"repro/internal/workloads"
)

// maxBodyBytes bounds request bodies; the largest legitimate request (a
// dense sweep grid) is well under this.
const maxBodyBytes = 1 << 20

// maxSweepPoints bounds one sweep request's grid so a single POST cannot
// monopolise the worker pool.
const maxSweepPoints = 1024

// endpoint binds a route to its handler.
type endpoint struct {
	method  string
	route   string
	handler http.HandlerFunc
}

// endpoints lists every API route; the mux, the metrics series and the
// docs are all generated from this one table.
func (s *Server) endpoints() []endpoint {
	return []endpoint{
		{"GET", "/api/v1/workloads", s.handleWorkloads},
		{"POST", "/api/v1/predict", s.handlePredict},
		{"POST", "/api/v1/simulate", s.handleSimulate},
		{"POST", "/api/v1/whatif", s.handleWhatif},
		{"POST", "/api/v1/recommend", s.handleRecommend},
		{"POST", "/api/v1/sweep", s.handleSweep},
	}
}

// decodeStrict parses a JSON body, rejecting unknown fields and trailing
// garbage so typos ("slave": 10) surface as 400s instead of silently
// applying defaults.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return fmt.Errorf("bad request body: trailing data after JSON value")
	}
	return nil
}

// cacheKey canonicalizes a normalized request: the key is the route plus
// the re-marshalled struct, so two bodies that differ only in field
// order, whitespace, or explicitly-spelled defaults share one entry.
func cacheKey(route string, req any) (string, error) {
	canon, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	return route + "\x00" + string(canon), nil
}

// --- shared request shapes -------------------------------------------

// ClusterParams is the cluster shape shared by predict, simulate and
// whatif requests. Devices use the CLI vocabulary ("hdd", "ssd",
// "pd-standard:2TB", "pd-ssd:500GB").
type ClusterParams struct {
	Workload string `json:"workload"`
	Slaves   int    `json:"slaves"`
	Cores    int    `json:"cores"`
	HDFS     string `json:"hdfs"`
	Local    string `json:"local"`
	// HeapGB provisions per-node executor memory, enabling the memory
	// layer (spill + GC) in simulations and the t_mem_limit term in
	// predictions. Omitted or zero keeps the legacy memory-free
	// behaviour, and omitempty keeps legacy cache keys unchanged.
	HeapGB float64 `json:"heap_gb,omitempty"`
}

// normalize applies the CLI defaults and validates; after it returns the
// struct is fully specified, so its marshal form is canonical.
func (c *ClusterParams) normalize() error {
	if c.Workload == "" {
		return fmt.Errorf("workload is required (GET /api/v1/workloads lists them)")
	}
	if _, err := workloads.Get(c.Workload); err != nil {
		return err
	}
	if c.Slaves == 0 {
		c.Slaves = 10
	}
	if c.Cores == 0 {
		c.Cores = 36
	}
	if c.HDFS == "" {
		c.HDFS = "ssd"
	}
	if c.Local == "" {
		c.Local = "ssd"
	}
	if c.Slaves < 1 || c.Slaves > 1024 {
		return fmt.Errorf("slaves %d outside [1, 1024]", c.Slaves)
	}
	if c.Cores < 1 || c.Cores > 1024 {
		return fmt.Errorf("cores %d outside [1, 1024]", c.Cores)
	}
	if c.HeapGB < 0 || c.HeapGB > 4096 {
		return fmt.Errorf("heap_gb %v outside [0, 4096]", c.HeapGB)
	}
	if _, err := cloud.ParseDevice(c.HDFS); err != nil {
		return fmt.Errorf("hdfs: %v", err)
	}
	if _, err := cloud.ParseDevice(c.Local); err != nil {
		return fmt.Errorf("local: %v", err)
	}
	return nil
}

// clusterConfig builds the simulator configuration (devices are
// constructed per call: device state is not shareable across runs).
func (c ClusterParams) clusterConfig() (spark.ClusterConfig, error) {
	hd, err := cloud.ParseDevice(c.HDFS)
	if err != nil {
		return spark.ClusterConfig{}, err
	}
	ld, err := cloud.ParseDevice(c.Local)
	if err != nil {
		return spark.ClusterConfig{}, err
	}
	cfg := spark.DefaultTestbed(c.Slaves, c.Cores, hd, ld)
	cfg.Memory = spark.MemoryConfig{HeapGB: c.HeapGB}
	return cfg, nil
}

// FaultSpec mirrors core.FaultParams / spark.FaultConfig in JSON.
type FaultSpec struct {
	TaskFailureProb         float64 `json:"task_failure_prob,omitempty"`
	ShuffleFetchFailureProb float64 `json:"shuffle_fetch_failure_prob,omitempty"`
	MaxTaskFailures         int     `json:"max_task_failures,omitempty"`
	RetryBackoffSeconds     float64 `json:"retry_backoff_seconds,omitempty"`
	Seed                    uint64  `json:"seed,omitempty"`
}

func (f *FaultSpec) empty() bool {
	return f == nil || (f.TaskFailureProb == 0 && f.ShuffleFetchFailureProb == 0 &&
		f.MaxTaskFailures == 0 && f.RetryBackoffSeconds == 0 && f.Seed == 0)
}

func (f *FaultSpec) params() core.FaultParams {
	return core.FaultParams{
		TaskFailureProb:         f.TaskFailureProb,
		ShuffleFetchFailureProb: f.ShuffleFetchFailureProb,
		MaxTaskFailures:         f.MaxTaskFailures,
		RetryBackoff:            units.SecDuration(f.RetryBackoffSeconds),
	}
}

func (f *FaultSpec) config() spark.FaultConfig {
	return spark.FaultConfig{
		TaskFailureProb:         f.TaskFailureProb,
		ShuffleFetchFailureProb: f.ShuffleFetchFailureProb,
		MaxTaskFailures:         f.MaxTaskFailures,
		RetryBackoff:            spark.DurationParam(f.RetryBackoffSeconds),
		Seed:                    f.Seed,
	}
}

// cloudEval is a cloud calibration's search evaluator: its disk curves
// and memory-free device-pair compiles, built for exactly that
// calibration object.
type cloudEval struct {
	cal  *core.Calibration
	eval *optimizer.CompiledEvaluator
}

// cloudEvaluator returns the recommend evaluator of a workload's cloud
// calibration. The evaluator is a pure function of the calibrated
// model and outlives the request, so recommends after the first on a
// calibration pay only for their search. It is rebuilt whenever the
// cache hands out a different calibration object (after an eviction
// and recalibration, or a snapshot restore). The set holds one
// evaluator per workload, and each holds at most the disks and device
// pairs of DefaultSpace plus R1 and R2: heap variants stay local to
// each search.
func (s *Server) cloudEvaluator(workload string, cal *core.Calibration) *optimizer.CompiledEvaluator {
	s.cloudEvalMu.Lock()
	defer s.cloudEvalMu.Unlock()
	if e, ok := s.cloudEvals[workload]; ok && e.cal == cal {
		return e.eval
	}
	e := cloudEval{cal: cal, eval: optimizer.ModelEvaluator(cal.Model)}
	s.cloudEvals[workload] = e
	return e.eval
}

func parseMode(s string) (core.Mode, error) {
	switch s {
	case "", "doppio":
		return core.ModeDoppio, nil
	case "peak-bw":
		return core.ModePeakBW, nil
	case "no-overlap":
		return core.ModeNoOverlap, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (doppio, peak-bw, no-overlap)", s)
	}
}

// --- GET /api/v1/workloads -------------------------------------------

// WorkloadInfo is one catalogue entry.
type WorkloadInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// WorkloadsResponse lists the workload catalogue.
type WorkloadsResponse struct {
	Workloads []WorkloadInfo `json:"workloads"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	resp := WorkloadsResponse{}
	for _, n := range workloads.Names() {
		wl, err := workloads.Get(n)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		resp.Workloads = append(resp.Workloads, WorkloadInfo{Name: n, Description: wl.Description})
	}
	body, err := marshalBody(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// --- POST /api/v1/predict --------------------------------------------

// PredictRequest asks the calibrated analytical model (Eq. 1) for a
// stage or application runtime; with faults set it asks the
// failure-recovery extension (core.PredictFaulty) instead.
type PredictRequest struct {
	ClusterParams
	Mode   string     `json:"mode"`
	Stage  string     `json:"stage,omitempty"`
	Faults *FaultSpec `json:"faults,omitempty"`
}

func (req *PredictRequest) normalize() error {
	if err := req.ClusterParams.normalize(); err != nil {
		return err
	}
	if req.Mode == "" {
		req.Mode = "doppio"
	}
	if _, err := parseMode(req.Mode); err != nil {
		return err
	}
	if req.Faults.empty() {
		req.Faults = nil
	} else if err := req.Faults.params().Validate(); err != nil {
		return err
	}
	return nil
}

// StagePredictionJSON is one stage's evaluated Eq. 1.
type StagePredictionJSON struct {
	Name               string  `json:"name"`
	Seconds            float64 `json:"seconds"`
	Bottleneck         string  `json:"bottleneck"`
	ScaleSeconds       float64 `json:"scale_seconds"`
	ReadLimitSeconds   float64 `json:"read_limit_seconds"`
	WriteLimitSeconds  float64 `json:"write_limit_seconds"`
	DeviceLimitSeconds float64 `json:"device_limit_seconds"`
	MemLimitSeconds    float64 `json:"mem_limit_seconds,omitempty"`
}

func stageJSON(p core.StagePrediction) StagePredictionJSON {
	return StagePredictionJSON{
		Name:               p.Name,
		Seconds:            p.T.Seconds(),
		Bottleneck:         p.Bottleneck,
		ScaleSeconds:       p.TScale.Seconds(),
		ReadLimitSeconds:   p.TReadLimit.Seconds(),
		WriteLimitSeconds:  p.TWriteLimit.Seconds(),
		DeviceLimitSeconds: p.TDeviceLimit.Seconds(),
		MemLimitSeconds:    p.TMemLimit.Seconds(),
	}
}

// PredictResponse is the model's answer.
type PredictResponse struct {
	Workload            string                `json:"workload"`
	Mode                string                `json:"mode"`
	Slaves              int                   `json:"slaves"`
	Cores               int                   `json:"cores"`
	HDFS                string                `json:"hdfs"`
	Local               string                `json:"local"`
	Stages              []StagePredictionJSON `json:"stages"`
	TotalSeconds        float64               `json:"total_seconds"`
	BaseSeconds         float64               `json:"base_seconds,omitempty"`
	Inflation           float64               `json:"inflation,omitempty"`
	AbortProb           float64               `json:"abort_prob,omitempty"`
	CalibrationWarnings []string              `json:"calibration_warnings,omitempty"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := cacheKey("/api/v1/predict", req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.serveCached(w, r, key, func() ([]byte, error) { return s.computePredict(req) })
}

func (s *Server) computePredict(req PredictRequest) ([]byte, error) {
	cal, _, err := calib.For(s.cache, calib.Testbed(req.Workload, req.Slaves))
	if err != nil {
		return nil, err
	}
	cfg, err := req.clusterConfig()
	if err != nil {
		return nil, err
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	pl := core.PlatformFor(cfg)
	resp := PredictResponse{
		Workload: req.Workload, Mode: req.Mode,
		Slaves: req.Slaves, Cores: req.Cores,
		HDFS: req.HDFS, Local: req.Local,
		CalibrationWarnings: cal.Warnings,
	}
	if req.Faults != nil {
		pred, err := cal.Model.PredictFaulty(pl, mode, req.Faults.params())
		if err != nil {
			return nil, err
		}
		for _, st := range pred.Stages {
			resp.Stages = append(resp.Stages, stageJSON(st.StagePrediction))
		}
		resp.TotalSeconds = pred.Total.Seconds()
		resp.BaseSeconds = pred.Base.Seconds()
		resp.Inflation = pred.Inflation()
		resp.AbortProb = pred.AbortProb
	} else {
		pred, err := cal.Model.Predict(pl, mode)
		if err != nil {
			return nil, err
		}
		for _, st := range pred.Stages {
			resp.Stages = append(resp.Stages, stageJSON(st))
		}
		resp.TotalSeconds = pred.Total.Seconds()
	}
	if req.Stage != "" {
		var kept []StagePredictionJSON
		for _, st := range resp.Stages {
			if st.Name == req.Stage {
				kept = append(kept, st)
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("workload %s has no stage %q", req.Workload, req.Stage)
		}
		resp.Stages = kept
		resp.TotalSeconds = kept[0].Seconds
	}
	return marshalBody(resp)
}

// --- POST /api/v1/simulate -------------------------------------------

// SimulateRequest runs the discrete-event cluster simulator.
type SimulateRequest struct {
	ClusterParams
	Seed       uint64     `json:"seed,omitempty"`
	Stragglers float64    `json:"stragglers,omitempty"`
	Speculate  bool       `json:"speculate,omitempty"`
	Faults     *FaultSpec `json:"faults,omitempty"`
}

func (req *SimulateRequest) normalize() error {
	if err := req.ClusterParams.normalize(); err != nil {
		return err
	}
	if req.Stragglers < 0 || req.Stragglers >= 1 {
		return fmt.Errorf("stragglers %v outside [0, 1)", req.Stragglers)
	}
	if req.Faults.empty() {
		req.Faults = nil
	}
	return nil
}

func (req SimulateRequest) config() (spark.ClusterConfig, error) {
	cfg, err := req.clusterConfig()
	if err != nil {
		return spark.ClusterConfig{}, err
	}
	cfg.Seed = req.Seed
	if req.Stragglers > 0 {
		cfg.StragglerFraction = req.Stragglers
		cfg.StragglerSlowdown = 5
	}
	cfg.Speculation = req.Speculate
	if req.Faults != nil {
		cfg.Faults = req.Faults.config()
	}
	if err := cfg.Validate(); err != nil {
		return spark.ClusterConfig{}, err
	}
	return cfg, nil
}

// SimStageJSON is one simulated stage measurement.
type SimStageJSON struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`
	Tasks     int     `json:"tasks"`
	HDFSUtil  float64 `json:"hdfs_util"`
	LocalUtil float64 `json:"local_util"`
}

// SimFaultsJSON summarises injected-fault activity.
type SimFaultsJSON struct {
	TaskFailures  int `json:"task_failures"`
	FetchFailures int `json:"fetch_failures"`
	Retries       int `json:"retries"`
	Recomputes    int `json:"recomputes"`
}

// SimulateResponse is the simulator's measurement.
type SimulateResponse struct {
	Workload     string         `json:"workload"`
	Slaves       int            `json:"slaves"`
	Cores        int            `json:"cores"`
	HDFS         string         `json:"hdfs"`
	Local        string         `json:"local"`
	Stages       []SimStageJSON `json:"stages"`
	TotalSeconds float64        `json:"total_seconds"`
	CoreSeconds  float64        `json:"core_seconds"`
	Faults       *SimFaultsJSON `json:"faults,omitempty"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Surface config-vocabulary problems (e.g. fault probabilities out of
	// range) as 400s before caching.
	if _, err := req.config(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := cacheKey("/api/v1/simulate", req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.serveCached(w, r, key, func() ([]byte, error) { return s.computeSimulate(req) })
}

func (s *Server) computeSimulate(req SimulateRequest) ([]byte, error) {
	wl, err := workloads.Get(req.Workload)
	if err != nil {
		return nil, err
	}
	cfg, err := req.config()
	if err != nil {
		return nil, err
	}
	res, err := spark.Run(cfg, wl.Build(cfg))
	if err != nil {
		return nil, err
	}
	resp := SimulateResponse{
		Workload: req.Workload,
		Slaves:   req.Slaves, Cores: req.Cores,
		HDFS: req.HDFS, Local: req.Local,
		TotalSeconds: res.Total.Seconds(),
		CoreSeconds:  res.CoreSeconds,
	}
	for _, st := range res.Stages {
		resp.Stages = append(resp.Stages, SimStageJSON{
			Name:      st.Name,
			Seconds:   st.Duration().Seconds(),
			Tasks:     st.Tasks,
			HDFSUtil:  st.HDFSUtil(res.Slaves),
			LocalUtil: st.LocalUtil(res.Slaves),
		})
	}
	if res.Faults.Any() {
		resp.Faults = &SimFaultsJSON{
			TaskFailures:  res.Faults.TaskFailures,
			FetchFailures: res.Faults.FetchFailures,
			Retries:       res.Faults.Retries,
			Recomputes:    res.Faults.Recomputes,
		}
	}
	return marshalBody(resp)
}

// --- POST /api/v1/whatif ---------------------------------------------

// WhatifRequest sweeps per-node core counts — the capacity-planning
// question the paper's break-point analysis answers. backend "model"
// (default) uses the calibrated Eq. 1; backend "sim" runs the full
// simulator at every point.
type WhatifRequest struct {
	ClusterParams
	MaxCores int    `json:"max_cores"`
	Backend  string `json:"backend"`
}

func (req *WhatifRequest) normalize() error {
	// Cores is swept, not chosen; pin it so the canonical key does not
	// fragment on an ignored field.
	req.Cores = 1
	if err := req.ClusterParams.normalize(); err != nil {
		return err
	}
	if req.MaxCores == 0 {
		req.MaxCores = 64
	}
	if req.MaxCores < 1 || req.MaxCores > 1024 {
		return fmt.Errorf("max_cores %d outside [1, 1024]", req.MaxCores)
	}
	switch req.Backend {
	case "":
		req.Backend = "model"
	case "model", "sim":
	default:
		return fmt.Errorf("unknown backend %q (model, sim)", req.Backend)
	}
	return nil
}

// WhatifPointJSON is one swept core count.
type WhatifPointJSON struct {
	Cores        int     `json:"cores"`
	TotalSeconds float64 `json:"total_seconds"`
	// Bottlenecks counts stages per binding Eq. 1 term (model backend).
	Bottlenecks map[string]int `json:"bottlenecks,omitempty"`
	// ScalingExhausted marks the first point that improves <5% over the
	// previous one: P has passed the stage break points.
	ScalingExhausted bool `json:"scaling_exhausted,omitempty"`
}

// WhatifResponse is the swept curve.
type WhatifResponse struct {
	Workload string            `json:"workload"`
	Backend  string            `json:"backend"`
	Slaves   int               `json:"slaves"`
	HDFS     string            `json:"hdfs"`
	Local    string            `json:"local"`
	Points   []WhatifPointJSON `json:"points"`
}

func (s *Server) handleWhatif(w http.ResponseWriter, r *http.Request) {
	var req WhatifRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := cacheKey("/api/v1/whatif", req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.serveCached(w, r, key, func() ([]byte, error) { return s.computeWhatif(req) })
}

func (s *Server) computeWhatif(req WhatifRequest) ([]byte, error) {
	resp := WhatifResponse{
		Workload: req.Workload, Backend: req.Backend,
		Slaves: req.Slaves, HDFS: req.HDFS, Local: req.Local,
	}
	var cal *core.Calibration
	var wl workloads.Workload
	var err error
	if req.Backend == "model" {
		if cal, _, err = calib.For(s.cache, calib.Testbed(req.Workload, req.Slaves)); err != nil {
			return nil, err
		}
	} else if wl, err = workloads.Get(req.Workload); err != nil {
		return nil, err
	}
	base, err := req.clusterConfig()
	if err != nil {
		return nil, err
	}
	// The simulated points share one simulator; a model backend runs none.
	runner := spark.Borrow(base.Slaves)
	defer spark.Park(runner)
	var prev float64
	for p := 1; p <= req.MaxCores; p *= 2 {
		cfg := base.WithCores(p)
		point := WhatifPointJSON{Cores: p}
		if req.Backend == "model" {
			pred, err := cal.Model.Predict(core.PlatformFor(cfg), core.ModeDoppio)
			if err != nil {
				return nil, err
			}
			point.TotalSeconds = pred.Total.Seconds()
			point.Bottlenecks = map[string]int{}
			for _, st := range pred.Stages {
				point.Bottlenecks[st.Bottleneck]++
			}
		} else {
			res, err := runner.Run(cfg, wl.Build(cfg))
			if err != nil {
				return nil, err
			}
			point.TotalSeconds = res.Total.Seconds()
		}
		point.ScalingExhausted = prev > 0 && point.TotalSeconds > prev*0.95
		resp.Points = append(resp.Points, point)
		prev = point.TotalSeconds
	}
	return marshalBody(resp)
}

// --- POST /api/v1/recommend ------------------------------------------

// RecommendRequest searches the Google Cloud provisioning space for the
// cheapest configurations (paper Section VI), via the cloud-calibrated
// model.
type RecommendRequest struct {
	Workload string `json:"workload"`
	Slaves   int    `json:"slaves"`
	Top      int    `json:"top"`
	// DeadlineMinutes bounds the admissible predicted runtime; 0 means
	// unconstrained. With a deadline set the search prunes subspaces
	// using Eq. 1's monotonicity instead of evaluating the full grid
	// (omitempty keeps cache keys for deadline-free requests unchanged).
	DeadlineMinutes float64 `json:"deadline_minutes,omitempty"`
	// HeapGBs adds an executor-heap axis to the search space: each value
	// is evaluated with the t_mem_limit term parameterised by that heap
	// and priced per GB. Empty keeps the memory-free legacy space (and,
	// via omitempty, the legacy cache keys).
	HeapGBs []float64 `json:"heap_gbs,omitempty"`
}

func (req *RecommendRequest) normalize() error {
	if req.Workload == "" {
		return fmt.Errorf("workload is required (GET /api/v1/workloads lists them)")
	}
	if _, err := workloads.Get(req.Workload); err != nil {
		return err
	}
	if req.Slaves == 0 {
		req.Slaves = 10
	}
	if req.Slaves < 1 || req.Slaves > 1024 {
		return fmt.Errorf("slaves %d outside [1, 1024]", req.Slaves)
	}
	if req.Top == 0 {
		req.Top = 5
	}
	if req.Top < 1 || req.Top > 50 {
		return fmt.Errorf("top %d outside [1, 50]", req.Top)
	}
	if req.DeadlineMinutes < 0 {
		return fmt.Errorf("deadline_minutes %g must be non-negative", req.DeadlineMinutes)
	}
	if len(req.HeapGBs) > 16 {
		return fmt.Errorf("heap_gbs has %d values, limit 16", len(req.HeapGBs))
	}
	for _, h := range req.HeapGBs {
		if h <= 0 || h > 4096 {
			return fmt.Errorf("heap_gbs value %v outside (0, 4096]", h)
		}
	}
	// The axis is a set: its order does not change the answer, so one
	// order gives every spelling one cache and shard key, and a repeated
	// value would list each of its configurations twice.
	sort.Float64s(req.HeapGBs)
	for i := 1; i < len(req.HeapGBs); i++ {
		if req.HeapGBs[i] == req.HeapGBs[i-1] {
			return fmt.Errorf("heap_gbs lists %v twice", req.HeapGBs[i])
		}
	}
	return nil
}

// CandidateJSON is one evaluated cloud configuration.
type CandidateJSON struct {
	Spec         string  `json:"spec"`
	VCPUs        int     `json:"vcpus"`
	HDFSType     string  `json:"hdfs_type"`
	HDFSSizeGB   float64 `json:"hdfs_size_gb"`
	LocalType    string  `json:"local_type"`
	LocalSizeGB  float64 `json:"local_size_gb"`
	HeapGB       float64 `json:"heap_gb,omitempty"`
	TimeMinutes  float64 `json:"time_minutes"`
	CostUSD      float64 `json:"cost_usd"`
	SavingVsBest float64 `json:"-"`
}

func candidateJSON(c optimizer.Candidate) CandidateJSON {
	return CandidateJSON{
		Spec:        c.Spec.String(),
		VCPUs:       c.Spec.VCPUs,
		HDFSType:    c.Spec.HDFSType.String(),
		HDFSSizeGB:  c.Spec.HDFSSize.GBytes(),
		LocalType:   c.Spec.LocalType.String(),
		LocalSizeGB: c.Spec.LocalSize.GBytes(),
		HeapGB:      c.Spec.HeapGB,
		TimeMinutes: c.Time.Minutes(),
		CostUSD:     c.Cost,
	}
}

// ReferenceJSON is a rule-of-thumb provisioning baseline and the saving
// the optimum achieves over it.
type ReferenceJSON struct {
	Name        string  `json:"name"`
	Spec        string  `json:"spec"`
	TimeMinutes float64 `json:"time_minutes"`
	CostUSD     float64 `json:"cost_usd"`
	Saving      float64 `json:"saving"`
}

// RecommendResponse lists the cheapest (feasible) configurations, the
// references, and the search's evaluation accounting: evaluated +
// pruned always equals space_size. Without a deadline everything is
// evaluated; with one, pruned reports the work Eq. 1's monotonicity
// saved.
type RecommendResponse struct {
	Workload   string          `json:"workload"`
	Slaves     int             `json:"slaves"`
	SpaceSize  int             `json:"space_size"`
	Evaluated  int             `json:"evaluated"`
	Pruned     int             `json:"pruned"`
	Best       []CandidateJSON `json:"best"`
	References []ReferenceJSON `json:"references"`
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req RecommendRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := cacheKey("/api/v1/recommend", req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.serveCached(w, r, key, func() ([]byte, error) { return s.computeRecommend(req) })
}

func (s *Server) computeRecommend(req RecommendRequest) ([]byte, error) {
	cal, _, err := calib.For(s.cache, calib.Cloud(req.Workload))
	if err != nil {
		return nil, err
	}
	eval := s.cloudEvaluator(req.Workload, cal)
	pricing := cloud.DefaultPricing()
	space := optimizer.DefaultSpace(req.Slaves)
	space.HeapGBs = req.HeapGBs
	cons := optimizer.Constraints{Deadline: time.Duration(req.DeadlineMinutes * float64(time.Minute))}
	rep, err := optimizer.PrunedSearchTop(space, eval, pricing, cons, req.Top)
	if err != nil {
		return nil, err
	}
	s.optEvaluated.Add(uint64(rep.Evaluated))
	s.optPruned.Add(uint64(rep.Pruned))
	cands := rep.Candidates
	resp := RecommendResponse{
		Workload: req.Workload, Slaves: req.Slaves, SpaceSize: space.Size(),
		Evaluated: rep.Evaluated, Pruned: rep.Pruned,
	}
	for _, c := range cands {
		resp.Best = append(resp.Best, candidateJSON(c))
	}
	for _, ref := range []struct {
		name string
		spec cloud.ClusterSpec
	}{{"R1", cloud.R1(req.Slaves, 16)}, {"R2", cloud.R2(req.Slaves, 16)}} {
		d, err := eval.Evaluate(ref.spec)
		if err != nil {
			return nil, err
		}
		cost := ref.spec.Cost(d, pricing)
		saving := 0.0
		if len(cands) > 0 {
			saving = 1 - cands[0].Cost/cost
		}
		resp.References = append(resp.References, ReferenceJSON{
			Name:        ref.name,
			Spec:        ref.spec.String(),
			TimeMinutes: d.Minutes(),
			CostUSD:     cost,
			Saving:      saving,
		})
	}
	return marshalBody(resp)
}

// --- POST /api/v1/sweep ----------------------------------------------

// DevicePairJSON names one (HDFS, Spark Local) device combination.
type DevicePairJSON struct {
	HDFS  string `json:"hdfs"`
	Local string `json:"local"`
}

// SweepRequest fans the calibrated model out over a cluster-shape grid
// (nodes × cores × device pairs × workloads) through the sweep engine.
type SweepRequest struct {
	Workloads []string         `json:"workloads"`
	Nodes     []int            `json:"nodes"`
	Cores     []int            `json:"cores"`
	Devices   []DevicePairJSON `json:"devices"`
}

func (req *SweepRequest) normalize() error {
	if len(req.Workloads) == 0 {
		return fmt.Errorf("workloads is required (GET /api/v1/workloads lists them)")
	}
	for _, w := range req.Workloads {
		if _, err := workloads.Get(w); err != nil {
			return err
		}
	}
	if len(req.Nodes) == 0 {
		req.Nodes = []int{10}
	}
	if len(req.Cores) == 0 {
		req.Cores = []int{36}
	}
	if len(req.Devices) == 0 {
		req.Devices = []DevicePairJSON{{HDFS: "ssd", Local: "ssd"}}
	}
	for _, n := range req.Nodes {
		if n < 1 || n > 1024 {
			return fmt.Errorf("nodes value %d outside [1, 1024]", n)
		}
	}
	for _, c := range req.Cores {
		if c < 1 || c > 1024 {
			return fmt.Errorf("cores value %d outside [1, 1024]", c)
		}
	}
	for _, d := range req.Devices {
		if _, err := cloud.ParseDevice(d.HDFS); err != nil {
			return fmt.Errorf("devices.hdfs: %v", err)
		}
		if _, err := cloud.ParseDevice(d.Local); err != nil {
			return fmt.Errorf("devices.local: %v", err)
		}
	}
	if n := len(req.Workloads) * len(req.Nodes) * len(req.Cores) * len(req.Devices); n > maxSweepPoints {
		return fmt.Errorf("grid has %d points, limit %d", n, maxSweepPoints)
	}
	return nil
}

// SweepPointJSON is one evaluated grid point. Err isolates a failing
// point without losing its siblings, mirroring sweep.Outcome.
type SweepPointJSON struct {
	Workload     string  `json:"workload"`
	Nodes        int     `json:"nodes"`
	Cores        int     `json:"cores"`
	HDFS         string  `json:"hdfs"`
	Local        string  `json:"local"`
	TotalSeconds float64 `json:"total_seconds,omitempty"`
	Bottleneck   string  `json:"bottleneck,omitempty"`
	Err          string  `json:"error,omitempty"`
}

// SweepResponse is the evaluated grid in row-major order.
type SweepResponse struct {
	Points []SweepPointJSON `json:"points"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := cacheKey("/api/v1/sweep", req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.serveCached(w, r, key, func() ([]byte, error) { return s.computeSweep(req) })
}

func (s *Server) computeSweep(req SweepRequest) ([]byte, error) {
	grid := sweep.Grid{Nodes: req.Nodes, Cores: req.Cores, Workloads: req.Workloads}
	for _, d := range req.Devices {
		d := d
		grid.Devices = append(grid.Devices, sweep.DevicePair{
			Name: d.HDFS + "/" + d.Local,
			HDFS: func() disk.Device { dev, _ := cloud.ParseDevice(d.HDFS); return dev },
			Local: func() disk.Device {
				dev, _ := cloud.ParseDevice(d.Local)
				return dev
			},
		})
	}
	// The sweep planner: a calibration (and the model compiled against
	// its devices) depends on (workload, nodes, device pair) but not on
	// the cores axis, so points are grouped by that key, each group pays
	// for calibration and compilation once, and its shapes stream through
	// the zero-alloc PredictBatch. Groups fan out over the worker pool
	// and write to disjoint indices of one preallocated result slab, so
	// the response keeps row-major grid order without reassembly.
	points := grid.Points()
	type calKey struct {
		workload string
		nodes    int
		devices  string
	}
	groups := sweep.GroupBy(points, func(p sweep.Point) calKey {
		return calKey{p.Workload, p.Nodes, p.Devices.Name}
	})
	slab := make([]SweepPointJSON, len(points))
	sweep.Map(groups, 0, func(g sweep.Group[calKey, sweep.Point]) (struct{}, error) {
		hdfsName, localName, _ := strings.Cut(g.Key.devices, "/")
		for j, p := range g.Points {
			slab[g.Indices[j]] = SweepPointJSON{
				Workload: p.Workload, Nodes: p.Nodes, Cores: p.Cores,
				HDFS: hdfsName, Local: localName,
			}
		}
		fail := func(err error) (struct{}, error) {
			for _, idx := range g.Indices {
				slab[idx].Err = err.Error()
			}
			return struct{}{}, nil
		}
		cal, _, err := calib.For(s.cache, calib.Testbed(g.Key.workload, g.Key.nodes))
		if err != nil {
			return fail(err)
		}
		dev := g.Points[0].Devices
		cfg := spark.DefaultTestbed(g.Key.nodes, 1, dev.HDFS(), dev.Local())
		cm, err := core.Compile(cal.Model, core.EnvOf(core.PlatformFor(cfg)), core.ModeDoppio)
		if err != nil {
			return fail(err)
		}
		shapes := make([]core.Shape, len(g.Points))
		for j, p := range g.Points {
			shapes[j] = core.Shape{N: p.Nodes, P: p.Cores}
		}
		totals := make([]time.Duration, len(shapes))
		if _, err := cm.PredictBatch(shapes, totals); err != nil {
			return fail(err)
		}
		for j, idx := range g.Indices {
			slab[idx].TotalSeconds = totals[j].Seconds()
			top, err := cm.TopBottleneck(shapes[j].N, shapes[j].P)
			if err != nil {
				return fail(err)
			}
			slab[idx].Bottleneck = top
		}
		return struct{}{}, nil
	})
	s.sweepPoints.Add(uint64(len(points)))
	return marshalBody(SweepResponse{Points: slab})
}
