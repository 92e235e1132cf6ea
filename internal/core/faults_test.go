package core

import (
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/spark"
	"repro/internal/units"
)

// mrModel is the analytical twin of a shuffle-heavy two-stage
// map/reduce workload: maps write substantial shuffle data at small
// (64 KB) request sizes, reducers pull it back at the M-fanin request
// size. On HDD both stages are device-bound, so recovery I/O extends
// the run; on SSD the device has slack and recovery hides in it.
func mrModel(mapTasks, reduceTasks int) AppModel {
	const perMap = 32 * units.MB
	shuffled := units.ByteSize(mapTasks) * perMap
	perRed := shuffled / units.ByteSize(reduceTasks)
	return AppModel{Name: "mr", Stages: []StageModel{
		{
			Name: "map",
			Groups: []GroupModel{{Name: "m", Count: mapTasks, ComputePerTask: 200 * time.Millisecond, Ops: []OpModel{
				{Kind: spark.OpHDFSRead, BytesPerTask: 32 * units.MB, ReqSize: 32 * units.MB},
				{Kind: spark.OpShuffleWrite, BytesPerTask: perMap, ReqSize: 64 * units.KB},
			}}},
		},
		{
			Name: "reduce",
			Groups: []GroupModel{{Name: "r", Count: reduceTasks, ComputePerTask: 200 * time.Millisecond, Ops: []OpModel{
				{Kind: spark.OpShuffleRead, BytesPerTask: perRed, ReqSize: spark.ShuffleReadReqSize(perRed, mapTasks)},
			}}},
		},
	}}
}

func platformOn(dev disk.Device) Platform {
	return Platform{
		N: 4, P: 4,
		Curves:      CurvesFor(dev, dev),
		Replication: 2,
		BlockSize:   128 * units.MB,
	}
}

func TestPredictFaultyZeroIsIdentity(t *testing.T) {
	m := mrModel(32, 32)
	pl := platformOn(disk.NewSSD())
	base, err := m.Predict(pl, ModeDoppio)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := m.PredictFaulty(pl, ModeDoppio, FaultParams{})
	if err != nil {
		t.Fatal(err)
	}
	if fp.Total != base.Total {
		t.Errorf("zero FaultParams changed the prediction: %v vs %v", fp.Total, base.Total)
	}
	if fp.Inflation() != 1 {
		t.Errorf("inflation = %v, want 1", fp.Inflation())
	}
	if fp.AbortProb != 0 {
		t.Errorf("abort probability %v without faults", fp.AbortProb)
	}
}

// TestPredictFaultyMonotonic: more task failures never shorten the
// expected run. The heap case keeps t_mem_limit in the degraded stage
// time: without it the faulty total falls below the fault-free one.
func TestPredictFaultyMonotonic(t *testing.T) {
	heap := platformOn(disk.NewHDD())
	heap.Memory = MemParams{HeapBytes: 256 * units.MB}
	for _, tc := range []struct {
		name string
		m    AppModel
		pl   Platform
	}{
		{"ssd", mrModel(32, 32), platformOn(disk.NewSSD())},
		{"hdd-heap", mrModel(256, 256), heap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := time.Duration(0)
			for _, p := range []float64{0, 1e-6, 0.05, 0.1, 0.2, 0.4} {
				fp, err := tc.m.PredictFaulty(tc.pl, ModeDoppio, FaultParams{TaskFailureProb: p})
				if err != nil {
					t.Fatal(err)
				}
				if fp.Total <= prev {
					t.Errorf("p=%v: total %v did not grow past %v", p, fp.Total, prev)
				}
				prev = fp.Total
				if tc.pl.Memory.Enabled() && fp.Stages[0].TMemLimit <= 0 {
					t.Fatalf("p=%v: heap case has no t_mem_limit", p)
				}
			}
		})
	}
}

// TestPredictFaultyHDDDivergence is the paper's point applied to
// recovery: the same fetch-failure rate costs more on HDD because the
// recompute's shuffle I/O lands on the small-request bandwidth cliff.
func TestPredictFaultyHDDDivergence(t *testing.T) {
	m := mrModel(128, 128)
	f := FaultParams{ShuffleFetchFailureProb: 0.2, RetryBackoff: 100 * time.Millisecond}
	ssd, err := m.PredictFaulty(platformOn(disk.NewSSD()), ModeDoppio, f)
	if err != nil {
		t.Fatal(err)
	}
	hdd, err := m.PredictFaulty(platformOn(disk.NewHDD()), ModeDoppio, f)
	if err != nil {
		t.Fatal(err)
	}
	if hdd.Inflation() <= ssd.Inflation() {
		t.Errorf("HDD inflation %.3f not above SSD %.3f", hdd.Inflation(), ssd.Inflation())
	}
}

func TestPredictFaultyAbortProb(t *testing.T) {
	m := mrModel(16, 16)
	pl := platformOn(disk.NewSSD())
	low, err := m.PredictFaulty(pl, ModeDoppio, FaultParams{TaskFailureProb: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	high, err := m.PredictFaulty(pl, ModeDoppio, FaultParams{TaskFailureProb: 0.5, MaxTaskFailures: 2})
	if err != nil {
		t.Fatal(err)
	}
	if low.AbortProb <= 0 || low.AbortProb > 1e-4 {
		t.Errorf("low abort prob %v out of expected range", low.AbortProb)
	}
	if high.AbortProb < 0.9 {
		t.Errorf("0.5^2 per task over 32 tasks should almost surely abort, got %v", high.AbortProb)
	}
}

func TestPredictFaultyValidate(t *testing.T) {
	m := mrModel(8, 8)
	pl := platformOn(disk.NewSSD())
	for i, f := range []FaultParams{
		{TaskFailureProb: -0.1},
		{TaskFailureProb: 1},
		{ShuffleFetchFailureProb: 1.2},
		{MaxTaskFailures: -1},
		{RetryBackoff: -time.Second},
	} {
		if _, err := m.PredictFaulty(pl, ModeDoppio, f); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

// TestPredictFaultyTracksSimulation: the closed form must land in the
// same ballpark as the simulator's measured degraded runs — the
// model-vs-sim comparison the resilience artifact makes per device.
func TestPredictFaultyTracksSimulation(t *testing.T) {
	const mapTasks, reduceTasks = 128, 128
	model := mrModel(mapTasks, reduceTasks)
	for _, tc := range []struct {
		name string
		dev  disk.Device
	}{{"ssd", disk.NewSSD()}, {"hdd", disk.NewHDD()}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := spark.DefaultTestbed(4, 4, tc.dev, tc.dev)
			cfg.ComputeJitter = 0
			cfg.TaskLaunchOverhead = 0
			cfg.StageSetupOverhead = 0
			cfg.ModelNetwork = false
			app := simMRApp(mapTasks, reduceTasks)
			clean, err := spark.Run(cfg, app)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = spark.FaultConfig{TaskFailureProb: 0.05, ShuffleFetchFailureProb: 0.2,
				RetryBackoff: 0.1, Seed: 5}
			faulty, err := spark.Run(cfg, app)
			if err != nil {
				t.Fatal(err)
			}
			simInfl := faulty.Total.Seconds() / clean.Total.Seconds()

			fp, err := model.PredictFaulty(platformOn(tc.dev), ModeDoppio, FaultsFor(cfg.Faults))
			if err != nil {
				t.Fatal(err)
			}
			modelInfl := fp.Inflation()
			if simInfl <= 1 {
				t.Fatalf("simulated run did not degrade: inflation %.3f", simInfl)
			}
			// First-order estimate: demand the same direction and the
			// right order of magnitude, not point accuracy.
			simExcess, modelExcess := simInfl-1, modelInfl-1
			if modelExcess <= 0 {
				t.Fatalf("model predicts no degradation (inflation %.3f) while sim shows %.3f", modelInfl, simInfl)
			}
			ratio := modelExcess / simExcess
			if ratio < 0.2 || ratio > 5 {
				t.Errorf("model excess %.3f vs sim excess %.3f (ratio %.2f) — off by more than 5x", modelExcess, simExcess, ratio)
			}
		})
	}
}

// simMRApp mirrors mrModel for the simulator.
func simMRApp(mapTasks, reduceTasks int) spark.App {
	const perMap = 32 * units.MB
	shuffled := units.ByteSize(mapTasks) * perMap
	perRed := shuffled / units.ByteSize(reduceTasks)
	return spark.App{Name: "mr", Stages: []spark.Stage{
		{
			Name: "map",
			Groups: []spark.TaskGroup{{Name: "m", Count: mapTasks, Ops: []spark.Op{
				spark.IO(spark.OpHDFSRead, 32*units.MB, 32*units.MB, 0),
				spark.Compute(200 * time.Millisecond),
				spark.IO(spark.OpShuffleWrite, perMap, 64*units.KB, 0),
			}}},
		},
		{
			Name: "reduce",
			Groups: []spark.TaskGroup{{Name: "r", Count: reduceTasks, Ops: []spark.Op{
				spark.IO(spark.OpShuffleRead, perRed, spark.ShuffleReadReqSize(perRed, mapTasks), 0),
				spark.Compute(200 * time.Millisecond),
			}}},
		},
	}}
}
