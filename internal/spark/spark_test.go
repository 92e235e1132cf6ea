package spark

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/units"
)

// constDev is a request-size-independent device for analytic tests.
type constDev struct {
	read, write units.Rate
}

func (c constDev) Name() string                             { return "const" }
func (c constDev) Kind() disk.Type                          { return disk.SSD }
func (c constDev) ReadBandwidth(units.ByteSize) units.Rate  { return c.read }
func (c constDev) WriteBandwidth(units.ByteSize) units.Rate { return c.write }

func barebones(slaves, cores int, dev disk.Device) ClusterConfig {
	cfg := DefaultTestbed(slaves, cores, dev, dev)
	cfg.TaskLaunchOverhead = 0
	cfg.StageSetupOverhead = 0
	cfg.ModelNetwork = false
	cfg.ComputeJitter = 0
	return cfg
}

func TestValidate(t *testing.T) {
	dev := constDev{units.MBps(100), units.MBps(100)}
	good := barebones(2, 4, dev)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []ClusterConfig{
		{}, // everything zero
		func() ClusterConfig { c := good; c.Slaves = 0; return c }(),
		func() ClusterConfig { c := good; c.ExecutorCores = -1; return c }(),
		func() ClusterConfig { c := good; c.StorageFraction = 1.5; return c }(),
		func() ClusterConfig { c := good; c.HDFSDisk = nil; return c }(),
		func() ClusterConfig { c := good; c.HDFSBlockSize = 0; return c }(),
		func() ClusterConfig { c := good; c.HDFSReplication = 0; return c }(),
		func() ClusterConfig { c := good; c.ModelNetwork = true; c.NICRate = 0; return c }(),
		func() ClusterConfig { c := good; c.ComputeJitter = 1.5; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestAppValidate(t *testing.T) {
	if err := (App{Name: "x"}).Validate(); err == nil {
		t.Error("empty app accepted")
	}
	app := App{Name: "x", Stages: []Stage{{Name: "s"}}}
	if err := app.Validate(); err == nil {
		t.Error("stage without groups accepted")
	}
	app.Stages[0].Groups = []TaskGroup{{Name: "g", Count: 0, Ops: []Op{Compute(time.Second)}}}
	if err := app.Validate(); err == nil {
		t.Error("zero-count group accepted")
	}
	app.Stages[0].Groups[0].Count = 1
	if err := app.Validate(); err != nil {
		t.Errorf("good app rejected: %v", err)
	}
	app.Stages[0].Groups[0].Ops = []Op{Compute(-time.Second)}
	if err := app.Validate(); err == nil {
		t.Error("negative compute accepted")
	}
}

func TestComputeOnlyStageScalesWithCores(t *testing.T) {
	// M tasks of pure compute: t = ceil-ish(M/(N*P)) * t_task.
	dev := constDev{units.MBps(1000), units.MBps(1000)}
	app := App{Name: "compute", Stages: []Stage{{
		Name: "c",
		Groups: []TaskGroup{{
			Name: "g", Count: 120,
			Ops: []Op{Compute(10 * time.Second)},
		}},
	}}}
	for _, tc := range []struct {
		n, p    int
		wantSec float64
	}{
		{1, 1, 1200}, {1, 12, 100}, {3, 4, 100}, {2, 60, 10}, {4, 30, 10},
	} {
		res, err := Run(barebones(tc.n, tc.p, dev), app)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Total.Seconds(); math.Abs(got-tc.wantSec) > 0.01 {
			t.Errorf("N=%d P=%d: total=%.2fs want %.0fs", tc.n, tc.p, got, tc.wantSec)
		}
	}
}

func TestPartialLastBatch(t *testing.T) {
	// 10 tasks on 4 cores: batches of 4,4,2 -> 3 * t_task.
	dev := constDev{units.MBps(1000), units.MBps(1000)}
	app := App{Name: "c", Stages: []Stage{{
		Name:   "c",
		Groups: []TaskGroup{{Name: "g", Count: 10, Ops: []Op{Compute(5 * time.Second)}}},
	}}}
	res, err := Run(barebones(1, 4, dev), app)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Total.Seconds(); math.Abs(got-15) > 0.01 {
		t.Errorf("total=%.2fs want 15s", got)
	}
}

// TestFig6Phases reproduces the paper's Fig. 6 toy example: T = 60 MB/s
// per core, BW = 120 MB/s, λ = 4 (task = I/O + 3x compute), so b = 2 and
// B = 8.
func TestFig6Phases(t *testing.T) {
	dev := constDev{units.MBps(120), units.MBps(120)}
	const taskIOBytes = 60 * units.MB // 1s of I/O at T
	mkApp := func(m int) App {
		return App{Name: "fig6", Stages: []Stage{{
			Name: "s",
			Groups: []TaskGroup{{
				Name:  "g",
				Count: m,
				Ops: []Op{
					IO(OpShuffleRead, taskIOBytes, taskIOBytes, units.MBps(60)),
					Compute(3 * time.Second),
				},
			}},
		}}}
	}
	const m = 64
	app := mkApp(m)
	timeAt := func(p int) float64 {
		cfg := barebones(1, p, dev)
		// Task-time variance desynchronises waves, which is what lets
		// I/O of one batch hide under computation of another (Fig. 6b).
		cfg.ComputeJitter = 0.15
		res, err := Run(cfg, app)
		if err != nil {
			t.Fatal(err)
		}
		return res.Total.Seconds()
	}

	// Phase 1, P <= b: no contention; t ≈ M/P * t_avg (t_avg = 4s).
	got2 := timeAt(2)
	if ideal := float64(m) / 2 * 4; math.Abs(got2-ideal)/ideal > 0.07 {
		t.Errorf("P=2: %.1fs, want ≈%.0f", got2, ideal)
	}
	// Phase 2, b < P <= λb: contention mostly hidden; t between the
	// ideal M/P*t_avg and the fully-serialised wave bound.
	got4 := timeAt(4)
	ideal4 := float64(m) / 4 * 4
	if got4 < ideal4*0.95 || got4 > ideal4*1.30 {
		t.Errorf("P=4: %.1fs, want within 30%% above ≈%.0f", got4, ideal4)
	}
	// Phase 3, P > B: device-bound; the paper's formula is
	// D/(N·BW) + t_avg = 64*60/120 + 4 = 36s.
	got16 := timeAt(16)
	if got16 < 32 || got16 > 46 {
		t.Errorf("P=16: %.1fs, want ≈36 (I/O bound, D/BW + t_avg)", got16)
	}
	// Increasing P past B must not meaningfully help.
	got32 := timeAt(32)
	if got32 < 32 || math.Abs(got32-got16)/got16 > 0.25 {
		t.Errorf("P=32 (%.1fs) vs P=16 (%.1fs): I/O-bound plateau broken", got32, got16)
	}
	if !(got2 > got4 && got4 > got16) {
		t.Errorf("runtimes not decreasing toward the plateau: %.1f, %.1f, %.1f", got2, got4, got16)
	}
}

// TestShuffleHDDMatchesPaperMath replays the paper's Section III-C3
// arithmetic: 334 GB shuffle read at 15 MB/s effective HDD bandwidth over
// 3 slaves = ~126 minutes, independent of P.
func TestShuffleHDDMatchesPaperMath(t *testing.T) {
	hdd := disk.NewHDD()
	const totalShuffle = 334 * units.GB
	reducers := int(totalShuffle / (27 * units.MB)) // 27 MB per reducer
	perTask := totalShuffle / units.ByteSize(reducers)
	reqSize := ShuffleReadReqSize(perTask, 973)
	app := App{Name: "shuffle", Stages: []Stage{{
		Name: "BR",
		Groups: []TaskGroup{{
			Name:  "reduce",
			Count: reducers,
			Ops: []Op{
				IO(OpShuffleRead, perTask, reqSize, units.MBps(60)),
				Compute(8550 * time.Millisecond), // λ=20 at SSD speeds
			},
		}},
	}}}
	cfg := barebones(3, 36, hdd)
	cfg.ComputeJitter = 0.15 // desynchronise waves so I/O pipelines
	res, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	gotMin := res.Total.Minutes()
	if gotMin < 118 || gotMin > 140 {
		t.Errorf("HDD shuffle stage = %.0f min, paper computes ~126", gotMin)
	}

	// Same stage with SSDs is far faster and scale-bound.
	ssdRes, err := Run(barebones(3, 36, disk.NewSSD()), app)
	if err != nil {
		t.Fatal(err)
	}
	gain := res.Total.Minutes() / ssdRes.Total.Minutes()
	if gain < 3 {
		t.Errorf("SSD gain on shuffle stage = %.1fx, want substantial (>3x)", gain)
	}
}

func TestShuffleReadReqSizeMatchesPaper(t *testing.T) {
	// 27 MB per reducer over 973 mappers ≈ 28-30 KB requests.
	rs := ShuffleReadReqSize(27*units.MB, 973)
	if rs < 26*units.KB || rs > 31*units.KB {
		t.Errorf("req size = %v, paper says ~30KB", rs)
	}
	if ShuffleReadReqSize(10*units.MB, 0) != 10*units.MB {
		t.Error("zero mappers should return whole volume")
	}
	if ShuffleReadReqSize(2*units.KB, 973) != units.KB {
		t.Error("request size should floor at 1KB")
	}
}

// TestShuffleRequestSizeMatchesMxRLayout performs an M×R shuffle: M
// mappers each take a contiguous slice of the records and route every
// record by key into one of R segments, then each reducer reads its
// non-empty segment from every mapper. The mean segment read must be
// what ShuffleReadReqSize charges a reducer, reducerBytes/M, and every
// byte written must be read.
func TestShuffleRequestSizeMatchesMxRLayout(t *testing.T) {
	const mappers, reducers, records = 16, 4, 8000
	var segments [mappers][reducers]units.ByteSize
	var wrote units.ByteSize
	for key := 0; key < records; key++ {
		size := units.ByteSize(100 + key%7)
		segments[key*mappers/records][key%reducers] += size
		wrote += size
	}
	var reads int
	var read units.ByteSize
	for r := 0; r < reducers; r++ {
		for m := 0; m < mappers; m++ {
			if segments[m][r] > 0 {
				reads++
				read += segments[m][r]
			}
		}
	}
	if reads != mappers*reducers {
		t.Fatalf("segment reads = %d, want M*R = %d", reads, mappers*reducers)
	}
	if wrote != read {
		t.Errorf("shuffle conservation broken: wrote %v, read %v", wrote, read)
	}
	mean := float64(read) / float64(reads)
	if want := float64(ShuffleReadReqSize(read/reducers, mappers)); mean < want*0.99 || mean > want*1.01 {
		t.Errorf("mean segment read = %.0f B, ShuffleReadReqSize = %.0f B", mean, want)
	}
}

func TestHDFSTasks(t *testing.T) {
	if got := HDFSTasks(122*units.GB, 128*units.MB); got != 976 {
		// 122*1024/128 = 976 exactly; the paper rounds its 122 GB figure.
		t.Errorf("tasks = %d, want 976", got)
	}
	if HDFSTasks(1*units.KB, 128*units.MB) != 1 {
		t.Error("small input should still get one task")
	}
	if HDFSTasks(129*units.MB, 128*units.MB) != 2 {
		t.Error("ceil division broken")
	}
}

func TestHDFSWriteReplicationAmplification(t *testing.T) {
	dev := constDev{units.MBps(100), units.MBps(100)}
	app := App{Name: "w", Stages: []Stage{{
		Name: "w",
		Groups: []TaskGroup{{
			Name: "g", Count: 1,
			Ops: []Op{IO(OpHDFSWrite, 100*units.MB, 100*units.MB, 0)},
		}},
	}}}
	cfg := barebones(1, 1, dev)
	cfg.HDFSReplication = 2
	res, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	// 200 MB at 100 MB/s = 2s.
	if got := res.Total.Seconds(); math.Abs(got-2) > 0.01 {
		t.Errorf("replicated write took %.2fs, want 2s", got)
	}
	st := res.Stages[0].IO[OpHDFSWrite]
	if st.Bytes != 200*units.MB {
		t.Errorf("accounted write bytes = %v, want 200MB (2x replication)", st.Bytes)
	}
}

func TestStageBarrier(t *testing.T) {
	// Second stage must not start before every task of the first ends.
	dev := constDev{units.MBps(100), units.MBps(100)}
	app := App{Name: "b", Stages: []Stage{
		{Name: "s1", Groups: []TaskGroup{{Name: "g", Count: 3, Ops: []Op{Compute(3 * time.Second)}}}},
		{Name: "s2", Groups: []TaskGroup{{Name: "g", Count: 1, Ops: []Op{Compute(time.Second)}}}},
	}}
	res, err := Run(barebones(1, 2, dev), app)
	if err != nil {
		t.Fatal(err)
	}
	s1 := res.MustStage("s1")
	s2 := res.MustStage("s2")
	if s2.Start < s1.End {
		t.Errorf("s2 started at %v before s1 ended at %v", s2.Start, s1.End)
	}
	// 3 tasks on 2 cores: 6s; then 1s.
	if got := res.Total.Seconds(); math.Abs(got-7) > 0.01 {
		t.Errorf("total = %.2fs, want 7", got)
	}
}

func TestGCModelExtendsTasks(t *testing.T) {
	dev := constDev{units.MBps(100), units.MBps(100)}
	mk := func(gc func(int) time.Duration) App {
		return App{Name: "gc", Stages: []Stage{{
			Name: "s",
			Groups: []TaskGroup{{
				Name: "g", Count: 4,
				Ops: []Op{Compute(time.Second)},
				GC:  gc,
			}},
		}}}
	}
	base, err := Run(barebones(1, 4, dev), mk(nil))
	if err != nil {
		t.Fatal(err)
	}
	withGC, err := Run(barebones(1, 4, dev), mk(func(p int) time.Duration {
		return time.Duration(p) * time.Second
	}))
	if err != nil {
		t.Fatal(err)
	}
	wantDelta := 4.0 // P=4 -> +4s per task, one batch
	if got := (withGC.Total - base.Total).Seconds(); math.Abs(got-wantDelta) > 0.01 {
		t.Errorf("GC delta = %.2fs, want %.0f", got, wantDelta)
	}
	// GC time must appear in the trailing op slot.
	gr := withGC.Stages[0].Groups[0]
	gcStat := gr.OpTimes[len(gr.OpTimes)-1]
	if gcStat.Count != 4 || gcStat.Time < 15*time.Second {
		t.Errorf("GC op stat = %+v", gcStat)
	}
}

func TestIOStatAccounting(t *testing.T) {
	dev := constDev{units.MBps(100), units.MBps(100)}
	app := App{Name: "io", Stages: []Stage{{
		Name: "s",
		Groups: []TaskGroup{{
			Name: "g", Count: 10,
			Ops: []Op{
				IO(OpShuffleRead, 27*units.MB, 30*units.KB, units.MBps(60)),
				Compute(time.Second),
			},
		}},
	}}}
	res, err := Run(barebones(2, 4, dev), app)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stages[0].IO[OpShuffleRead]
	if st.Bytes != 270*units.MB {
		t.Errorf("bytes = %v, want 270MB", st.Bytes)
	}
	if st.Ops != 10 {
		t.Errorf("ops = %d", st.Ops)
	}
	avg := st.AvgReqSize()
	if avg < 29*units.KB || avg > 31*units.KB {
		t.Errorf("avg req size = %v, want ~30KB", avg)
	}
	if st.AvgOpTime() <= 0 {
		t.Error("avg op time should be positive")
	}
}

func TestNetworkNotBottleneckAt10G(t *testing.T) {
	// The paper's claim: with 10 Gb/s NICs the network never binds. A
	// shuffle on SSDs with and without network modelling should agree
	// closely.
	ssd := disk.NewSSD()
	app := App{Name: "net", Stages: []Stage{{
		Name: "s",
		Groups: []TaskGroup{{
			Name: "g", Count: 200,
			Ops: []Op{
				IO(OpShuffleRead, 27*units.MB, 30*units.KB, units.MBps(60)),
				Compute(2 * time.Second),
			},
		}},
	}}}
	cfgNoNet := barebones(4, 8, ssd)
	cfgNet := cfgNoNet
	cfgNet.ModelNetwork = true
	a, err := Run(cfgNoNet, app)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfgNet, app)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(a.Total.Seconds()-b.Total.Seconds()) / a.Total.Seconds(); diff > 0.05 {
		t.Errorf("network model changed runtime by %.1f%%; 10G should be invisible", diff*100)
	}
	if b.Stages[0].NetBytes == 0 {
		t.Error("network model accounted no bytes")
	}
}

func TestResultWriteTo(t *testing.T) {
	dev := constDev{units.MBps(100), units.MBps(100)}
	app := App{Name: "w", Stages: []Stage{{
		Name:   "s1",
		Groups: []TaskGroup{{Name: "g", Count: 1, Ops: []Op{Compute(time.Second)}}},
	}}}
	res, err := Run(barebones(1, 1, dev), app)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := res.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "s1") {
		t.Errorf("summary missing stage: %s", sb.String())
	}
	if _, ok := res.Stage("nope"); ok {
		t.Error("Stage found a nonexistent stage")
	}
}

func TestCoreSecondsAccounting(t *testing.T) {
	dev := constDev{units.MBps(100), units.MBps(100)}
	app := App{Name: "cs", Stages: []Stage{{
		Name:   "s",
		Groups: []TaskGroup{{Name: "g", Count: 8, Ops: []Op{Compute(10 * time.Second)}}},
	}}}
	res, err := Run(barebones(2, 2, dev), app)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CoreSeconds-80) > 0.5 {
		t.Errorf("CoreSeconds = %.1f, want ~80", res.CoreSeconds)
	}
}

func TestStorageMemoryMath(t *testing.T) {
	cfg := DefaultTestbed(10, 36, constDev{1, 1}, constDev{1, 1})
	// 10 nodes * 90 GB * 0.4 = 360 GB.
	if got := cfg.StorageMemory(); got != 360*units.GB {
		t.Errorf("storage memory = %v, want 360GB", got)
	}
	if !cfg.FitsInStorage(280 * units.GB) {
		t.Error("280GB should fit (the paper's LR small dataset on 10 slaves)")
	}
	if cfg.FitsInStorage(990 * units.GB) {
		t.Error("990GB should not fit (the paper's LR large dataset)")
	}
}

func TestOpKindHelpers(t *testing.T) {
	if !OpShuffleRead.IsIO() || OpCompute.IsIO() {
		t.Error("IsIO broken")
	}
	if !OpShuffleRead.IsRead() || OpShuffleWrite.IsRead() {
		t.Error("IsRead broken")
	}
	if !OpHDFSWrite.IsWrite() || OpHDFSRead.IsWrite() {
		t.Error("IsWrite broken")
	}
	if !OpPersistRead.OnLocal() || OpHDFSRead.OnLocal() {
		t.Error("OnLocal broken")
	}
	if OpCompute.String() != "Compute" || OpShuffleRead.String() != "ShuffleRead" {
		t.Error("String broken")
	}
	if !strings.Contains(OpKind(99).String(), "99") {
		t.Error("unknown kind String broken")
	}
}
