package spark

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/units"
)

// memApp is a single-stage app with count tasks, each reading readBytes
// from HDFS and computing for d.
func memApp(count int, readBytes units.ByteSize, d time.Duration) App {
	return App{
		Name: "memtest",
		Stages: []Stage{{
			Name: "map",
			Groups: []TaskGroup{{
				Name:  "map",
				Count: count,
				Ops: []Op{
					IO(OpHDFSRead, readBytes, 0, 0),
					Compute(d),
				},
			}},
		}},
	}
}

// memConfig is a deterministic single-purpose cluster: no jitter, no
// faults, memory layer as given.
func memConfig(slaves, cores int, m MemoryConfig) ClusterConfig {
	ssd := disk.NewSSD()
	cfg := DefaultTestbed(slaves, cores, ssd, ssd)
	cfg.ComputeJitter = 0
	cfg.Memory = m
	return cfg
}

// TestMemSpillExactFit: a working set exactly equal to the heap spills
// nothing — the boundary is inclusive.
func TestMemSpillExactFit(t *testing.T) {
	cfg := memConfig(1, 1, MemoryConfig{HeapGB: 1, Expansion: 1, GCThreshold: 1})
	res, err := Run(cfg, memApp(4, units.GB, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.SpilledTasks != 0 || res.Mem.SpillBytes != 0 {
		t.Errorf("exact-fit working set spilled: %+v", res.Mem)
	}
	if res.Mem.PeakResident != units.GB {
		t.Errorf("peak resident = %v, want %v", res.Mem.PeakResident, units.GB)
	}
	if _, ok := res.Stages[0].IO[OpSpillWrite]; ok {
		t.Error("spill write flow recorded without spill")
	}
}

// TestMemSpillSingleTaskOverflow: a heap smaller than a single task's
// working set spills the overflow (never more than the task's own set,
// never negative) for every task.
func TestMemSpillSingleTaskOverflow(t *testing.T) {
	cfg := memConfig(1, 1, MemoryConfig{HeapGB: 0.5, Expansion: 1, GCThreshold: 1})
	const tasks = 4
	res, err := Run(cfg, memApp(tasks, units.GB, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	perTask := units.GB - units.ByteSize(0.5*float64(units.GB))
	if res.Mem.SpilledTasks != tasks {
		t.Errorf("spilled tasks = %d, want %d", res.Mem.SpilledTasks, tasks)
	}
	if want := units.ByteSize(tasks) * perTask; res.Mem.SpillBytes != want {
		t.Errorf("spill bytes = %v, want %v", res.Mem.SpillBytes, want)
	}
	// Each spilled byte is written once and re-read once through the
	// Local device.
	w, r := res.Stages[0].IO[OpSpillWrite], res.Stages[0].IO[OpSpillRead]
	if w.Bytes != res.Mem.SpillBytes || r.Bytes != res.Mem.SpillBytes {
		t.Errorf("spill IO bytes w=%v r=%v, want both %v", w.Bytes, r.Bytes, res.Mem.SpillBytes)
	}
	if w.Ops != tasks || r.Ops != tasks {
		t.Errorf("spill IO ops w=%d r=%d, want both %d", w.Ops, r.Ops, tasks)
	}
}

// TestMemSpillWavePressure: with two cores, spill is a function of the
// co-resident wave, not of a task alone — the first task of a wave fits,
// its neighbour overflows.
func TestMemSpillWavePressure(t *testing.T) {
	// ws = 1 GB per task, heap = 1.5 GB: resident alone fits, two
	// co-resident tasks overflow by ws/2.
	cfg := memConfig(1, 2, MemoryConfig{HeapGB: 1.5, Expansion: 1, GCThreshold: 1})
	res, err := Run(cfg, memApp(4, units.GB, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	half := units.ByteSize(0.5 * float64(units.GB))
	// Task 0 fits (resident 0 -> 1 GB). Tasks 1..3 each reserve against
	// a 1 GB co-resident set and spill 0.5 GB.
	if res.Mem.SpilledTasks != 3 {
		t.Errorf("spilled tasks = %d, want 3 (%+v)", res.Mem.SpilledTasks, res.Mem)
	}
	if want := 3 * half; res.Mem.SpillBytes != want {
		t.Errorf("spill bytes = %v, want %v", res.Mem.SpillBytes, want)
	}
	if want := 2 * units.GB; res.Mem.PeakResident != want {
		t.Errorf("peak resident = %v, want %v", res.Mem.PeakResident, want)
	}
}

// TestMemGCOccupancyEdges pins the GC trigger at its occupancy edges:
// free exactly at the threshold, full (±ated seeded spread) at 100%
// occupancy.
func TestMemGCOccupancyEdges(t *testing.T) {
	const tasks = 2
	// occ = 0.5 == threshold: collections are free.
	cfg := memConfig(1, 1, MemoryConfig{HeapGB: 2, Expansion: 1, GCThreshold: 0.5, GCMaxPause: 1})
	res, err := Run(cfg, memApp(tasks, units.GB, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.GCPauses != 0 || res.Mem.GCStall != 0 {
		t.Errorf("GC fired at threshold occupancy: %+v", res.Mem)
	}
	// occ = 1.0: every completion pays the full pause, spread ±15%.
	cfg = memConfig(1, 1, MemoryConfig{HeapGB: 1, Expansion: 1, GCThreshold: 0.5, GCMaxPause: 1})
	res, err = Run(cfg, memApp(tasks, units.GB, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.GCPauses != tasks {
		t.Fatalf("GC pauses = %d, want %d", res.Mem.GCPauses, tasks)
	}
	lo := time.Duration(float64(tasks) * 0.85 * float64(time.Second))
	hi := time.Duration(float64(tasks) * 1.15 * float64(time.Second))
	if res.Mem.GCStall < lo || res.Mem.GCStall > hi {
		t.Errorf("GC stall %v outside [%v, %v]", res.Mem.GCStall, lo, hi)
	}
}

// TestMemGCStallsSiblingCores: a GC pause is node-wide — tasks on other
// cores defer their next op past the pause, so the stage takes longer
// than the same run with GC disabled.
func TestMemGCStallsSiblingCores(t *testing.T) {
	app := memApp(8, units.GB, 50*time.Millisecond)
	base := memConfig(1, 4, MemoryConfig{HeapGB: 16, Expansion: 1, GCThreshold: 1})
	noGC, err := Run(base, app)
	if err != nil {
		t.Fatal(err)
	}
	gc := memConfig(1, 4, MemoryConfig{HeapGB: 16, Expansion: 1, GCThreshold: 0.1, GCMaxPause: 2})
	withGC, err := Run(gc, app)
	if err != nil {
		t.Fatal(err)
	}
	if withGC.Mem.GCPauses == 0 {
		t.Fatal("GC never fired")
	}
	if withGC.Total <= noGC.Total {
		t.Errorf("GC stalls did not extend the run: %v <= %v", withGC.Total, noGC.Total)
	}
}

// TestMemSpillDeviceDivergence: the same overflow costs more on HDD
// than SSD — spill goes through the Local device curve at spill request
// sizes, which is the whole point of charging it to the device model.
func TestMemSpillDeviceDivergence(t *testing.T) {
	app := memApp(8, units.GB, 50*time.Millisecond)
	mem := MemoryConfig{HeapGB: 0.5, Expansion: 1, GCThreshold: 1}
	hdd, ssd := disk.NewHDD(), disk.NewSSD()

	run := func(local disk.Device) time.Duration {
		cfg := DefaultTestbed(2, 2, ssd, local)
		cfg.ComputeJitter = 0
		cfg.Memory = mem
		res, err := Run(cfg, app)
		if err != nil {
			t.Fatal(err)
		}
		if res.Mem.SpilledTasks == 0 {
			t.Fatal("no spill in divergence scenario")
		}
		return res.Total
	}
	tHDD, tSSD := run(hdd), run(ssd)
	if tHDD <= tSSD {
		t.Errorf("HDD spill (%v) not slower than SSD spill (%v)", tHDD, tSSD)
	}
}

// TestMemHugeHeapEquivalence: a heap no wave can fill produces the same
// Result as no memory layer at all, modulo the Mem accounting fields —
// the layer's only externally visible effect is spill and GC.
func TestMemHugeHeapEquivalence(t *testing.T) {
	ssd := disk.NewSSD()
	app := scaleAppSized(4, 4, 64)

	base := DefaultTestbed(4, 4, ssd, ssd)
	want, err := Run(base, app)
	if err != nil {
		t.Fatal(err)
	}

	huge := base
	huge.Memory = MemoryConfig{HeapGB: 1 << 20}
	got, err := Run(huge, app)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mem.PeakResident == 0 {
		t.Fatal("memory layer did not account the working set")
	}
	if got.Mem.SpilledTasks != 0 || got.Mem.GCPauses != 0 {
		t.Fatalf("huge heap spilled or paused: %+v", got.Mem)
	}
	// Strip the accounting that is *supposed* to differ.
	got.Mem = MemStats{}
	for i := range got.Stages {
		got.Stages[i].Mem = MemStats{}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("huge-heap run diverges from legacy run:\n got %+v\nwant %+v", got, want)
	}
}

// TestMemReleasedOnAllExits: after any run — including one with faults,
// retries and speculation — every node's resident set drains to zero.
func TestMemReleasedOnAllExits(t *testing.T) {
	ssd := disk.NewSSD()
	cfg := DefaultTestbed(3, 2, ssd, ssd)
	cfg.Memory = MemoryConfig{HeapGB: 1, Expansion: 1}
	cfg.Speculation = true
	cfg.StragglerFraction = 0.2
	cfg.StragglerSlowdown = 4
	cfg.Faults = FaultConfig{TaskFailureProb: 0.2, ShuffleFetchFailureProb: 0.1, Seed: 7}
	app := scaleAppSized(3, 2, 24)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	r := newRunner(cfg, app)
	// The aggressive failure rate may abort the app; the reservation
	// invariant must hold either way (aborted runs drain their
	// in-flight attempts through the r.err path).
	if _, err := r.run(); err != nil {
		t.Logf("run ended with: %v", err)
	}
	for _, nd := range r.ns {
		if nd.resident != 0 {
			t.Errorf("node %d leaked %v resident working set", nd.id, nd.resident)
		}
	}
}

// TestMemConfigValidate covers the config error paths and the
// zero-value defaults.
func TestMemConfigValidate(t *testing.T) {
	bad := []MemoryConfig{
		{HeapGB: -1},
		{HeapGB: 1, Expansion: -0.1},
		{HeapGB: 1, SpillReqSize: -units.KB},
		{HeapGB: 1, GCMaxPause: -1},
		{HeapGB: 1, GCThreshold: 1.5},
		{HeapGB: 1, GCThreshold: -0.5},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", m)
		}
	}
	var zero MemoryConfig
	if zero.Enabled() {
		t.Error("zero MemoryConfig is enabled")
	}
	if err := zero.Validate(); err != nil {
		t.Errorf("zero MemoryConfig invalid: %v", err)
	}
	m := MemoryConfig{HeapGB: 8}
	if m.ExpansionFactor() != DefaultMemExpansion ||
		m.SpillRequestSize() != DefaultSpillReqSize ||
		m.GCOccupancyThreshold() != DefaultGCThreshold {
		t.Error("defaults not applied")
	}
	if m.GCPauseMax() != 500*time.Millisecond {
		t.Errorf("GCPauseMax = %v, want 500ms", m.GCPauseMax())
	}
}

// TestSpillForClamp pins the pure spill arithmetic: never negative,
// never more than the task's own working set.
func TestSpillForClamp(t *testing.T) {
	cases := []struct {
		resident, ws, heap, want units.ByteSize
	}{
		{0, 100, 100, 0},    // exact fit
		{0, 100, 1000, 0},   // plenty of room
		{0, 300, 100, 200},  // single task overflows: heap keeps 100
		{900, 100, 1000, 0}, // wave exactly fills
		{950, 100, 1000, 50},
		{2000, 100, 1000, 100}, // already over: whole set spills (caps at ws)
	}
	for _, c := range cases {
		if got := spillFor(c.resident, c.ws, c.heap); got != c.want {
			t.Errorf("spillFor(%d,%d,%d) = %d, want %d", c.resident, c.ws, c.heap, got, c.want)
		}
	}
}
