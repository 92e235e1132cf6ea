package spark

import (
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/units"
)

// allocApp is a map and a reduce stage of tasks and tasks/2 tasks, each
// task with I/O ops of both kinds the NIC sees.
func allocApp(tasks int) App {
	return App{Name: "alloc", Stages: []Stage{
		{Name: "map", Groups: []TaskGroup{{Name: "map", Count: tasks, Ops: []Op{
			IO(OpHDFSRead, 8*units.MB, 0, 0),
			Compute(20 * time.Millisecond),
			IO(OpShuffleWrite, 4*units.MB, 0, 0),
		}}}},
		{Name: "reduce", Groups: []TaskGroup{{Name: "reduce", Count: tasks / 2, Ops: []Op{
			IOC(OpShuffleRead, 8*units.MB, 0, units.MBps(60), 10*time.Millisecond),
			IO(OpHDFSWrite, 2*units.MB, 0, 0),
		}}}},
	}}
}

// extraAllocsOnDoubling returns how many more allocations a run of
// allocApp(1024) makes on cfg than a run of allocApp(512).
func extraAllocsOnDoubling(t *testing.T, cfg ClusterConfig) (extra, small, large float64) {
	t.Helper()
	allocs := func(tasks int) float64 {
		a := allocApp(tasks)
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(cfg, a); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large = allocs(512), allocs(1024)
	return large - small, small, large
}

// TestQueuedTasksDoNotAllocate pins the simulator's allocation
// profile: with nodes × cores fixed, doubling a stage's task count may
// add only O(1) allocations (the core queues' ring growth, one per
// node), never O(tasks). Queued tasks are (callback, slab index) pairs
// and attempts, flows and events are pooled, so a regression to a
// closure or method value per task shows up here as hundreds of extra
// allocations.
func TestQueuedTasksDoNotAllocate(t *testing.T) {
	const slaves, cores = 4, 4
	ssd := disk.NewSSD()
	cfg := DefaultTestbed(slaves, cores, ssd, ssd)
	// Each doubling grows every node's core-queue ring once per stage.
	if extra, small, large := extraAllocsOnDoubling(t, cfg); extra > 2*slaves+4 {
		t.Fatalf("doubling tasks 512 → 1024 added %.0f allocations (%.0f → %.0f); queued tasks must not allocate",
			extra, small, large)
	}
}

// TestSpillingTasksDoNotAllocate is TestQueuedTasksDoNotAllocate with
// the memory layer on and a heap below every task's working set, so
// every task spills its overflow out and reads it back. Spill ops run
// on the attempt's own flow and prebound callback; one closure or flow
// per spill op shows up here as thousands of extra allocations.
func TestSpillingTasksDoNotAllocate(t *testing.T) {
	const slaves, cores = 4, 4
	ssd := disk.NewSSD()
	cfg := DefaultTestbed(slaves, cores, ssd, ssd)
	cfg.Memory = MemoryConfig{HeapGB: 0.01}
	res, err := Run(cfg, allocApp(512))
	if err != nil {
		t.Fatal(err)
	}
	if want := 512 + 256; res.Mem.SpilledTasks != want {
		t.Fatalf("%d of %d tasks spilled; the test needs every task to", res.Mem.SpilledTasks, want)
	}
	if extra, small, large := extraAllocsOnDoubling(t, cfg); extra > 2*slaves+4 {
		t.Fatalf("doubling spilling tasks 512 → 1024 added %.0f allocations (%.0f → %.0f); spill ops must not allocate",
			extra, small, large)
	}
}

// TestRunnerReuseAllocsIndependentOfSlaves pins what a Runner reuses:
// with the task count fixed, a second Run on one Runner allocates the
// same whether the cluster has 100 slaves or 1,000. Building a cluster
// allocates several objects per node (the node, its core pool, its
// flow resources and their bound callbacks, their queues), so a reuse
// path that rebuilt any of them shows up here as thousands of extra
// allocations.
func TestRunnerReuseAllocsIndependentOfSlaves(t *testing.T) {
	ssd := disk.NewSSD()
	app := App{Name: "reuse", Stages: []Stage{
		{Name: "map", Groups: []TaskGroup{{Name: "map", Count: 96, Ops: []Op{
			IO(OpHDFSRead, 8*units.MB, 0, 0),
			Compute(20 * time.Millisecond),
			IO(OpShuffleWrite, 4*units.MB, 0, 0),
		}}}},
		{Name: "reduce", Groups: []TaskGroup{{Name: "reduce", Count: 48, Ops: []Op{
			IOC(OpShuffleRead, 8*units.MB, 0, units.MBps(60), 10*time.Millisecond),
			IO(OpHDFSWrite, 2*units.MB, 0, 0),
		}}}},
	}}
	allocs := func(slaves int) float64 {
		cfg := DefaultTestbed(slaves, 2, ssd, ssd)
		var rn Runner
		if _, err := rn.Run(cfg, app); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := rn.Run(cfg, app); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(1000)
	t.Logf("second Run: %.0f allocations at 100 slaves, %.0f at 1,000", small, large)
	if large-small > 4 {
		t.Fatalf("a reused Runner allocated %.0f more at 1,000 slaves than at 100 (%.0f → %.0f); setup must be O(1) in the node count",
			large-small, small, large)
	}
}
