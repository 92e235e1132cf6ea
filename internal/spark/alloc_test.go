package spark

import (
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/units"
)

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
	app := func(tasks int) App {
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
	allocs := func(tasks int) float64 {
		a := app(tasks)
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(cfg, a); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(512), allocs(1024)
	// Each doubling grows every node's core-queue ring once per stage.
	if extra := large - small; extra > 2*slaves+4 {
		t.Fatalf("doubling tasks 512 → 1024 added %.0f allocations (%.0f → %.0f); queued tasks must not allocate",
			extra, small, large)
	}
}
