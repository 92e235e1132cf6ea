//go:build go1.24

package spark

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// parked returns the Runner in Run's park, or nil.
func parked() *Runner {
	park.mu.Lock()
	defer park.mu.Unlock()
	return park.rn.Value()
}

// TestParkEmptyAfterGC pins what the park keeps: after a run returns,
// the next run borrows that run's Runner, and one garbage collection
// with no run in flight empties the slot and frees the Runner's
// simulator storage, so none of it survives a GC.
func TestParkEmptyAfterGC(t *testing.T) {
	// No collection may run unasked until the slot is checked.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg, app := faultyConfig(FaultConfig{}), faultShuffleApp(16, 8)
	if _, err := Run(cfg, app); err != nil {
		t.Fatal(err)
	}
	rn := parked()
	if rn == nil || rn.r == nil {
		t.Fatal("Run parked no Runner with storage")
	}
	if Borrow(cfg.Slaves) != rn {
		t.Fatal("borrowing skipped the parked Runner")
	}
	if parked() != nil || Borrow(cfg.Slaves) == rn {
		t.Fatal("a borrowed Runner stayed in the park")
	}
	Park(rn)

	freed := make(chan struct{})
	runtime.AddCleanup(rn.r, func(c chan struct{}) { close(c) }, freed)
	rn = nil
	runtime.GC()
	if parked() != nil {
		t.Fatal("the park kept its Runner across a GC")
	}
	select {
	case <-freed:
	case <-time.After(10 * time.Second):
		t.Fatal("the parked Runner's storage survived a GC")
	}
}

// TestBorrowBoundsParkedNodes pins which parked Runner Borrow hands
// out: one holding at most twice the nodes the batch needs is reused,
// a larger one is left to the collector, and a Runner that never ran
// is not parked.
func TestBorrowBoundsParkedNodes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg, app := faultyConfig(FaultConfig{}), faultShuffleApp(16, 8)
	rn := new(Runner)
	if _, err := rn.Run(cfg, app); err != nil {
		t.Fatal(err)
	}
	Park(rn)
	if Borrow(cfg.Slaves/2) != rn {
		t.Fatalf("Borrow(%d) skipped a parked Runner of %d nodes", cfg.Slaves/2, cfg.Slaves)
	}
	Park(rn)
	if got := Borrow(cfg.Slaves/2 - 1); got == rn || got.r != nil {
		t.Fatalf("Borrow(%d) reused a parked Runner of %d nodes", cfg.Slaves/2-1, cfg.Slaves)
	}
	if parked() != nil {
		t.Fatal("an oversized Runner stayed in the park")
	}
	Park(new(Runner))
	if parked() != nil {
		t.Fatal("a Runner that never ran was parked")
	}
}
