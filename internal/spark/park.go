//go:build go1.24

package spark

import (
	"sync"
	"weak"
)

// park is the one slot Borrow takes its Runner from. It holds the last
// Runner parked through a weak pointer, so back-to-back batches (one
// calibration after another, consecutive cold requests) reuse one
// simulator's storage, while the garbage collector still reclaims it at
// its next cycle: a parked Runner is never marked, never raises the
// heap goal and never outlives idle time. Taking a Runner empties the
// slot, so a batch that starts while another holds it builds its own.
//
// This file and park_nopark.go both exist because the weak package
// needs Go 1.24 while go.mod declares go 1.22; raising the module's
// version would make builds that pass -mod=mod rewrite perfbench's own
// go.mod. Older toolchains build park_nopark.go instead, where every
// batch gets a fresh Runner.
var park struct {
	mu sync.Mutex
	rn weak.Pointer[Runner]
}

// takeParked empties the park and returns the Runner it held, or nil
// when it was empty or the collector has reclaimed it.
func takeParked() *Runner {
	park.mu.Lock()
	defer park.mu.Unlock()
	rn := park.rn.Value()
	park.rn = weak.Pointer[Runner]{}
	return rn
}

// Park gives back a Runner that Borrow returned, once its batch of runs
// is done, replacing whatever is parked. A Runner that never completed a
// run holds no storage and is not parked.
func Park(rn *Runner) {
	if rn.r == nil {
		return
	}
	p := weak.Make(rn)
	park.mu.Lock()
	park.rn = p
	park.mu.Unlock()
}
