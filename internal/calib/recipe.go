// Package calib owns the paper's Section VI-1 calibration: the recipe
// that picks the probe disks and base cluster, the singleflight cache
// calibrations (and serve's results) live in, and For, which joins them.
package calib

import (
	"fmt"
	"strconv"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/spark"
	"repro/internal/units"
	"repro/internal/workloads"
)

// Shared is the process-wide cache the experiments, campaigns and the
// CLI calibrate through; serve keeps its own bounded per-server cache.
// Artifacts and campaigns calibrate only at the testbed's ten slaves or
// on cloud disks, two keys per registry workload, and a CLI command
// calibrates once, so sharedEntries is never reached and no key a
// caller uses is ever evicted.
var Shared = NewCache(sharedEntries)

const sharedEntries = 256

// Recipe names one calibration of a registry workload. The testbed
// recipe samples on the physical SSD and HDD at the target slave count;
// the cloud recipe samples on a 500 GB pd-ssd and a 200 GB pd-standard
// at three slaves.
type Recipe struct {
	Workload string
	Cloud    bool
	// Slaves is the testbed recipe's node count N; the cloud recipe
	// always samples at three.
	Slaves int
}

// Testbed is the recipe for workload on the physical testbed at N slaves.
func Testbed(workload string, slaves int) Recipe {
	return Recipe{Workload: workload, Slaves: slaves}
}

// Cloud is the recipe for workload on Google Cloud virtual disks.
func Cloud(workload string) Recipe {
	return Recipe{Workload: workload, Cloud: true}
}

// Key is the recipe's cache key. The strings are serve's snapshot keys,
// so a snapshot taken by any earlier server restores as hits.
func (r Recipe) Key() string {
	if r.Cloud {
		return "calibration\x00cloud\x00" + r.Workload
	}
	return "calibration\x00testbed\x00" + r.Workload + "\x00" + strconv.Itoa(r.Slaves)
}

// calibrate runs the recipe's four sample runs, uncached.
func (r Recipe) calibrate() (*core.Calibration, error) {
	w, err := workloads.Get(r.Workload)
	if err != nil {
		return nil, err
	}
	var ssd, hdd disk.Device = disk.NewSSD(), disk.NewHDD()
	slaves, where := r.Slaves, fmt.Sprintf("at %d slaves", r.Slaves)
	if r.Cloud {
		ssd = cloud.NewDisk(cloud.PDSSD, 500*units.GB)
		hdd = cloud.NewDisk(cloud.PDStandard, 200*units.GB)
		slaves, where = 3, "on cloud disks"
	}
	cal, err := core.Calibrate(spark.DefaultTestbed(slaves, 1, ssd, ssd), ssd, hdd, w.Build)
	if err != nil {
		return nil, fmt.Errorf("calibrating %s %s: %w", r.Workload, where, err)
	}
	return cal, nil
}

// For returns r's calibration from c, calibrating at most once across
// concurrent callers. hit reports that the answer came from c, or from
// another caller's calibration in flight, rather than this call's own
// sample runs. Failed calibrations are not cached.
func For(c *Cache, r Recipe) (cal *core.Calibration, hit bool, err error) {
	v, hit, err := c.Do(r.Key(), func() (any, error) { return r.calibrate() })
	if err != nil {
		return nil, hit, err
	}
	return v.(*core.Calibration), hit, nil
}
