package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/experiments/sweep"
	"repro/internal/spark"
	"repro/internal/units"
)

func init() {
	register(Experiment{
		ID:    "memvolume",
		Title: "Extension: data volume vs executor memory (spill/GC inflation, sim and t_mem_limit model)",
		Run:   memvolume,
	})
}

// The memvolume workload is a scan whose only provisioned-device
// traffic is HDFS reads: the Spark Local device carries nothing but
// spill. That isolates the memory model's device interaction — with the
// heap unset, HDD-local and SSD-local cells are identical runs; once
// the per-wave working set outgrows the heap, every extra byte of data
// volume becomes spill traffic at DefaultSpillReqSize (256 KB), the
// request size where the effective-bandwidth curves split HDD from SSD.
// The sweep walks per-task volume across the heap boundary
// (P·expansion·perTask vs 1 GB) and reports runtime inflation
// (with-heap / memory-off) per cell, simulated and from the closed-form
// t_mem_limit term.
const (
	mvTasks    = 64
	mvCompute  = 200 * time.Millisecond
	mvHeapGB   = 1.0
	mvSeeds    = 2
	mvSlaves   = 4
	mvCores    = 4
	mvHDFSReq  = 4 * units.MB
	mvHeadline = 256 * units.MB
)

func memvolumeApp(perTask units.ByteSize) spark.App {
	return spark.App{Name: "memvolume-scan", Stages: []spark.Stage{
		{
			Name: "scan",
			Groups: []spark.TaskGroup{{Name: "s", Count: mvTasks, Ops: []spark.Op{
				spark.IO(spark.OpHDFSRead, perTask, mvHDFSReq, 0),
				spark.Compute(mvCompute),
			}}},
		},
	}}
}

// memvolumeModel is the analytical twin of memvolumeApp.
func memvolumeModel(perTask units.ByteSize) core.AppModel {
	return core.AppModel{Name: "memvolume-scan", Stages: []core.StageModel{
		{
			Name: "scan",
			Groups: []core.GroupModel{{Name: "s", Count: mvTasks, ComputePerTask: mvCompute, Ops: []core.OpModel{
				{Kind: spark.OpHDFSRead, BytesPerTask: perTask, ReqSize: mvHDFSReq},
			}}},
		},
	}}
}

func memvolumeTestbed(local func() disk.Device, heapGB float64, seed uint64) spark.ClusterConfig {
	// HDFS stays SSD in every cell so the local device's only job is
	// absorbing spill.
	cfg := spark.DefaultTestbed(mvSlaves, mvCores, disk.NewSSD(), local())
	cfg.ComputeJitter = 0
	cfg.Seed = seed
	cfg.Memory = spark.MemoryConfig{HeapGB: heapGB}
	return cfg
}

// mvPoint is one (per-task volume, local device) cell; its value is the
// simulated runtime inflation with-heap over memory-off.
type mvPoint struct {
	dev     string
	mk      func() disk.Device
	perTask units.ByteSize
}

func memvolume(ctx context.Context) (*Table, error) {
	scales := []units.ByteSize{16 * units.MB, 64 * units.MB, 128 * units.MB, mvHeadline}
	devs := []struct {
		name string
		mk   func() disk.Device
	}{
		{"hdd", func() disk.Device { return disk.NewHDD() }},
		{"ssd", func() disk.Device { return disk.NewSSD() }},
	}
	var points []mvPoint
	for _, sc := range scales {
		for _, d := range devs {
			points = append(points, mvPoint{dev: d.name, mk: d.mk, perTask: sc})
		}
	}
	type mvCell struct{ heap, base float64 }
	outcomes := sweep.Map(points, 0, func(pt mvPoint) (mvCell, error) {
		if err := ctx.Err(); err != nil {
			return mvCell{}, err
		}
		app := memvolumeApp(pt.perTask)
		var c mvCell
		for seed := uint64(0); seed < mvSeeds; seed++ {
			on, err := spark.Run(memvolumeTestbed(pt.mk, mvHeapGB, seed), app)
			if err != nil {
				return mvCell{}, fmt.Errorf("%s %v heap: %w", pt.dev, pt.perTask, err)
			}
			off, err := spark.Run(memvolumeTestbed(pt.mk, 0, seed), app)
			if err != nil {
				return mvCell{}, fmt.Errorf("%s %v base: %w", pt.dev, pt.perTask, err)
			}
			c.heap += on.Total.Seconds() / mvSeeds
			c.base += off.Total.Seconds() / mvSeeds
		}
		return c, nil
	})
	cells, err := sweep.Values(outcomes)
	if err != nil {
		return nil, err
	}

	// Model twin: the same pair from AppModel.Predict, with and
	// without the additive t_mem_limit term.
	modelCell := func(mk func() disk.Device, perTask units.ByteSize) (mvCell, error) {
		model := memvolumeModel(perTask)
		on, err := model.Predict(core.PlatformFor(memvolumeTestbed(mk, mvHeapGB, 0)), core.ModeDoppio)
		if err != nil {
			return mvCell{}, err
		}
		off, err := model.Predict(core.PlatformFor(memvolumeTestbed(mk, 0, 0)), core.ModeDoppio)
		if err != nil {
			return mvCell{}, err
		}
		return mvCell{heap: on.Total.Seconds(), base: off.Total.Seconds()}, nil
	}

	t := &Table{
		ID: "memvolume",
		Title: fmt.Sprintf("Scan (%d tasks) on %d slaves, P=%d, %.0f GB heap: runtime inflation vs per-task volume",
			mvTasks, mvSlaves, mvCores, mvHeapGB),
		Columns: []string{
			"per-task", "HDD sim", "HDD model", "SSD sim", "SSD model", "gap (sim)",
		},
	}
	x2 := func(v float64) string { return fmt.Sprintf("%.2fx", v) }
	var headHDD, headSSD float64
	for si, sc := range scales {
		hdd, ssd := cells[2*si], cells[2*si+1]
		hddSim := hdd.heap / hdd.base
		ssdSim := ssd.heap / ssd.base
		hddMod, err := modelCell(devs[0].mk, sc)
		if err != nil {
			return nil, err
		}
		ssdMod, err := modelCell(devs[1].mk, sc)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%v", sc),
			x2(hddSim), x2(hddMod.heap/hddMod.base),
			x2(ssdSim), x2(ssdMod.heap/ssdMod.base),
			fmt.Sprintf("%+.2f", hddSim-ssdSim))
		if si == 0 {
			// Flat region: the wave's working set fits the heap, so the
			// memory layer must cost (nearly) nothing on either device.
			t.SetMetric("flat_hdd_inflation", hddSim)
			t.SetMetric("flat_ssd_inflation", ssdSim)
		}
		if sc == mvHeadline {
			headHDD, headSSD = hddSim, ssdSim
			t.SetMetric("hdd_spill_inflation", hddSim)
			t.SetMetric("ssd_spill_inflation", ssdSim)
			t.SetMetric("spill_gap", hddSim-ssdSim)
			// Agreement compares the memory term head-on: the extra
			// seconds the model's t_mem_limit adds over the extra seconds
			// the simulator actually spends spilling and collecting.
			// Dividing out each backend's own clean baseline would
			// conflate the memory model with Eq. 1's clean-run error.
			t.SetMetric("model_hdd_agreement", (hddMod.heap-hddMod.base)/(hdd.heap-hdd.base))
			t.SetMetric("model_ssd_agreement", (ssdMod.heap-ssdMod.base)/(ssd.heap-ssd.base))
		}
	}
	t.Note("each cell averages %d seeds; the memory-off run of the same cell is its baseline", mvSeeds)
	heapBytes := mvHeapGB * float64(units.GB)
	boundary := units.ByteSize(heapBytes / (mvCores * spark.DefaultMemExpansion))
	t.Note("the wave outgrows the heap at P x expansion x per-task > %.0f GB (= %v/task): below it inflation stays ~1x, above it spill lands on the Local device at %v requests, where HDD and SSD bandwidth diverge",
		mvHeapGB, boundary, units.ByteSize(spark.DefaultSpillReqSize))
	if headHDD <= headSSD {
		return nil, fmt.Errorf("memvolume: expected HDD spill inflation (%.3f) above SSD (%.3f)", headHDD, headSSD)
	}
	flat := cells[0].heap / cells[0].base
	if flat > headHDD {
		return nil, fmt.Errorf("memvolume: HDD inflation not growing with volume (%.3f at %v vs %.3f at %v)",
			flat, scales[0], headHDD, mvHeadline)
	}
	return t, nil
}
