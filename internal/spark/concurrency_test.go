package spark

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/units"
)

// shuffleApp is a small two-stage app with shuffle write/read, enough to
// exercise CorePool, FlowResource and the DAG barrier.
func shuffleApp() App {
	return App{Name: "conc", Stages: []Stage{
		{Name: "map", Groups: []TaskGroup{{
			Name: "m", Count: 64,
			Ops: []Op{
				IO(OpHDFSRead, 128*units.MB, 128*units.MB, 0),
				Compute(2 * time.Second),
				IO(OpShuffleWrite, 32*units.MB, 32*units.MB, 0),
			},
		}}},
		{Name: "reduce", Groups: []TaskGroup{{
			Name: "r", Count: 32,
			Ops: []Op{
				IO(OpShuffleRead, 64*units.MB, 30*units.KB, units.MBps(60)),
				Compute(time.Second),
			},
		}}},
	}}
}

// TestConcurrentRunsAreDeterministic runs many simulations concurrently
// — the regime the parallel experiment harness puts the simulator in —
// and asserts every run owns its engine, CorePool and FlowResource
// instances: all concurrent results must equal the serial reference
// exactly. Run under -race in CI, this is the simulator's
// shared-mutable-state audit.
func TestConcurrentRunsAreDeterministic(t *testing.T) {
	dev := constDev{units.MBps(400), units.MBps(300)}
	cfg := barebones(4, 8, dev)
	ref, err := Run(cfg, shuffleApp())
	if err != nil {
		t.Fatal(err)
	}

	const runs = 8
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(cfg, shuffleApp())
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if results[i].Total != ref.Total {
			t.Errorf("run %d: total %v != serial reference %v", i, results[i].Total, ref.Total)
		}
		if len(results[i].Stages) != len(ref.Stages) {
			t.Fatalf("run %d: %d stages, want %d", i, len(results[i].Stages), len(ref.Stages))
		}
		for si := range ref.Stages {
			if results[i].Stages[si].Duration() != ref.Stages[si].Duration() {
				t.Errorf("run %d stage %s: %v != %v", i, ref.Stages[si].Name,
					results[i].Stages[si].Duration(), ref.Stages[si].Duration())
			}
		}
	}
}

// parkCase is one run of TestConcurrentRunsShareParkedRunner.
type parkCase struct {
	name string
	cfg  ClusterConfig
	app  App
}

// parkCases mixes what consecutive Runs hand one parked Runner: the
// golden-file matrix's HDD/SSD device pairs and jitter, at three node
// counts, with the memory layer on, with task and fetch failures,
// stragglers and speculation, and with a run that aborts.
func parkCases() []parkCase {
	ssd, hdd := disk.NewSSD(), disk.NewHDD()
	var cases []parkCase
	add := func(name string, cfg ClusterConfig, app App) {
		cases = append(cases, parkCase{fmt.Sprintf("%s/%dx%d", name, cfg.Slaves, cfg.ExecutorCores), cfg, app})
	}
	for i, n := range []int{4, 9, 3} {
		clean := DefaultTestbed(n, 2+i, hdd, ssd)
		clean.ComputeJitter = 0
		add("clean", clean, faultShuffleApp(4*n, 2*n))
		add("jitter", DefaultTestbed(n, 4, ssd, hdd), scaleAppSized(n, 4, 8*n))
		mem := DefaultTestbed(n, 4, ssd, hdd)
		mem.Memory = MemoryConfig{HeapGB: 0.5}
		add("memory", mem, scaleAppSized(n, 4, 6*n))
		faulty := DefaultTestbed(n, 2, ssd, ssd)
		faulty.Faults = FaultConfig{TaskFailureProb: 0.05, ShuffleFetchFailureProb: 0.05, RetryBackoff: 0.05, Seed: uint64(n)}
		add("faulty", faulty, faultShuffleApp(4*n, 2*n))
		in := degradedSeeds[i]
		in.slaves = n
		cfg, app := in.build()
		add("degraded", cfg, app)
		abort := DefaultTestbed(n, 4, hdd, ssd)
		abort.Faults = FaultConfig{TaskFailureProb: 0.5, MaxTaskFailures: 1, Seed: uint64(n)}
		add("abort", abort, faultShuffleApp(4*n, 2*n))
	}
	return cases
}

// TestConcurrentRunsShareParkedRunner runs parkCases through Run from
// several goroutines at once, each in its own order, so a Runner
// parked by one goroutine's run is borrowed by another's next run at a
// different node count, with different faults or memory, or after an
// abort, while other runs build their own. Every Result or error must
// be deeply equal to a fresh Runner's, and is compared only after all
// runs have finished, so a Result that aliased a parked Runner's
// storage would show the later runs' state. Under -race this also
// audits the park's hand-off.
func TestConcurrentRunsShareParkedRunner(t *testing.T) {
	cases := parkCases()
	type outcome struct {
		res *Result
		err error
	}
	want := make([]outcome, len(cases))
	for i, c := range cases {
		res, err := new(Runner).Run(c.cfg, c.app)
		want[i] = outcome{res, err}
	}
	if want[len(want)-1].err == nil {
		t.Fatalf("%s completed; the mix needs an aborting run", cases[len(cases)-1].name)
	}

	const workers, rounds = 4, 2
	order := make([][]int, workers)
	got := make([][]outcome, workers)
	var wg sync.WaitGroup
	for w := range got {
		rng := rand.New(rand.NewSource(int64(w)))
		for r := 0; r < rounds; r++ {
			order[w] = append(order[w], rng.Perm(len(cases))...)
		}
		got[w] = make([]outcome, len(order[w]))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k, i := range order[w] {
				res, err := Run(cases[i].cfg, cases[i].app)
				got[w][k] = outcome{res, err}
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for k, o := range got[w] {
			i := order[w][k]
			if !reflect.DeepEqual(o, want[i]) {
				t.Errorf("worker %d, run %d, %s: Run gave %+v (%v), a fresh Runner %+v (%v)",
					w, k, cases[i].name, o.res, o.err, want[i].res, want[i].err)
			}
		}
	}
}
