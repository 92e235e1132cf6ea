// Command perfbench is the repository's end-to-end benchmark. It boots
// the real doppio binaries, drives one of four seeded closed-loop
// workloads against them, checks every answer, and prints the
// end-to-end metrics; with -trace 1 it instead runs the same workload
// in a traced form and prints per-layer metrics. See README.md.
//
//	perfbench -doppio BIN -workdir DIR -study FILE \
//	    -workload cold|fresh|warm|campaign -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndMetrics lists every end-to-end metric with its unit; every
// untraced run reports all of them.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"model_err_p90_pct", "%"},
}

// endToEnd attaches units to an untraced run's values.
func endToEnd(values map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, m := range endToEndMetrics {
		out[m.name] = metric{values[m.name], m.unit}
	}
	return out
}

// opts are the command-line settings every workload runs with.
type opts struct {
	doppio  string
	workdir string
	study   string
	seed    uint64
	seconds float64
}

var workloadNames = []string{"cold", "fresh", "warm", "campaign"}

func main() {
	if len(os.Args) == 2 && os.Args[1] == echoFlag {
		runEcho()
		return
	}
	var o opts
	var workload string
	var trace int
	flag.StringVar(&o.doppio, "doppio", "", "path to the doppio binary")
	flag.StringVar(&o.workdir, "workdir", "", "scratch directory for campaign checkpoints")
	flag.StringVar(&o.study, "study", "", "campaign study config (JSON)")
	flag.StringVar(&workload, "workload", "", "cold, fresh, warm or campaign")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced form and prints per-layer metrics")
	flag.Parse()
	res, err := run(o, workload, trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o opts, workload string, traced bool) (*result, error) {
	if o.doppio == "" || o.workdir == "" || o.study == "" {
		return nil, fmt.Errorf("-doppio, -workdir and -study are required")
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	var err error
	if o.workdir, err = filepath.Abs(o.workdir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() { fmt.Printf("# %s finished in %.1f s\n", workload, time.Since(start).Seconds()) }()
	switch workload {
	case "cold", "fresh", "warm":
		plan, err := newAPIPlan(workload, o.seed)
		if err != nil {
			return nil, err
		}
		if traced {
			return traceAPI(o, plan)
		}
		return runAPI(o, plan)
	case "campaign":
		if traced {
			return traceCampaign(o)
		}
		return runCampaign(o)
	}
	return nil, fmt.Errorf("unknown -workload %q (want one of %v)", workload, workloadNames)
}
