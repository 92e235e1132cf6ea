// Command campaignsmoke is the CI campaign-smoke gate: it proves that a
// campaign killed with SIGKILL mid-run loses nothing and wastes nothing.
// Using a built doppio binary it
//
//  1. runs a small model-mode study uninterrupted, gates that every
//     point carries a prediction, and merges its checkpoint into a
//     reference report + BENCH-style trend JSON;
//  2. starts the same study fresh, waits until a handful of points are
//     durably checkpointed, SIGKILLs the process (typically while it
//     calibrates its second workload ahead of that workload's points),
//     and resumes with -resume — gating that the resumed run skipped
//     exactly the checkpointed points and executed exactly the
//     remainder (zero recomputed-point waste above the in-flight
//     window);
//  3. gates that every point appears exactly once in the resumed
//     checkpoint and that the merged report and trend JSON are
//     byte-identical to the uninterrupted run's;
//  4. repeats the study as two shards (-shards 2 -shard {0,1}) and gates
//     that merging the shard checkpoints reproduces the same bytes;
//  5. runs a two-point heap_gbs off-vs-on study and gates that the
//     heap-limited point spilled, stalled and slowed down while the
//     memory-off point reports no memory activity — the heap axis works
//     end-to-end through config, checkpoint and trend JSON.
//
// Usage:
//
//	go build -o /tmp/doppio ./cmd/doppio
//	go run ./cmd/campaignsmoke -doppio /tmp/doppio
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"time"
)

// studyJSON is a model-mode study of two workloads. Its sql points take
// milliseconds, so the kill lands while the run calibrates pagerank
// (~0.4s) ahead of pagerank's points; those points are expensive enough
// (~0.1-0.5s of simulation each) that plenty of work remains. The whole
// smoke still finishes in well under a minute.
const studyJSON = `{
  "name": "smoke",
  "mode": "model",
  "base": {"max_task_failures": 8},
  "axes": {
    "workloads": ["sql", "pagerank"],
    "cores": [4, 8],
    "fetch_fail_probs": [0, 0.02],
    "data_scales": [1, 2],
    "seeds": [1, 2, 3]
  },
  "parallel": 2
}`

const totalPoints = 48 // 2 workloads x 2 cores x 2 fault rates x 2 scales x 3 seeds

// killAfterRecords is how many durable records the interrupted run must
// have before the SIGKILL: enough to make "skipped on resume" a real
// assertion, small enough that plenty of work remains.
const killAfterRecords = 4

var summaryRE = regexp.MustCompile(`# campaign \S+ shard \d+/\d+: (\d+) points, (\d+) skipped \(checkpointed\), (\d+) executed, (\d+) failed, (\d+) unfinished`)

func main() {
	doppio := flag.String("doppio", "", "path to a built doppio binary (required)")
	keep := flag.Bool("keep", false, "keep the work directory for debugging")
	flag.Parse()
	if *doppio == "" {
		fatal("campaignsmoke: -doppio is required (go build -o /tmp/doppio ./cmd/doppio)")
	}
	bin, err := filepath.Abs(*doppio)
	if err != nil {
		fatal("campaignsmoke: %v", err)
	}
	dir, err := os.MkdirTemp("", "campaignsmoke-")
	if err != nil {
		fatal("campaignsmoke: %v", err)
	}
	if !*keep {
		defer os.RemoveAll(dir)
	}
	fmt.Printf("# work directory %s\n", dir)
	cfgPath := filepath.Join(dir, "study.json")
	if err := os.WriteFile(cfgPath, []byte(studyJSON), 0o644); err != nil {
		fatal("campaignsmoke: %v", err)
	}
	s := smoke{bin: bin, dir: dir, cfg: cfgPath}

	s.uninterrupted()
	s.killAndResume()
	s.sharded()
	s.memoryPoint()
	fmt.Println("PASS campaign-smoke: kill-and-resume and shard-merge reproduce the uninterrupted bytes with zero recompute waste, and the heap axis spills end-to-end")
}

type smoke struct {
	bin, dir, cfg string
	refReport     []byte
	refBench      []byte
}

// uninterrupted produces the reference artifacts.
func (s *smoke) uninterrupted() {
	ckpt := filepath.Join(s.dir, "a.jsonl")
	out := s.run("uninterrupted run",
		"campaign", "run", "-config", s.cfg, "-checkpoint", ckpt, "-q")
	total, skipped, executed, _, unfinished := parseSummary(out)
	if total != totalPoints || executed != totalPoints || skipped != 0 || unfinished != 0 {
		fatal("campaignsmoke: uninterrupted run summary off: total=%d skipped=%d executed=%d unfinished=%d (want %d/0/%d/0)",
			total, skipped, executed, unfinished, totalPoints, totalPoints)
	}
	s.refReport, s.refBench = s.merge("reference merge", ckpt)
	var bench struct {
		Points map[string]struct {
			PredictedSeconds float64 `json:"predicted_seconds"`
		} `json:"points"`
	}
	if err := json.Unmarshal(s.refBench, &bench); err != nil {
		fatal("campaignsmoke: parsing the reference trend JSON: %v", err)
	}
	for name, p := range bench.Points {
		if p.PredictedSeconds <= 0 {
			fatal("campaignsmoke: point %s has no model prediction", name)
		}
	}
	fmt.Printf("ok  uninterrupted: %d points executed, reference report %d bytes\n", executed, len(s.refReport))
}

// killAndResume is the heart of the gate.
func (s *smoke) killAndResume() {
	ckpt := filepath.Join(s.dir, "b.jsonl")
	cmd := exec.Command(s.bin, "campaign", "run", "-config", s.cfg, "-checkpoint", ckpt, "-q")
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		fatal("campaignsmoke: starting interrupted run: %v", err)
	}
	// Wait for durable records, then SIGKILL — no drain, no handler, the
	// hard machine-crash case. The fsync contract says at most the final
	// record may be torn.
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	deadline := time.Now().Add(2 * time.Minute)
	for countRecords(ckpt) < killAfterRecords {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			fatal("campaignsmoke: interrupted run produced <%d records in 2m", killAfterRecords)
		}
		select {
		case werr := <-done:
			fatal("campaignsmoke: run finished (%v) before it could be killed; grow the study", werr)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		fatal("campaignsmoke: SIGKILL: %v", err)
	}
	if werr := <-done; werr == nil {
		fatal("campaignsmoke: run exited cleanly before SIGKILL landed; grow the study")
	}
	completed := countRecords(ckpt)
	if completed >= totalPoints {
		fatal("campaignsmoke: all %d points checkpointed before the kill; grow the study", totalPoints)
	}
	fmt.Printf("ok  killed mid-run with %d of %d points durably checkpointed\n", completed, totalPoints)

	out := s.run("resume", "campaign", "run", "-config", s.cfg, "-checkpoint", ckpt, "-resume", "-q")
	total, skipped, executed, failed, unfinished := parseSummary(out)
	// Zero-waste gate: the resume must skip every durable record and
	// execute exactly the remainder. Anything else means completed work
	// was recomputed (waste) or lost.
	if total != totalPoints || skipped != completed || executed != totalPoints-completed || unfinished != 0 || failed != 0 {
		fatal("campaignsmoke: resume summary off: total=%d skipped=%d executed=%d failed=%d unfinished=%d (want %d/%d/%d/0/0)",
			total, skipped, executed, failed, unfinished, totalPoints, completed, totalPoints-completed)
	}
	// Exactly-once gate, independent of the merge path: every point hash
	// appears exactly once in the final checkpoint.
	if n, unique := recordStats(ckpt); n != totalPoints || unique != totalPoints {
		fatal("campaignsmoke: resumed checkpoint has %d records, %d unique hashes (want %d/%d)", n, unique, totalPoints, totalPoints)
	}
	report, bench := s.merge("post-resume merge", ckpt)
	mustIdentical("merged report (interrupted+resumed vs uninterrupted)", s.refReport, report)
	mustIdentical("trend JSON (interrupted+resumed vs uninterrupted)", s.refBench, bench)
	fmt.Printf("ok  resume: skipped %d, executed %d, report byte-identical\n", skipped, executed)
}

// sharded runs the study as two processes and merges their checkpoints.
func (s *smoke) sharded() {
	var ckpts []string
	for shard := 0; shard < 2; shard++ {
		ckpt := filepath.Join(s.dir, fmt.Sprintf("s%d.jsonl", shard))
		ckpts = append(ckpts, ckpt)
		out := s.run(fmt.Sprintf("shard %d", shard),
			"campaign", "run", "-config", s.cfg, "-checkpoint", ckpt,
			"-shards", "2", "-shard", strconv.Itoa(shard), "-q")
		total, _, executed, _, unfinished := parseSummary(out)
		if executed != total || unfinished != 0 {
			fatal("campaignsmoke: shard %d executed %d of %d points, %d unfinished", shard, executed, total, unfinished)
		}
	}
	report, bench := s.merge("shard merge", ckpts...)
	mustIdentical("merged report (2 shards vs uninterrupted)", s.refReport, report)
	mustIdentical("trend JSON (2 shards vs uninterrupted)", s.refBench, bench)
	fmt.Println("ok  shards: 2-way fan-out merge byte-identical")
}

// memStudyJSON sweeps the executor heap off-vs-on at one cheap sql
// point; 0.5GB is far below the scan stage's ~320MB-per-core working
// sets, so the second point must spill.
const memStudyJSON = `{
  "name": "smokemem",
  "base": {"workload": "sql", "nodes": 2, "cores": 4},
  "axes": {"heap_gbs": [0, 0.5]},
  "parallel": 2
}`

// memoryPoint gates the heap_gbs axis end-to-end: config → points →
// simulation → checkpoint → trend JSON.
func (s *smoke) memoryPoint() {
	cfgPath := filepath.Join(s.dir, "memstudy.json")
	if err := os.WriteFile(cfgPath, []byte(memStudyJSON), 0o644); err != nil {
		fatal("campaignsmoke: %v", err)
	}
	ckpt := filepath.Join(s.dir, "mem.jsonl")
	out := s.run("memory-point run",
		"campaign", "run", "-config", cfgPath, "-checkpoint", ckpt, "-q")
	total, _, executed, failed, unfinished := parseSummary(out)
	if total != 2 || executed != 2 || failed != 0 || unfinished != 0 {
		fatal("campaignsmoke: memory study summary off: total=%d executed=%d failed=%d unfinished=%d (want 2/2/0/0)",
			total, executed, failed, unfinished)
	}
	benchPath := filepath.Join(s.dir, "mem-bench.json")
	s.run("memory-point merge", "campaign", "merge", "-config", cfgPath,
		"-bench", benchPath, ckpt)
	data, err := os.ReadFile(benchPath)
	if err != nil {
		fatal("campaignsmoke: %v", err)
	}
	var bench struct {
		Points map[string]struct {
			TotalSeconds   float64 `json:"total_seconds"`
			SpilledTasks   int     `json:"spilled_tasks"`
			SpillBytes     int64   `json:"spill_bytes"`
			GCStallSeconds float64 `json:"gc_stall_seconds"`
		} `json:"points"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		fatal("campaignsmoke: parsing %s: %v", benchPath, err)
	}
	free, ok := bench.Points["sql/n2/p4/ssd/q0/x1/s0"]
	if !ok {
		fatal("campaignsmoke: memory-off point missing from trend JSON (keys: %v)", keysOf(bench.Points))
	}
	tight, ok := bench.Points["sql/n2/p4/ssd/h0.5/q0/x1/s0"]
	if !ok {
		fatal("campaignsmoke: heap-limited point missing from trend JSON (keys: %v)", keysOf(bench.Points))
	}
	if free.SpilledTasks != 0 || free.SpillBytes != 0 || free.GCStallSeconds != 0 {
		fatal("campaignsmoke: memory-off point reports memory activity: %+v", free)
	}
	if tight.SpilledTasks == 0 || tight.SpillBytes <= 0 {
		fatal("campaignsmoke: heap-limited point did not spill: %+v", tight)
	}
	if tight.TotalSeconds <= free.TotalSeconds {
		fatal("campaignsmoke: heap-limited total %.1fs not above memory-off %.1fs",
			tight.TotalSeconds, free.TotalSeconds)
	}
	fmt.Printf("ok  memory point: 0.5GB heap spilled %d tasks (%d bytes), %.1fs vs %.1fs memory-off\n",
		tight.SpilledTasks, tight.SpillBytes, tight.TotalSeconds, free.TotalSeconds)
}

func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// run executes the doppio binary and returns its combined output.
func (s *smoke) run(what string, args ...string) []byte {
	cmd := exec.Command(s.bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		fatal("campaignsmoke: %s failed: %v\n%s", what, err, out)
	}
	os.Stdout.Write(out)
	return out
}

// merge renders the report and trend JSON for the given checkpoints and
// returns their bytes.
func (s *smoke) merge(what string, ckpts ...string) (report, bench []byte) {
	reportPath := filepath.Join(s.dir, "report.txt")
	benchPath := filepath.Join(s.dir, "bench.json")
	args := append([]string{"campaign", "merge", "-config", s.cfg,
		"-report", reportPath, "-bench", benchPath}, ckpts...)
	s.run(what, args...)
	r, err := os.ReadFile(reportPath)
	if err != nil {
		fatal("campaignsmoke: %v", err)
	}
	b, err := os.ReadFile(benchPath)
	if err != nil {
		fatal("campaignsmoke: %v", err)
	}
	return r, b
}

// countRecords counts complete (newline-terminated, parseable) data
// records in a checkpoint, mirroring what resume will trust.
func countRecords(path string) int {
	n, _ := checkpointScan(path)
	return n
}

// recordStats returns (records, unique hashes).
func recordStats(path string) (int, int) {
	return checkpointScan(path)
}

func checkpointScan(path string) (records, unique int) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	hashes := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if first {
			first = false
			continue // header
		}
		var rec struct {
			Hash string `json:"hash"`
		}
		if json.Unmarshal(line, &rec) != nil || rec.Hash == "" {
			continue // torn tail
		}
		records++
		hashes[rec.Hash] = true
	}
	return records, len(hashes)
}

func parseSummary(out []byte) (total, skipped, executed, failed, unfinished int) {
	m := summaryRE.FindSubmatch(out)
	if m == nil {
		fatal("campaignsmoke: no campaign summary line in output:\n%s", out)
	}
	ints := make([]int, 5)
	for i := range ints {
		ints[i], _ = strconv.Atoi(string(m[i+1]))
	}
	return ints[0], ints[1], ints[2], ints[3], ints[4]
}

func mustIdentical(what string, a, b []byte) {
	if !bytes.Equal(a, b) {
		fatal("campaignsmoke: %s differ (%d vs %d bytes)", what, len(a), len(b))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
