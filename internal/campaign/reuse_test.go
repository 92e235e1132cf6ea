package campaign

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// reuseConfig is a study whose consecutive points change the heap, the
// fault rate and the cluster shape under one Runner: both node counts,
// heap off and 2 GB (which spills), fetch failures off and on.
func reuseConfig() Config {
	return Config{
		Name: "reuse",
		Base: Base{Cores: 4, Seed: 8},
		Axes: Axes{
			Workloads: []string{"sql", "terasort"},
			Nodes:     []int{4, 7},
			HeapGBs:   []float64{0, 2},
			FetchFail: []float64{0, 0.05},
		},
	}.withDefaults()
}

// checkRecordsFresh requires every record of the checkpoint to equal a
// fresh EvaluatePoint of its point, and the checkpoint to hold want
// records.
func checkRecordsFresh(t *testing.T, cfg Config, ckpt string, want int) {
	t.Helper()
	cp, err := ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Records) != want {
		t.Fatalf("checkpoint holds %d records, want %d", len(cp.Records), want)
	}
	points := cfg.Points()
	spilled := 0
	for _, rec := range cp.Records {
		p := points[rec.Index]
		got, err := EvaluatePoint(context.Background(), cfg, p)
		var gotErr string
		if err != nil {
			gotErr = err.Error()
		}
		if gotErr != rec.Error || !reflect.DeepEqual(got, rec.Result) {
			t.Fatalf("point %s on a reused Runner: %+v (error %q); fresh: %+v (error %q)",
				rec.Name, rec.Result, rec.Error, got, gotErr)
		}
		spilled += got.SpilledTasks
	}
	if want == cfg.Size() && spilled == 0 {
		t.Fatal("no point spilled: the study must exercise the spill path")
	}
}

// TestRunReuseMatchesFreshPoints pins the per-worker Runner: every
// checkpointed result equals a fresh EvaluatePoint, with one worker
// (each Runner sees every point in order) and with two.
func TestRunReuseMatchesFreshPoints(t *testing.T) {
	cfg := reuseConfig()
	for _, parallel := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel%d", parallel), func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "c.jsonl")
			if _, err := Run(context.Background(), cfg, RunOptions{CheckpointPath: ckpt, Parallel: parallel}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			checkRecordsFresh(t, cfg, ckpt, cfg.Size())
		})
	}
}

// TestRunTimedOutPointKeepsItsRunner times points out while they keep
// simulating in the background. A timed-out point's Runner must not
// serve the worker's next point; the race detector sees it if it does.
// The resumed run then completes the study, and every record still
// equals a fresh evaluation. Points left running in the background hold
// Runners of their own, so they may overlap the checks.
func TestRunTimedOutPointKeepsItsRunner(t *testing.T) {
	cfg := reuseConfig()
	ckpt := filepath.Join(t.TempDir(), "c.jsonl")
	sum, err := Run(context.Background(), cfg, RunOptions{
		CheckpointPath: ckpt, Parallel: 2, PointTimeout: time.Microsecond,
	})
	if err != nil && !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Run: %v", err)
	}
	if sum.Unfinished == 0 {
		t.Fatal("no point timed out")
	}
	checkRecordsFresh(t, cfg, ckpt, sum.Executed)
	if _, err := Run(context.Background(), cfg, RunOptions{CheckpointPath: ckpt, Resume: true, Parallel: 2}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	checkRecordsFresh(t, cfg, ckpt, cfg.Size())
}
