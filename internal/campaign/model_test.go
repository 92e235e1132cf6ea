package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// modelConfig is reuseConfig in model mode: two workloads, so the
// warm-up has two calibrations to make, eight points each.
func modelConfig() Config {
	cfg := reuseConfig()
	cfg.Name = "model"
	cfg.Mode = ModeModel
	return cfg
}

// waitGoroutines waits until no more than baseline goroutines are left.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// inWarmUp reports whether any goroutine (the calling one only, when
// all is false) is inside warmCalibrations.
func inWarmUp(all bool) bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, all)], []byte("campaign.warmCalibrations"))
}

// TestRunModelMatchesEvaluatePoint pins model mode's results with the
// warm-up beside the points: every checkpoint record equals
// EvaluatePoint's except for its elapsed_ms, with one worker and with
// two, and no warm-up goroutine outlives Run.
func TestRunModelMatchesEvaluatePoint(t *testing.T) {
	cfg := modelConfig()
	for _, parallel := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel%d", parallel), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ckpt := filepath.Join(t.TempDir(), "c.jsonl")
			if _, err := Run(context.Background(), cfg, RunOptions{CheckpointPath: ckpt, Parallel: parallel}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if inWarmUp(true) {
				t.Fatal("a warm-up goroutine outlived Run")
			}
			waitGoroutines(t, baseline)
			checkRecordsFresh(t, cfg, ckpt, cfg.Size())
			cp, err := ReadCheckpoint(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range cp.Records {
				if rec.Result.PredictedSeconds <= 0 {
					t.Fatalf("point %s has no prediction: %+v", rec.Name, rec.Result)
				}
			}
		})
	}
}

// TestRunModelInterruptResumeByteIdentical interrupts a model-mode run
// once every sql point is checkpointed and resumes it. The merged
// artifacts must equal an uninterrupted run's, and the resumed run must
// not calibrate sql: it warms only the workloads it still has points
// for.
func TestRunModelInterruptResumeByteIdentical(t *testing.T) {
	cfg := modelConfig()
	dir := t.TempDir()

	refCkpt := filepath.Join(dir, "ref.jsonl")
	if _, err := Run(context.Background(), cfg, RunOptions{CheckpointPath: refCkpt, Parallel: 2}); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refReport, refBench := mergedBytes(t, cfg, refCkpt)

	// The first eight points are sql's; cancel after the ninth.
	ckpt := filepath.Join(dir, "int.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sum, err := Run(ctx, cfg, RunOptions{
		CheckpointPath: ckpt, Parallel: 1,
		Log: &cancelAfterLines{n: 9, cancel: cancel},
	})
	if !errors.Is(err, ErrInterrupted) || sum.Unfinished == 0 {
		t.Fatalf("interrupted run returned %v (summary %+v), want ErrInterrupted with points left", err, sum)
	}

	var mu sync.Mutex
	var asked []string
	record := func(ctx context.Context, w string) (*core.Calibration, error) {
		mu.Lock()
		asked = append(asked, w)
		mu.Unlock()
		return experiments.SharedTestbedCalibration(ctx, w)
	}
	if _, err := Run(context.Background(), cfg, RunOptions{
		CheckpointPath: ckpt, Resume: true, Parallel: 2, calibrate: record,
	}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	mu.Lock()
	for _, w := range asked {
		if w == "sql" {
			t.Errorf("the resumed run calibrated sql, whose points were all checkpointed (calls %v)", asked)
			break
		}
	}
	mu.Unlock()

	report, bench := mergedBytes(t, cfg, ckpt)
	if !bytes.Equal(report, refReport) {
		t.Fatalf("interrupted+resumed report differs from uninterrupted:\n--- ref\n%s\n--- got\n%s", refReport, report)
	}
	if !bytes.Equal(bench, refBench) {
		t.Fatal("interrupted+resumed bench JSON differs from uninterrupted")
	}
}

// TestRunCancelledMidWarmUp cancels a model-mode run while its warm-up
// is calibrating the first workload. The calibration cannot be
// interrupted (core.Calibrate takes no context), so Run must wait for
// it, start no further calibration, and leave no goroutine behind.
func TestRunCancelledMidWarmUp(t *testing.T) {
	cfg := modelConfig()
	entered := make(chan string, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	defer free()
	var mu sync.Mutex
	var warmed []string
	stub := func(ctx context.Context, w string) (*core.Calibration, error) {
		if !inWarmUp(false) {
			return experiments.SharedTestbedCalibration(ctx, w)
		}
		mu.Lock()
		warmed = append(warmed, w)
		mu.Unlock()
		select {
		case entered <- w:
		default:
		}
		<-release
		return nil, errors.New("stub calibration failed")
	}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type ran struct {
		sum Summary
		err error
	}
	ckpt := filepath.Join(t.TempDir(), "c.jsonl")
	done := make(chan ran, 1)
	go func() {
		sum, err := Run(ctx, cfg, RunOptions{CheckpointPath: ckpt, Parallel: 1, calibrate: stub})
		done <- ran{sum, err}
	}()
	if w := <-entered; w != "sql" {
		t.Fatalf("warm-up started with %s, want the first point's workload sql", w)
	}
	cancel()
	select {
	case r := <-done:
		t.Fatalf("Run returned (%v) while its warm-up was still calibrating", r.err)
	case <-time.After(50 * time.Millisecond):
	}
	free()
	r := <-done
	if !errors.Is(r.err, ErrInterrupted) || r.sum.Unfinished == 0 {
		t.Fatalf("cancelled run returned %v (summary %+v), want ErrInterrupted with points left", r.err, r.sum)
	}
	if inWarmUp(true) {
		t.Fatal("a warm-up goroutine outlived Run")
	}
	mu.Lock()
	if len(warmed) != 1 {
		t.Errorf("warm-up calibrated %v, want only sql: no calibration may start after cancellation", warmed)
	}
	mu.Unlock()
	waitGoroutines(t, baseline)
}
