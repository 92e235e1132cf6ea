package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestStreamMapOrderAndCompleteness(t *testing.T) {
	points := make([]int, 50)
	for i := range points {
		points[i] = i
	}
	var calls atomic.Int64
	out, err := StreamMap(context.Background(), points, StreamOptions{Parallel: 8},
		func(_ context.Context, p int) (int, error) {
			calls.Add(1)
			return p * 2, nil
		}, nil)
	if err != nil {
		t.Fatalf("StreamMap: %v", err)
	}
	if got := calls.Load(); got != int64(len(points)) {
		t.Fatalf("fn ran %d times, want %d", got, len(points))
	}
	for i, o := range out {
		if o.Err != nil || o.Value != i*2 || o.Point != i {
			t.Fatalf("out[%d] = {point %d, value %d, err %v}, want {%d, %d, nil}",
				i, o.Point, o.Value, o.Err, i, i*2)
		}
	}
}

func TestStreamMapCancelStopsFeeding(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	points := make([]int, 100)
	var started atomic.Int64
	out, err := StreamMap(ctx, points, StreamOptions{Parallel: 2},
		func(_ context.Context, p int) (int, error) {
			if started.Add(1) == 3 {
				cancel()
			}
			return 0, nil
		}, nil)
	if err != nil {
		t.Fatalf("StreamMap: %v", err)
	}
	ran := int(started.Load())
	if ran >= len(points) {
		t.Fatalf("cancel did not stop the feed: all %d points ran", ran)
	}
	// After cancel every point is either completed (nil Err) or, if the
	// feed never started it, reported with the cancellation and retried
	// on resume. Without a PointTimeout no started point is abandoned.
	var completed int
	for _, o := range out {
		if o.Err == nil {
			completed++
			continue
		}
		if !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("cancelled point error = %v, want context.Canceled", o.Err)
		}
	}
	if completed != ran {
		t.Fatalf("%d points completed but %d ran", completed, ran)
	}
	if completed == len(points) {
		t.Fatal("cancel abandoned nothing")
	}
}

// TestStreamMapCancelLetsInFlightFinish cancels the run from inside a
// point that keeps working afterwards: with no PointTimeout, StreamMap
// must wait for the point and deliver its result, not report it
// cancelled and return while it still runs.
func TestStreamMapCancelLetsInFlightFinish(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var finished atomic.Bool
	out, err := StreamMap(ctx, []int{7, 8, 9}, StreamOptions{Parallel: 1},
		func(ctx context.Context, p int) (int, error) {
			cancel()
			<-ctx.Done()
			time.Sleep(20 * time.Millisecond)
			finished.Store(true)
			return p * 2, nil
		}, nil)
	if err != nil {
		t.Fatalf("StreamMap: %v", err)
	}
	if !finished.Load() {
		t.Fatal("StreamMap returned while the cancelled point was still running")
	}
	if out[0].Err != nil || out[0].Value != 14 {
		t.Fatalf("in-flight point = {value %d, err %v}, want {14, nil}", out[0].Value, out[0].Err)
	}
	for _, o := range out[1:] {
		if !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("point %d err = %v, want context.Canceled (never started)", o.Point, o.Err)
		}
	}
}

func TestStreamMapPointTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	// Point 1 ignores its context and blocks forever; the deadline must
	// abandon it without disturbing its siblings.
	out, err := StreamMap(context.Background(), []int{0, 1, 2},
		StreamOptions{Parallel: 3, PointTimeout: 30 * time.Millisecond},
		func(_ context.Context, p int) (int, error) {
			if p == 1 {
				<-block
			}
			return p, nil
		}, nil)
	if err != nil {
		t.Fatalf("StreamMap: %v", err)
	}
	if !errors.Is(out[1].Err, context.DeadlineExceeded) {
		t.Fatalf("out[1].Err = %v, want context.DeadlineExceeded", out[1].Err)
	}
	for _, i := range []int{0, 2} {
		if out[i].Err != nil {
			t.Fatalf("sibling point %d failed: %v", i, out[i].Err)
		}
	}
}

func TestStreamMapPanicIsolation(t *testing.T) {
	out, err := StreamMap(context.Background(), []int{0, 1, 2}, StreamOptions{Parallel: 3},
		func(_ context.Context, p int) (int, error) {
			if p == 1 {
				panic("boom")
			}
			return p, nil
		}, nil)
	if err != nil {
		t.Fatalf("StreamMap: %v", err)
	}
	if out[1].Err == nil || out[1].Value != 0 {
		t.Fatalf("panicking point: got {%d, %v}, want zero value and an error", out[1].Value, out[1].Err)
	}
	for _, i := range []int{0, 2} {
		if out[i].Err != nil {
			t.Fatalf("sibling point %d failed: %v", i, out[i].Err)
		}
	}
}

func TestStreamMapSinkSerialized(t *testing.T) {
	points := make([]int, 200)
	// seen is mutated without locking: the serialization contract means
	// this is safe, and the race detector job enforces it.
	seen := map[int]bool{}
	_, err := StreamMap(context.Background(), points, StreamOptions{Parallel: 8},
		func(_ context.Context, p int) (int, error) { return p, nil },
		func(i int, o Outcome[int, int]) error {
			if seen[i] {
				return fmt.Errorf("sink saw point %d twice", i)
			}
			seen[i] = true
			return nil
		})
	if err != nil {
		t.Fatalf("StreamMap: %v", err)
	}
	if len(seen) != len(points) {
		t.Fatalf("sink saw %d points, want %d", len(seen), len(points))
	}
}

func TestStreamMapSinkErrorAborts(t *testing.T) {
	boom := errors.New("sink refused")
	var delivered atomic.Int64
	points := make([]int, 100)
	_, err := StreamMap(context.Background(), points, StreamOptions{Parallel: 2},
		func(_ context.Context, p int) (int, error) { return p, nil },
		func(i int, o Outcome[int, int]) error {
			if delivered.Add(1) == 3 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("StreamMap error = %v, want the sink's", err)
	}
	if n := delivered.Load(); n >= int64(len(points)) {
		t.Fatalf("sink error did not abort: %d deliveries", n)
	}
}
