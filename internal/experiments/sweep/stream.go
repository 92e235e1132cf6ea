package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// StreamOptions tunes a StreamMap invocation.
type StreamOptions struct {
	// Parallel is the worker-pool size; <=0 means GOMAXPROCS.
	Parallel int
	// PointTimeout bounds each point's evaluation with its own deadline.
	// A point that outlives it is abandoned (its goroutine drains in the
	// background, exactly like the experiments runner's per-artifact
	// deadline) and reported with context.DeadlineExceeded. Zero means
	// no per-point deadline.
	PointTimeout time.Duration
}

// StreamMap is Map with the campaign-grade controls long multi-point
// studies need: cancelling ctx stops feeding the pool (in-flight points
// finish, unstarted points report ctx's error), a positive PointTimeout
// bounds each point with its own deadline, a panicking fn is captured
// into that point's Err without disturbing its siblings, and sink —
// when non-nil — is invoked as each point completes. Sink invocations
// are serialized (one at a time, in completion order), so callers can
// append to durable state such as a checkpoint file without their own
// locking; a sink error cancels the remaining points and is returned.
// Outcomes are returned in input order regardless of completion order.
func StreamMap[P, R any](ctx context.Context, points []P, opts StreamOptions,
	fn func(context.Context, P) (R, error),
	sink func(i int, o Outcome[P, R]) error) ([]Outcome[P, R], error) {

	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	parallel := opts.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(points) {
		parallel = len(points)
	}
	if parallel < 1 {
		parallel = 1
	}

	out := make([]Outcome[P, R], len(points))
	started := make([]bool, len(points))

	var (
		sinkMu  sync.Mutex
		sinkErr error
	)
	deliver := func(i int, o Outcome[P, R]) {
		out[i] = o
		if sink == nil {
			return
		}
		sinkMu.Lock()
		defer sinkMu.Unlock()
		if sinkErr != nil {
			return // already aborting; drop further deliveries
		}
		if err := sink(i, o); err != nil {
			sinkErr = err
			cancel()
		}
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				deliver(i, evalPoint(ctx, points[i], opts.PointTimeout, fn))
			}
		}()
	}
feed:
	for i := range points {
		select {
		case idx <- i:
			started[i] = true
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	for i := range out {
		if !started[i] {
			out[i] = Outcome[P, R]{
				Point: points[i],
				Err:   fmt.Errorf("sweep: point %d not started: %w", i, context.Cause(ctx)),
			}
		}
	}
	sinkMu.Lock()
	err := sinkErr
	sinkMu.Unlock()
	return out, err
}

// evalPoint runs fn for one point under its own deadline, capturing
// panics as errors. fn runs in a child goroutine so a point that
// ignores its context can still be abandoned when the deadline fires;
// without one, cancelling ctx reaches fn only through its context.
func evalPoint[P, R any](ctx context.Context, p P, timeout time.Duration, fn func(context.Context, P) (R, error)) Outcome[P, R] {
	start := time.Now()
	pctx := ctx
	var deadline <-chan struct{}
	if timeout > 0 {
		var cancel context.CancelFunc
		pctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
		deadline = pctx.Done()
	}
	type result struct {
		v   R
		err error
	}
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				var zero R
				ch <- result{zero, fmt.Errorf("sweep: point panicked: %v", r)}
			}
		}()
		v, err := fn(pctx, p)
		ch <- result{v, err}
	}()
	o := Outcome[P, R]{Point: p}
	select {
	case r := <-ch:
		o.Value, o.Err = r.v, r.err
	case <-deadline:
		o.Err = pctx.Err()
	}
	o.Elapsed = time.Since(start)
	return o
}
