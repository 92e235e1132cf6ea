package sim

import (
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(3*time.Second, func() { got = append(got, 3) })
	e.At(1*time.Second, func() { got = append(got, 1) })
	e.At(2*time.Second, func() { got = append(got, 2) })
	end := e.Run()
	if end != 3*time.Second {
		t.Errorf("final time = %v, want 3s", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	e.After(time.Second, func() {
		fired = append(fired, e.Now())
		e.After(2*time.Second, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 3*time.Second {
		t.Errorf("fired = %v", fired)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(0, func() {})
	})
	e.Run()
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(time.Second, func() { fired = true })
	tm.Cancel()
	e.Run()
	if fired {
		t.Error("cancelled timer fired")
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	e.At(1*time.Second, func() { fired = append(fired, e.Now()) })
	e.At(5*time.Second, func() { fired = append(fired, e.Now()) })
	e.RunUntil(2 * time.Second)
	if len(fired) != 1 {
		t.Fatalf("fired = %v, want only the 1s event", fired)
	}
	e.Run()
	if len(fired) != 2 {
		t.Fatalf("fired = %v after full Run", fired)
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(-time.Second, func() { fired = true })
	e.Run()
	if !fired || e.Now() != 0 {
		t.Errorf("fired=%v now=%v", fired, e.Now())
	}
}

func TestMaxStepsBackstop(t *testing.T) {
	e := NewEngine()
	e.MaxSteps = 100
	var loop func()
	loop = func() { e.After(time.Millisecond, loop) }
	e.After(0, loop)
	defer func() {
		if recover() == nil {
			t.Error("expected MaxSteps panic")
		}
	}()
	e.Run()
}

func TestTimerDoubleCancel(t *testing.T) {
	e := NewEngine()
	tm := e.After(time.Second, func() {})
	tm.Cancel()
	tm.Cancel() // second cancel must be a no-op
	if e.Pending() != 0 {
		t.Errorf("pending = %d", e.Pending())
	}
	e.Run()
}

func TestZeroTimerCancel(t *testing.T) {
	var tm Timer
	tm.Cancel() // must not panic
}

func TestStaleTimerDoesNotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	var stale Timer
	fired := false
	e.After(time.Second, func() {
		// The event struct backing `stale` has fired; the next After is
		// expected to reuse it from the free-list.
		e.After(time.Second, func() { fired = true })
		stale.Cancel()
	})
	stale = e.After(500*time.Millisecond, func() {})
	e.Run()
	if !fired {
		t.Error("stale Cancel killed a recycled event")
	}
}

func TestCancelledEventLeavesHeapEagerly(t *testing.T) {
	e := NewEngine()
	tms := make([]Timer, 10)
	for i := range tms {
		tms[i] = e.After(time.Duration(i+1)*time.Second, func() {})
	}
	for _, tm := range tms[2:7] {
		tm.Cancel()
	}
	if got := e.Pending(); got != 5 {
		t.Errorf("pending = %d, want 5", got)
	}
	if got := e.Run(); got != 10*time.Second {
		t.Errorf("final time = %v", got)
	}
}

func TestFreeListRecyclesEvents(t *testing.T) {
	e := NewEngine()
	var chain func(n int)
	chain = func(n int) {
		if n == 0 {
			return
		}
		e.After(time.Millisecond, func() { chain(n - 1) })
	}
	chain(1000)
	e.Run()
	// A sequential chain of events needs exactly one struct: the fired
	// event is recycled before its callback schedules the next.
	if len(e.free) != 1 {
		t.Errorf("free list has %d events, want 1", len(e.free))
	}
	if e.Steps() != 1000 {
		t.Errorf("steps = %d", e.Steps())
	}
}

func TestNewEngineSized(t *testing.T) {
	e := NewEngineSized(64)
	if cap(e.heap) < 64 || cap(e.free) < 64 {
		t.Errorf("caps = %d/%d, want >= 64", cap(e.heap), cap(e.free))
	}
	NewEngineSized(-1) // negative hint must not panic
	fired := 0
	for i := 0; i < 100; i++ {
		e.After(time.Duration(i)*time.Millisecond, func() { fired++ })
	}
	e.Run()
	if fired != 100 {
		t.Errorf("fired = %d", fired)
	}
}

// TestEngineResetForReuse: Reset returns the clock, step count and
// queues to zero, keeps the fixed delay, and no Timer issued before it
// can touch the events scheduled after it.
func TestEngineResetForReuse(t *testing.T) {
	e := NewEngine()
	e.SetFixedDelay(time.Second)
	var old []Timer
	e.After(time.Second, func() {
		old = append(old, e.At(e.Now(), func() {}), e.AtLate(e.Now(), func() {}),
			e.After(time.Second, func() {}), e.After(time.Hour, func() {}))
	})
	e.RunUntil(time.Second)
	if e.Pending() != 2 || e.Now() != time.Second || e.Steps() != 3 {
		t.Fatalf("before Reset: pending %d, now %v, steps %d", e.Pending(), e.Now(), e.Steps())
	}
	e.Reset()
	if e.Pending() != 0 || e.Now() != 0 || e.Steps() != 0 || e.fixed != time.Second {
		t.Fatalf("after Reset: pending %d, now %v, steps %d, fixed delay %v", e.Pending(), e.Now(), e.Steps(), e.fixed)
	}
	fired := 0
	for i := 0; i < 8; i++ {
		e.After(time.Duration(i)*time.Millisecond, func() { fired++ })
	}
	for _, tm := range old {
		tm.Cancel()
		if tm.Reset(time.Minute) {
			t.Error("a pre-Reset timer re-armed a new event")
		}
	}
	if e.Run(); fired != 8 || e.Steps() != 8 {
		t.Errorf("fired %d of 8 events in %d steps", fired, e.Steps())
	}
}

// TestLaneCancelLeavesTombstone: a cancelled same-instant or
// fixed-delay event stops counting as pending at once, never fires, and
// its arena slot is recycled when its lane reaches it.
func TestLaneCancelLeavesTombstone(t *testing.T) {
	e := NewEngine()
	e.SetFixedDelay(time.Second)
	var got []int
	a := e.At(0, func() { got = append(got, 1) })
	e.At(0, func() { got = append(got, 2) })
	b := e.After(time.Second, func() { got = append(got, 3) })
	e.After(time.Second, func() { got = append(got, 4) })
	if e.laned != 4 {
		t.Fatalf("%d of 4 events in lanes", e.laned)
	}
	a.Cancel()
	b.Cancel()
	b.Cancel()
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("fired %v, want [2 4]", got)
	}
	if e.Pending() != 0 || len(e.free) != len(e.events) {
		t.Errorf("pending %d, %d of %d events free", e.Pending(), len(e.free), len(e.events))
	}
}

// TestSetFixedDelay: only phase-0 events exactly the fixed delay ahead
// use the fixed lane, and the delay cannot change under queued events.
func TestSetFixedDelay(t *testing.T) {
	e := NewEngine()
	e.SetFixedDelay(time.Second)
	e.After(time.Second, func() {})
	e.AfterArg(time.Second, func(int) {}, 0)
	e.At(time.Second, func() {})
	e.AtLate(time.Second, func() {}) // late: the heap
	e.After(2*time.Second, func() {})
	if n := e.lanes[laneFixed].n; n != 3 || len(e.heap) != 2 {
		t.Fatalf("fixed lane %d, heap %d; want 3 and 2", n, len(e.heap))
	}
	e.SetFixedDelay(time.Second) // unchanged: allowed
	func() {
		defer func() {
			if recover() == nil {
				t.Error("changing the fixed delay under queued events did not panic")
			}
		}()
		e.SetFixedDelay(time.Minute)
	}()
	e.Run()
	e.SetFixedDelay(time.Minute) // drained: allowed
	if e.fixed != time.Minute {
		t.Errorf("fixed delay %v after SetFixedDelay(1m)", e.fixed)
	}
}
