package sim

import (
	"testing"
	"time"
)

func TestCorePoolSerialisesBeyondCapacity(t *testing.T) {
	e := NewEngine()
	p := NewCorePool(e, 2)
	var finish []time.Duration
	for i := 0; i < 4; i++ {
		p.Acquire(func(int) {
			e.After(time.Second, func() {
				finish = append(finish, e.Now())
				p.Release()
			})
		}, 0)
	}
	e.Run()
	if len(finish) != 4 {
		t.Fatalf("finished %d tasks", len(finish))
	}
	// Two batches of two: completions at 1s,1s,2s,2s.
	want := []time.Duration{time.Second, time.Second, 2 * time.Second, 2 * time.Second}
	for i := range want {
		if finish[i] != want[i] {
			t.Errorf("finish[%d] = %v, want %v", i, finish[i], want[i])
		}
	}
}

func TestCorePoolFIFO(t *testing.T) {
	e := NewEngine()
	p := NewCorePool(e, 1)
	var order []int
	run := func(i int) {
		order = append(order, i)
		e.After(time.Millisecond, p.Release)
	}
	for i := 0; i < 5; i++ {
		p.Acquire(run, i)
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v, not FIFO", order)
		}
	}
}

func TestCorePoolBusyAccounting(t *testing.T) {
	e := NewEngine()
	p := NewCorePool(e, 4)
	for i := 0; i < 2; i++ {
		p.Acquire(func(int) {
			e.After(3*time.Second, p.Release)
		}, 0)
	}
	e.Run()
	if got := p.BusyCoreSeconds(); got < 5.9 || got > 6.1 {
		t.Errorf("BusyCoreSeconds = %v, want ~6", got)
	}
	if p.InUse() != 0 {
		t.Errorf("InUse = %d after drain", p.InUse())
	}
}

func TestCorePoolReleaseWithoutAcquirePanics(t *testing.T) {
	e := NewEngine()
	p := NewCorePool(e, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.Release()
}

func TestCorePoolGrow(t *testing.T) {
	e := NewEngine()
	p := NewCorePool(e, 1)
	started := 0
	for i := 0; i < 3; i++ {
		p.Acquire(func(int) {
			started++
			// Hold forever; we only check admission.
		}, 0)
	}
	e.Run()
	if started != 1 {
		t.Fatalf("started=%d with capacity 1", started)
	}
	p.SetCapacity(3)
	e.Run()
	if started != 3 {
		t.Errorf("started=%d after growing to 3", started)
	}
	if p.Queued() != 0 {
		t.Errorf("queued=%d", p.Queued())
	}
}
