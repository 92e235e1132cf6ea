package sim

import (
	"sort"
	"testing"
	"time"
)

// FuzzEngineOrder checks the event heap and lanes against a sort-based
// oracle. The input is a program of two-byte ops (kind, argument) that
// schedules with At, AtLate, After and AfterArg (at later instants, at
// the current one, which use the same-instant lanes, and at the fixed
// delay, which uses the fixed lane), cancels live, fired, cancelled
// and recycled timers alike (lane tombstones included), re-arms timers
// with Reset, and advances the clock with RunUntil. Every fired
// callback executes the next op itself, so callbacks schedule, cancel
// and re-arm too. At every firing the event must be the minimum of the
// live set under (time, phase, schedule order), where a Reset counts as
// a new schedule, the clock must read its time, and Pending must equal
// the live count.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 1, 3, 2, 3, 3, 3, 6, 9})
	f.Add([]byte{2, 1, 4, 0, 2, 1, 2, 1, 4, 1, 6, 1, 0, 0, 4, 0})
	f.Add([]byte{1, 0, 0, 0, 2, 2, 3, 0, 5, 0, 4, 2, 6, 0, 0, 7, 1, 7, 4, 5})
	f.Add([]byte{7, 0, 7, 2, 8, 1, 8, 9, 4, 0, 9, 0x21, 6, 3, 7, 1, 8, 0, 4, 5, 9, 0x02})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512] // long programs add time, not new interleavings
		}
		const tick = time.Millisecond
		type rec struct {
			at    time.Duration
			phase int
			seq   int // schedule order, the engine's FIFO tie-break
			label int // index in timers
		}
		var (
			e      = NewEngine()
			live   []rec
			timers []Timer // every timer ever issued, for stale cancels
			seq    int
			pc     int
			fired  int
			step   func(inCallback bool)
			fireFn func(label int)
		)
		// Longer than any other op's delay, so only op 8 reaches the
		// fixed lane and the older corpus inputs keep their meaning.
		const fixed = 8 * tick
		e.SetFixedDelay(fixed)
		checkPending := func() {
			t.Helper()
			if got := e.Pending(); got != len(live) {
				t.Fatalf("Pending() = %d, live events = %d", got, len(live))
			}
		}
		// add records an event the caller schedules next; its label is
		// the index its Timer will take in timers.
		add := func(at time.Duration, phase int) int {
			label := len(timers)
			live = append(live, rec{at: at, phase: phase, seq: seq, label: label})
			seq++
			return label
		}
		find := func(label int) int {
			for j := range live {
				if live[j].label == label {
					return j
				}
			}
			return -1
		}
		fireFn = func(label int) {
			sort.Slice(live, func(i, j int) bool {
				a, b := live[i], live[j]
				if a.at != b.at {
					return a.at < b.at
				}
				if a.phase != b.phase {
					return a.phase < b.phase
				}
				return a.seq < b.seq
			})
			if len(live) == 0 || live[0].label != label {
				t.Fatalf("fired event %d, oracle expected %+v", label, live)
			}
			if e.Now() != live[0].at {
				t.Fatalf("event %d fired at %v, scheduled for %v", label, e.Now(), live[0].at)
			}
			live = live[1:]
			fired++
			step(true)
		}
		step = func(inCallback bool) {
			if pc+1 >= len(prog) {
				pc = len(prog)
				return
			}
			kind, arg := prog[pc]%10, prog[pc+1]
			pc += 2
			d := time.Duration(arg%8) * tick
			switch kind {
			case 0:
				at := e.Now() + d
				l := add(at, 0)
				timers = append(timers, e.At(at, func() { fireFn(l) }))
			case 1:
				at := e.Now() + d
				l := add(at, 1)
				timers = append(timers, e.AtLate(at, func() { fireFn(l) }))
			case 2:
				// Negative delays clamp to now.
				raw := time.Duration(int(arg%8)-2) * tick
				l := add(e.Now()+max(raw, 0), 0)
				timers = append(timers, e.After(raw, func() { fireFn(l) }))
			case 3:
				l := add(e.Now()+d, 0)
				timers = append(timers, e.AfterArg(d, fireFn, l))
			case 4:
				if len(timers) == 0 {
					break
				}
				// The timer may be live, fired, already cancelled, or
				// stale for an event slot since recycled.
				i := int(arg) % len(timers)
				timers[i].Cancel()
				if j := find(i); j >= 0 {
					live = append(live[:j], live[j+1:]...)
				}
			case 5:
				Timer{}.Cancel()
			case 6:
				if inCallback {
					break // Run is not re-entrant
				}
				deadline := e.Now() + d
				e.RunUntil(deadline)
				for _, r := range live {
					if r.at <= deadline {
						t.Fatalf("RunUntil(%v) left event %+v unfired", deadline, r)
					}
				}
			case 7:
				// Same-instant schedules: the now and late lanes.
				now := e.Now()
				switch arg % 4 {
				case 0:
					l := add(now, 0)
					timers = append(timers, e.At(now, func() { fireFn(l) }))
				case 1:
					l := add(now, 0)
					timers = append(timers, e.After(0, func() { fireFn(l) }))
				case 2:
					l := add(now, 1)
					timers = append(timers, e.AtLate(now, func() { fireFn(l) }))
				case 3:
					l := add(now, 0)
					timers = append(timers, e.AfterArg(0, fireFn, l))
				}
			case 8:
				// Exactly the fixed delay ahead: the fixed lane, except
				// for a late event, which goes to the heap.
				at := e.Now() + fixed
				switch arg % 4 {
				case 0:
					l := add(at, 0)
					timers = append(timers, e.At(at, func() { fireFn(l) }))
				case 1:
					l := add(at, 0)
					timers = append(timers, e.After(fixed, func() { fireFn(l) }))
				case 2:
					l := add(at, 0)
					timers = append(timers, e.AfterArg(fixed, fireFn, l))
				case 3:
					l := add(at, 1)
					timers = append(timers, e.AtLate(at, func() { fireFn(l) }))
				}
			case 9:
				if len(timers) == 0 {
					break
				}
				// Re-arm one of the 16 newest timers, live or not, to
				// fire 0–7 ticks from now: a live one moves and takes a
				// fresh schedule order, any other is refused.
				i := len(timers) - 1 - int(arg&15)%len(timers)
				at := e.Now() + time.Duration(arg>>4%8)*tick
				j := find(i)
				if ok := timers[i].Reset(at); ok != (j >= 0) {
					t.Fatalf("Reset of timer %d reported %v, live = %v", i, ok, j >= 0)
				}
				if j >= 0 {
					live[j].at, live[j].seq = at, seq
					seq++
				}
			}
			checkPending()
		}
		for pc < len(prog) {
			step(false)
		}
		e.Run()
		if len(live) != 0 {
			t.Fatalf("%d events never fired: %+v", len(live), live)
		}
		checkPending()
		if e.Steps() != uint64(fired) {
			t.Fatalf("Steps() = %d, fired %d", e.Steps(), fired)
		}
	})
}
