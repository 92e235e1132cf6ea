package sim

import (
	"sort"
	"testing"
	"time"
)

// FuzzEngineOrder checks the event heap against a sort-based oracle.
// The input is a program of two-byte ops (kind, argument) that
// schedules with At, AtLate, After and AfterArg, cancels live, fired,
// cancelled and recycled timers alike, and advances the clock with
// RunUntil. Every fired callback executes the next op itself, so
// callbacks schedule and cancel too. At every firing the event must be
// the minimum of the live set under (time, phase, schedule order), the
// clock must read its time, and Pending must equal the live count.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 1, 3, 2, 3, 3, 3, 6, 9})
	f.Add([]byte{2, 1, 4, 0, 2, 1, 2, 1, 4, 1, 6, 1, 0, 0, 4, 0})
	f.Add([]byte{1, 0, 0, 0, 2, 2, 3, 0, 5, 0, 4, 2, 6, 0, 0, 7, 1, 7, 4, 5})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512] // long programs add time, not new interleavings
		}
		const tick = time.Millisecond
		type rec struct {
			at    time.Duration
			phase int
			seq   int // schedule order, the engine's FIFO tie-break
			label int
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
		checkPending := func() {
			t.Helper()
			if got := e.Pending(); got != len(live) {
				t.Fatalf("Pending() = %d, live events = %d", got, len(live))
			}
		}
		add := func(at time.Duration, phase int) int {
			label := seq
			live = append(live, rec{at: at, phase: phase, seq: seq, label: label})
			seq++
			return label
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
			kind, arg := prog[pc]%7, prog[pc+1]
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
				for j := range live {
					if live[j].label == i {
						live = append(live[:j], live[j+1:]...)
						break
					}
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
