package sim

import (
	"testing"
	"unsafe"
)

// TestEngineSchedulingDoesNotAllocate pins the engine's zero-allocation
// contract: once the free list has grown, every scheduling path, firing
// and Handle.Cancel allocate nothing, at every horizon (near window, low
// and high wheel levels, the top level).
func TestEngineSchedulingDoesNotAllocate(t *testing.T) {
	// Padding fits five more bytes after where: a one-byte event class
	// (ROADMAP item 2) must land there and leave the event at this size.
	if got := unsafe.Sizeof(event{}); got != 104 {
		t.Fatalf("unsafe.Sizeof(event{}) = %d, want 104", got)
	}

	e := NewEngine()
	nop := func(any) {}
	nop2 := func(any, any) {}
	arg := new(int) // a pointer goes into an interface without boxing
	delays := []Duration{Microsecond, 100 * Microsecond, 1 << 44}
	// A fired 2^62-ns event would carry the clock past maxTime within two
	// rounds, so the top wheel level is reached through the cancel path.
	const top = Duration(1) << 62
	schedule := map[string]func(d Duration) Handle{
		"ScheduleArg":  func(d Duration) Handle { return e.ScheduleArg(d, nop, arg) },
		"AtArg":        func(d Duration) Handle { return e.AtArg(e.Now()+d, nop, arg) },
		"ScheduleArg2": func(d Duration) Handle { return e.ScheduleArg2(d, nop2, arg, arg) },
		"AtArg2":       func(d Duration) Handle { return e.AtArg2(e.Now()+d, nop2, arg, arg) },
		"AtKeyArg2":    func(d Duration) Handle { return e.AtKeyArg2(e.Reserve(e.Now()+d), nop2, arg, arg) },
	}
	for name, sched := range schedule {
		fire := func() {
			for _, d := range delays {
				sched(d)
			}
			for range delays {
				e.Step()
			}
		}
		cancel := func() {
			for _, d := range delays {
				sched(d).Cancel()
			}
			sched(top).Cancel()
		}
		fire() // grow the free list
		if n := testing.AllocsPerRun(100, fire); n != 0 {
			t.Errorf("%s and fire: %v allocs/op, want 0", name, n)
		}
		if n := testing.AllocsPerRun(100, cancel); n != 0 {
			t.Errorf("%s and Handle.Cancel: %v allocs/op, want 0", name, n)
		}
		if e.Pending() != 0 {
			t.Fatalf("%s: %d events pending", name, e.Pending())
		}
	}
}
