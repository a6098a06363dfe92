package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Duration{5, 1, 3, 2, 4} {
		d := d
		e.ScheduleArg(d*Microsecond, func(any) { got = append(got, e.Now()) }, nil)
	}
	e.Run(Second)
	want := []Time{1 * Microsecond, 2 * Microsecond, 3 * Microsecond, 4 * Microsecond, 5 * Microsecond}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.AtArg(42, func(any) { order = append(order, i) }, nil)
	}
	e.Run(Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestEngineRunUntilStopsClock(t *testing.T) {
	e := NewEngine()
	fired := false
	e.ScheduleArg(2*Millisecond, func(any) { fired = true }, nil)
	e.Run(1 * Millisecond)
	if fired {
		t.Fatal("event beyond until fired")
	}
	if e.Now() != 1*Millisecond {
		t.Fatalf("clock = %v, want 1ms", e.Now())
	}
	e.Run(3 * Millisecond)
	if !fired {
		t.Fatal("event did not fire on second Run")
	}
	if e.Now() != 3*Millisecond {
		t.Fatalf("clock = %v, want 3ms", e.Now())
	}
}

func TestEngineEventAtUntilBoundaryFires(t *testing.T) {
	e := NewEngine()
	fired := false
	e.AtArg(5*Millisecond, func(any) { fired = true }, nil)
	e.Run(5 * Millisecond)
	if !fired {
		t.Fatal("event exactly at until did not fire")
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.ScheduleArg(Millisecond, func(any) { fired = true }, nil)
	if !h.Pending() {
		t.Fatal("event not pending after schedule")
	}
	if !h.Cancel() {
		t.Fatal("Cancel returned false for pending event")
	}
	if h.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	e.Run(Second)
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func(any)
	recurse = func(any) {
		depth++
		if depth < 100 {
			e.ScheduleArg(Microsecond, recurse, nil)
		}
	}
	e.ScheduleArg(0, recurse, nil)
	e.Run(Second)
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != Second {
		t.Fatalf("clock = %v, want 1s", e.Now())
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.ScheduleArg(Millisecond, func(any) {
		h := e.ScheduleArg(-5*Millisecond, func(any) {}, nil)
		if h.When() != e.Now() {
			t.Errorf("negative delay scheduled at %v, want now (%v)", h.When(), e.Now())
		}
	}, nil)
	e.Run(Second)
}

// A delay that would carry an event past the end of time saturates at
// maxTime instead of wrapping negative and firing at once.
func TestEngineDelayPastEndOfTimeSaturates(t *testing.T) {
	e := NewEngine()
	e.Run(1 << 62)
	if e.Now() != 1<<62 {
		t.Fatalf("clock at %v, want 2^62", e.Now())
	}
	h := e.ScheduleArg(1<<62, func(any) {}, nil)
	h2 := e.ScheduleArg2(maxTime, func(any, any) {}, nil, nil)
	if h.When() != maxTime || h2.When() != maxTime {
		t.Fatalf("ScheduleArg/ScheduleArg2 past the end of time at %d/%d, want maxTime %d (now %d)",
			int64(h.When()), int64(h2.When()), int64(maxTime), int64(e.Now()))
	}
	if !h.Cancel() || !h2.Cancel() || e.Pending() != 0 {
		t.Fatalf("saturated events not cancelable: %d still pending", e.Pending())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.ScheduleArg(Duration(i)*Millisecond, func(any) {
			count++
			if count == 3 {
				e.Stop()
			}
		}, nil)
	}
	e.Run(Second)
	if count != 3 {
		t.Fatalf("fired %d events after Stop, want 3", count)
	}
	// A later Run resumes from where we stopped.
	e.Run(Second)
	if count != 10 {
		t.Fatalf("fired %d total events, want 10", count)
	}
}

// Halt is a Stop that sticks: unlike TestEngineStop's resume, every later
// Run returns at once, firing nothing and leaving the clock where it was.
func TestEngineHaltSticks(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.ScheduleArg(Duration(i)*Millisecond, func(any) {
			count++
			if count == 3 {
				e.Halt()
			}
		}, nil)
	}
	e.Run(Second)
	if count != 3 || !e.Halted() {
		t.Fatalf("fired %d events after Halt (halted=%v), want 3", count, e.Halted())
	}
	if fired := e.Run(Second); fired != 0 || count != 3 {
		t.Fatalf("Run after Halt fired %d events", fired)
	}
	if e.Now() != 3*Millisecond {
		t.Fatalf("clock = %v after a halted Run, want 3ms", e.Now())
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	n := 0
	e.ScheduleArg(Millisecond, func(any) { n++ }, nil)
	e.ScheduleArg(2*Millisecond, func(any) { n++ }, nil)
	if !e.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// TestEngineStepRefusesNesting: Step from inside a callback Run is
// executing panics instead of firing events out from under the running
// one, and the engine stays usable after the panic unwinds.
func TestEngineStepRefusesNesting(t *testing.T) {
	e := NewEngine()
	var inner any
	e.ScheduleArg(Millisecond, func(any) {
		defer func() { inner = recover() }()
		e.Step()
	}, nil)
	n := 0
	e.ScheduleArg(2*Millisecond, func(any) { n++ }, nil)
	e.Run(Millisecond)
	if inner == nil {
		t.Fatal("Step inside Run did not panic")
	}
	if n != 0 {
		t.Fatal("nested Step fired a later event")
	}
	if !e.Step() || n != 1 {
		t.Fatalf("Step after a refused nested Step: n=%d", n)
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the engine executes exactly len(delays) events.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			e.ScheduleArg(Duration(d)*Microsecond, func(any) { fired = append(fired, e.Now()) }, nil)
		}
		e.Run(Second)
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerRearm(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	tm.Arm(5 * Millisecond)
	e.Run(2 * Millisecond)
	tm.Arm(5 * Millisecond) // push expiry out to t=7ms
	e.Run(6 * Millisecond)
	if fired != 0 {
		t.Fatal("timer fired before rearmed deadline")
	}
	e.Run(8 * Millisecond)
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	tm.Arm(Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop returned false for armed timer")
	}
	if tm.Stop() {
		t.Fatal("Stop returned true for stopped timer")
	}
	e.Run(Second)
	if fired != 0 {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerArmIfStopped(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	tm.Arm(4 * Millisecond)
	tm.ArmIfStopped(Millisecond) // must not shorten the pending deadline
	e.Run(2 * Millisecond)
	if fired != 0 {
		t.Fatal("ArmIfStopped rearmed a pending timer")
	}
	e.Run(Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	tm.ArmIfStopped(Millisecond)
	e.Run(2 * Second)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestTimerDeadline(t *testing.T) {
	e := NewEngine()
	tm := NewTimer(e, func() {})
	if got := tm.Deadline(); got != -1 {
		t.Fatalf("stopped timer deadline = %v, want -1", got)
	}
	tm.Arm(7 * Millisecond)
	if got := tm.Deadline(); got != 7*Millisecond {
		t.Fatalf("deadline = %v, want 7ms", got)
	}
}

func TestTickerPeriodic(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	tk := NewTicker(e, 10*Millisecond, func() { ticks = append(ticks, e.Now()) })
	tk.Start()
	e.Run(35 * Millisecond)
	want := []Time{10 * Millisecond, 20 * Millisecond, 30 * Millisecond}
	if len(ticks) != len(want) {
		t.Fatalf("got %d ticks, want %d", len(ticks), len(want))
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
	tk.Stop()
	e.Run(Second)
	if len(ticks) != 3 {
		t.Fatal("ticker fired after Stop")
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewRand(1, "nic")
	b := NewRand(1, "nic")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identical seeds/names diverged")
		}
	}
	c := NewRand(1, "cpu")
	same := 0
	d := NewRand(1, "nic")
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different component streams coincide %d/100 times", same)
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(42, "test")
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %v", v)
		}
		if v := r.Duration(10, 20); v < 10 || v > 20 {
			t.Fatalf("Duration out of range: %v", v)
		}
		if v := r.Exp(Millisecond); v < 0 {
			t.Fatalf("Exp negative: %v", v)
		}
	}
	if got := r.Duration(30, 30); got != 30 {
		t.Fatalf("degenerate Duration = %v, want 30", got)
	}
	if got := r.Duration(30, 10); got != 30 {
		t.Fatalf("inverted Duration = %v, want lo", got)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(7, "exp")
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(Millisecond))
	}
	mean := sum / n
	if mean < 0.9*float64(Millisecond) || mean > 1.1*float64(Millisecond) {
		t.Fatalf("Exp mean = %v, want ~1ms", Duration(mean))
	}
}

func TestRandNormalMoments(t *testing.T) {
	r := NewRand(9, "normal")
	const n = 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Normal(5, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if mean < 4.9 || mean > 5.1 {
		t.Fatalf("Normal mean = %v, want ~5", mean)
	}
	if variance < 3.6 || variance > 4.4 {
		t.Fatalf("Normal variance = %v, want ~4", variance)
	}
}

func TestRandBoolProbability(t *testing.T) {
	r := NewRand(11, "bool")
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if hits < 2800 || hits > 3200 {
		t.Fatalf("Bool(0.3) hit %d/%d", hits, n)
	}
}

func TestTimeFormatting(t *testing.T) {
	if got := (1234567 * Microsecond).String(); got != "1.234567s" {
		t.Fatalf("String = %q", got)
	}
	if got := (3456 * Microsecond).String(); got != "3.456ms" {
		t.Fatalf("String = %q", got)
	}
	if got := (12300 * Nanosecond).String(); got != "12.3µs" {
		t.Fatalf("String = %q", got)
	}
	if got := (850 * Nanosecond).String(); got != "850ns" {
		t.Fatalf("String = %q", got)
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v", got)
	}
	if got := (2500 * Nanosecond).Micros(); got != 2.5 {
		t.Fatalf("Micros = %v", got)
	}
	if got := (2500 * Microsecond).Millis(); got != 2.5 {
		t.Fatalf("Millis = %v", got)
	}
}
