package oskernel

import (
	"testing"

	"ncap/internal/cpu"
	"ncap/internal/power"
	"ncap/internal/sim"
)

func newKernel(eng *sim.Engine) *Kernel {
	tab := power.DefaultTable()
	chip := cpu.New(eng, 4, tab, power.DefaultModel(), tab.Max())
	return New(chip)
}

// work builds a caller-owned Work for the submission APIs.
func work(name string, cycles int64, fn func()) *cpu.Work {
	return &cpu.Work{Name: name, Cycles: cycles, OnDone: fn}
}

func TestIRQRunsOnCore0(t *testing.T) {
	eng := sim.NewEngine()
	k := newKernel(eng)
	ran := false
	irq := k.NewIRQ("nic", 3100, func() { ran = true })
	irq.Assert()
	eng.Run(10 * sim.Microsecond)
	if !ran {
		t.Fatal("handler did not run")
	}
	if k.chip.Core(0).Dispatched.Value() != 1 {
		t.Fatal("IRQ not dispatched on core 0")
	}
	if k.HardIRQs.Value() != 1 {
		t.Fatalf("hardirq count = %d", k.HardIRQs.Value())
	}
}

func TestIRQCoalescing(t *testing.T) {
	eng := sim.NewEngine()
	k := newKernel(eng)
	runs := 0
	irq := k.NewIRQ("nic", 31_000, func() { runs++ })
	irq.Assert()
	irq.Assert() // still queued: coalesced
	irq.Assert()
	eng.Run(sim.Millisecond)
	if runs != 1 {
		t.Fatalf("handler ran %d times, want 1 (coalesced)", runs)
	}
	// After completion a new assert runs again.
	irq.Assert()
	eng.Run(2 * sim.Millisecond)
	if runs != 2 {
		t.Fatalf("handler ran %d times, want 2", runs)
	}
}

func TestIRQPreemptsRunningTask(t *testing.T) {
	eng := sim.NewEngine()
	k := newKernel(eng)
	var irqDone, taskDone sim.Time
	k.SubmitTaskOn(0, work("task", 31_000_000, func() { taskDone = eng.Now() })) // 10 ms
	irq := k.NewIRQ("nic", 3100, func() { irqDone = eng.Now() })
	eng.AtArg(sim.Millisecond, func(any) { irq.Assert() }, nil)
	eng.Run(sim.Second)
	if irqDone == 0 || irqDone > 1010*sim.Microsecond {
		t.Fatalf("irq done at %v, want ~1.001ms", irqDone)
	}
	if taskDone < 10*sim.Millisecond {
		t.Fatalf("task done at %v, want >= 10ms", taskDone)
	}
}

func TestSoftIRQCoalescingAndRun(t *testing.T) {
	eng := sim.NewEngine()
	k := newKernel(eng)
	runs := 0
	s := k.NewSoftIRQ("net_rx", 0, 31_000, func() { runs++ })
	s.Raise()
	s.Raise()
	eng.Run(sim.Millisecond)
	if runs != 1 {
		t.Fatalf("softirq ran %d times, want 1", runs)
	}
	// Run executes without coalescing.
	extra := 0
	s.Run(work("", 3100, func() { extra++ }))
	s.Run(work("", 3100, func() { extra++ }))
	eng.Run(2 * sim.Millisecond)
	if extra != 2 {
		t.Fatalf("Run executed %d, want 2", extra)
	}
}

func TestSoftIRQYieldsToIRQ(t *testing.T) {
	eng := sim.NewEngine()
	k := newKernel(eng)
	var order []string
	s := k.NewSoftIRQ("net_rx", 0, 3_100_000, func() { order = append(order, "softirq") }) // 1 ms
	irq := k.NewIRQ("nic", 3100, func() { order = append(order, "irq") })
	s.Raise()
	eng.AtArg(100*sim.Microsecond, func(any) { irq.Assert() }, nil)
	eng.Run(sim.Second)
	if len(order) != 2 || order[0] != "irq" {
		t.Fatalf("order = %v, want irq first", order)
	}
}

func TestTimerFiresAndWakesCore(t *testing.T) {
	eng := sim.NewEngine()
	k := newKernel(eng)
	core := k.chip.Core(2)
	// Put core 2 to deep sleep via a decider.
	core.SetIdleDecider(sleepDecider{})
	core.Submit(&cpu.Work{Cycles: 3100, Prio: cpu.PrioTask})
	eng.Run(10 * sim.Microsecond)
	if core.CState() != power.C6 {
		t.Fatalf("core 2 state = %v", core.CState())
	}
	var firedAt sim.Time
	tm := k.NewTimer("app", 2, 3100, func() { firedAt = eng.Now() })
	tm.Arm(sim.Millisecond)
	eng.Run(sim.Second)
	// Wake latency (22+2 µs) + handler (1 µs) after the 1ms+10µs arm point.
	if firedAt == 0 {
		t.Fatal("timer never fired")
	}
	lo := sim.Time(sim.Millisecond)
	hi := sim.Time(sim.Millisecond + 40*sim.Microsecond)
	if firedAt < lo || firedAt > hi {
		t.Fatalf("fired at %v, want within [%v,%v]", firedAt, lo, hi)
	}
	if core.Wakes.Value() != 1 {
		t.Fatalf("wakes = %d", core.Wakes.Value())
	}
}

type sleepDecider struct{}

func (sleepDecider) SelectIdleState(*cpu.Core) power.CState { return power.C6 }
func (sleepDecider) OnWake(*cpu.Core, sim.Duration)         {}

func TestPeriodicTimer(t *testing.T) {
	eng := sim.NewEngine()
	k := newKernel(eng)
	fires := 0
	tm := k.NewTimer("tick", 0, 3100, func() { fires++ })
	tm.ArmPeriodic(10 * sim.Millisecond)
	eng.Run(35 * sim.Millisecond)
	if fires != 3 {
		t.Fatalf("fires = %d, want 3", fires)
	}
	tm.Stop()
	eng.Run(sim.Second)
	if fires != 3 {
		t.Fatal("timer fired after Stop")
	}
}

func TestNextTimerDelay(t *testing.T) {
	eng := sim.NewEngine()
	k := newKernel(eng)
	if d := k.NextTimerDelay(0); d != -1 {
		t.Fatalf("empty delay = %v, want -1", d)
	}
	t1 := k.NewTimer("a", 0, 100, func() {})
	t2 := k.NewTimer("b", 0, 100, func() {})
	t3 := k.NewTimer("c", 1, 100, func() {})
	t1.Arm(5 * sim.Millisecond)
	t2.Arm(2 * sim.Millisecond)
	t3.Arm(sim.Millisecond)
	if d := k.NextTimerDelay(0); d != 2*sim.Millisecond {
		t.Fatalf("core0 delay = %v, want 2ms (nearest on core 0)", d)
	}
	if d := k.NextTimerDelay(1); d != sim.Millisecond {
		t.Fatalf("core1 delay = %v, want 1ms", d)
	}
	if d := k.NextTimerDelay(3); d != -1 {
		t.Fatalf("core3 delay = %v, want -1", d)
	}
}

func TestTimerHintIntegratesWithMenuStyleQuery(t *testing.T) {
	eng := sim.NewEngine()
	k := newKernel(eng)
	tm := k.NewTimer("tick", 0, 100, func() {})
	tm.Arm(3 * sim.Millisecond)
	eng.Run(sim.Millisecond)
	hint := k.TimerHint()
	if d := hint(0); d != 2*sim.Millisecond {
		t.Fatalf("hint = %v, want 2ms remaining", d)
	}
}

func TestSubmitTaskPrefersIdleCore(t *testing.T) {
	eng := sim.NewEngine()
	k := newKernel(eng)
	// Saturate cores 0 and 1.
	k.SubmitTaskOn(0, work("busy0", 1<<40, nil))
	k.SubmitTaskOn(1, work("busy1", 1<<40, nil))
	eng.Run(sim.Microsecond)
	got := k.SubmitTask(work("t", 3100, nil))
	if got.ID() == 0 || got.ID() == 1 {
		t.Fatalf("task placed on busy core %d", got.ID())
	}
}

func TestSubmitTaskBalancesQueues(t *testing.T) {
	eng := sim.NewEngine()
	k := newKernel(eng)
	counts := map[int]int{}
	for i := 0; i < 100; i++ {
		c := k.SubmitTask(work("t", 1<<40, nil))
		counts[c.ID()]++
	}
	for id, n := range counts {
		if n < 20 || n > 30 {
			t.Fatalf("core %d got %d/100 tasks; distribution %v", id, n, counts)
		}
	}
}

func TestKernelString(t *testing.T) {
	eng := sim.NewEngine()
	k := newKernel(eng)
	if k.String() != "kernel(cores=4, irq=0)" {
		t.Fatalf("String = %q", k.String())
	}
}

func TestIRQAffinity(t *testing.T) {
	eng := sim.NewEngine()
	k := newKernel(eng)
	ran := false
	irq := k.NewIRQOn(3, "rxq3", 3100, func() { ran = true })
	if irq.Core() != 3 {
		t.Fatalf("affinity = %d", irq.Core())
	}
	irq.Assert()
	eng.Run(sim.Millisecond)
	if !ran {
		t.Fatal("handler did not run")
	}
	if k.chip.Core(3).Dispatched.Value() != 1 {
		t.Fatal("IRQ not dispatched on core 3")
	}
	if k.chip.Core(0).Dispatched.Value() != 0 {
		t.Fatal("IRQ leaked to core 0")
	}
}

func TestIRQAffinityOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	eng := sim.NewEngine()
	k := newKernel(eng)
	k.NewIRQOn(9, "bad", 100, func() {})
}

func TestSubmitSoftIRQOnPreemptsTasks(t *testing.T) {
	eng := sim.NewEngine()
	k := newKernel(eng)
	var order []string
	// A long task queue, then softirq work submitted behind it.
	k.SubmitTaskOn(1, work("t1", 3_100_000, func() { order = append(order, "t1") }))
	k.SubmitTaskOn(1, work("t2", 3_100_000, func() { order = append(order, "t2") }))
	eng.ScheduleArg(100*sim.Microsecond, func(any) {
		k.SubmitSoftIRQOn(1, work("net_tx", 3100, func() { order = append(order, "tx") }))
	}, nil)
	eng.Run(sim.Second)
	// net_tx preempts t1's remainder? No: softirq preempts only QUEUED
	// tasks; the running slice t1 is lower priority so it IS preempted.
	if len(order) != 3 || order[0] != "tx" {
		t.Fatalf("order = %v, want tx first", order)
	}
}

// An IRQ or softirq handler may re-raise its own line: the Core releases
// the embedded Work before OnDone runs, so the resubmission is legal.
func TestHandlerResubmitsOwnWork(t *testing.T) {
	eng := sim.NewEngine()
	k := newKernel(eng)
	var irq *IRQ
	var s *SoftIRQ
	irqRuns, softRuns := 0, 0
	irq = k.NewIRQ("nic", 3100, func() {
		if irqRuns++; irqRuns < 5 {
			irq.Assert()
		}
	})
	s = k.NewSoftIRQ("net_rx", 0, 3100, func() {
		if softRuns++; softRuns < 5 {
			s.Raise()
		}
	})
	irq.Assert()
	s.Raise()
	eng.Run(sim.Second)
	if irqRuns != 5 || softRuns != 5 {
		t.Fatalf("irq ran %d, softirq ran %d; want 5 each", irqRuns, softRuns)
	}
	if got := k.HardIRQs.Value(); got != 5 {
		t.Fatalf("HardIRQs = %d, want 5", got)
	}
}

// Submitting a caller-owned Work that is still queued is a bug the Core
// refuses loudly instead of silently running it once.
func TestDoubleSubmitPanics(t *testing.T) {
	eng := sim.NewEngine()
	k := newKernel(eng)
	s := k.NewSoftIRQ("net_rx", 0, 3100, func() {})
	w := work("", 3100, nil)
	s.Run(w)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("second Run of a queued Work did not panic")
		}
	}()
	s.Run(w)
}

// A periodic timer whose handler outlasts its period queues one run per
// expiry: kernel timer expiries are never coalesced, so every expiry takes
// its own Work.
func TestPeriodicTimerQueuesEveryExpiry(t *testing.T) {
	eng := sim.NewEngine()
	k := newKernel(eng)
	runs := 0
	// 9.3 M cycles is 3 ms at 3.1 GHz: three periods per handler run.
	tm := k.NewTimer("slow", 1, 9_300_000, func() { runs++ })
	tm.ArmPeriodic(sim.Millisecond)
	peak := 0
	for i := 1; i <= 5; i++ {
		eng.Run(sim.Time(i)*sim.Millisecond + sim.Microsecond)
		if n := k.chip.Core(1).QueueLen(cpu.PrioIRQ); n > peak {
			peak = n
		}
	}
	tm.Stop()
	eng.Run(sim.Second)
	if runs != 5 {
		t.Fatalf("handler ran %d times for 5 expiries", runs)
	}
	if peak < 2 {
		t.Fatalf("peak IRQ queue %d: expiries never overlapped", peak)
	}
}
