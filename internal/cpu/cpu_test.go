package cpu

import (
	"testing"
	"testing/quick"

	"ncap/internal/power"
	"ncap/internal/sim"
)

func newChip(eng *sim.Engine) *Chip {
	tab := power.DefaultTable()
	return New(eng, 4, tab, power.DefaultModel(), tab.Max())
}

func TestWorkDurationScalesWithFrequency(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	var doneAt sim.Time
	// 3.1e6 cycles at 3.1 GHz = 1 ms.
	chip.Core(0).Submit(&Work{Name: "w", Cycles: 3_100_000, Prio: PrioTask, OnDone: func() { doneAt = eng.Now() }})
	eng.Run(sim.Second)
	if doneAt != sim.Millisecond {
		t.Fatalf("done at %v, want 1ms", doneAt)
	}

	// Same work at the deepest state (0.8 GHz) takes 3.875 ms.
	eng2 := sim.NewEngine()
	tab := power.DefaultTable()
	chip2 := New(eng2, 1, tab, power.DefaultModel(), tab.Min())
	var doneAt2 sim.Time
	chip2.Core(0).Submit(&Work{Cycles: 3_100_000, Prio: PrioTask, OnDone: func() { doneAt2 = eng2.Now() }})
	eng2.Run(sim.Second)
	want := sim.Time(3_100_000 * 1000 / 800)
	if doneAt2 != want {
		t.Fatalf("done at %v, want %v", doneAt2, want)
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	var order []string
	mk := func(name string) *Work {
		return &Work{Name: name, Cycles: 1000, Prio: PrioTask, OnDone: func() { order = append(order, name) }}
	}
	chip.Core(0).Submit(mk("a"))
	chip.Core(0).Submit(mk("b"))
	chip.Core(0).Submit(mk("c"))
	eng.Run(sim.Second)
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestIRQPreemptsTask(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	core := chip.Core(0)
	var order []string
	core.Submit(&Work{Name: "task", Cycles: 31_000_000, Prio: PrioTask, OnDone: func() { order = append(order, "task") }})
	// Inject an IRQ midway through the task.
	eng.Schedule(sim.Millisecond, func() {
		core.Submit(&Work{Name: "irq", Cycles: 3100, Prio: PrioIRQ, OnDone: func() { order = append(order, "irq") }})
	})
	eng.Run(sim.Second)
	if len(order) != 2 || order[0] != "irq" || order[1] != "task" {
		t.Fatalf("order = %v", order)
	}
	if core.Preempts.Value() != 1 {
		t.Fatalf("preempts = %d", core.Preempts.Value())
	}
}

func TestPreemptionPreservesTotalWork(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	core := chip.Core(0)
	var doneAt sim.Time
	// 31e6 cycles = 10 ms at 3.1 GHz.
	core.Submit(&Work{Name: "task", Cycles: 31_000_000, Prio: PrioTask, OnDone: func() { doneAt = eng.Now() }})
	// 1 ms of IRQ work injected at t=2ms delays completion by ~1 ms.
	eng.Schedule(2*sim.Millisecond, func() {
		core.Submit(&Work{Name: "irq", Cycles: 3_100_000, Prio: PrioIRQ})
	})
	eng.Run(sim.Second)
	lo, hi := sim.Time(10_990*sim.Microsecond), sim.Time(11_010*sim.Microsecond)
	if doneAt < lo || doneAt > hi {
		t.Fatalf("done at %v, want ~11ms", doneAt)
	}
}

type fixedDecider struct {
	state power.CState
	wakes []sim.Duration
}

func (d *fixedDecider) SelectIdleState(*Core) power.CState { return d.state }
func (d *fixedDecider) OnWake(_ *Core, slept sim.Duration) { d.wakes = append(d.wakes, slept) }

func TestSleepAndWakeLatency(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	core := chip.Core(0)
	dec := &fixedDecider{state: power.C6}
	core.SetIdleDecider(dec)

	// Run something so the core enters idle (and then C6) afterwards.
	core.Submit(&Work{Cycles: 3100, Prio: PrioTask}) // 1 µs
	eng.Run(10 * sim.Microsecond)
	if core.CState() != power.C6 {
		t.Fatalf("core state = %v, want C6", core.CState())
	}

	// Wake with new work at t=1ms: completion is delayed by the C6 exit
	// latency (22 µs) + MWAIT overhead (2 µs) + 1 µs of execution.
	var doneAt sim.Time
	eng.At(sim.Millisecond, func() {
		core.Submit(&Work{Cycles: 3100, Prio: PrioTask, OnDone: func() { doneAt = eng.Now() }})
	})
	eng.Run(sim.Second)
	want := sim.Time(sim.Millisecond + 22*sim.Microsecond + power.MwaitWakeOverhead + sim.Microsecond)
	if doneAt != want {
		t.Fatalf("done at %v, want %v", doneAt, want)
	}
	if len(dec.wakes) != 1 {
		t.Fatalf("wakes = %d", len(dec.wakes))
	}
	// Slept from ~1µs to 1ms.
	if dec.wakes[0] < 990*sim.Microsecond || dec.wakes[0] > sim.Millisecond {
		t.Fatalf("slept = %v", dec.wakes[0])
	}
	if core.Wakes.Value() != 1 {
		t.Fatalf("wake count = %d", core.Wakes.Value())
	}
}

func TestC0PollingWakesInstantly(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	core := chip.Core(0) // nil decider: poll in C0
	core.Submit(&Work{Cycles: 3100, Prio: PrioTask})
	eng.Run(100 * sim.Microsecond)
	if core.CState() != power.C0 || core.Busy() {
		t.Fatalf("core should idle in C0, state=%v busy=%v", core.CState(), core.Busy())
	}
	var doneAt sim.Time
	eng.At(sim.Millisecond, func() {
		core.Submit(&Work{Cycles: 3100, Prio: PrioTask, OnDone: func() { doneAt = eng.Now() }})
	})
	eng.Run(sim.Second)
	if doneAt != sim.Millisecond+sim.Microsecond {
		t.Fatalf("done at %v, want 1.001ms (no wake latency in C0)", doneAt)
	}
}

func TestUpTransitionTiming(t *testing.T) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := New(eng, 1, tab, power.DefaultModel(), tab.Min())
	var effective sim.Time
	chip.OnPStateChange(func(p power.PState) {
		if p == tab.Max() {
			effective = eng.Now()
		}
	})
	chip.Boost()
	eng.Run(sim.Second)
	// 0.65→1.2 V ramp = 88 µs, then 5 µs PLL relock.
	want := sim.Time(88*sim.Microsecond + power.PLLRelock)
	if effective != want {
		t.Fatalf("P0 effective at %v, want %v", effective, want)
	}
	if got := chip.Current(); got != tab.Max() {
		t.Fatalf("current = %v", got)
	}
}

func TestDownTransitionFast(t *testing.T) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := New(eng, 1, tab, power.DefaultModel(), tab.Max())
	var effective sim.Time
	chip.OnPStateChange(func(power.PState) { effective = eng.Now() })
	chip.SetPState(tab.Min())
	eng.Run(sim.Second)
	if effective != sim.Time(power.PLLRelock) {
		t.Fatalf("down transition at %v, want %v", effective, power.PLLRelock)
	}
}

func TestTransitionStallsExecution(t *testing.T) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := New(eng, 1, tab, power.DefaultModel(), tab.Max())
	core := chip.Core(0)
	var doneAt sim.Time
	// 3.1e6 cycles = 1 ms at P0.
	core.Submit(&Work{Cycles: 3_100_000, Prio: PrioTask, OnDone: func() { doneAt = eng.Now() }})
	// Mid-flight down-transition at t=0.5ms: 5µs stall, then the remaining
	// ~0.5ms of cycles run at 0.8 GHz (3.875x slower).
	eng.At(500*sim.Microsecond, func() { chip.SetPState(tab.Min()) })
	eng.Run(sim.Second)
	// Remaining cycles at switch: 3.1e6 - 0.5ms*3.1GHz = 1.55e6 cycles.
	// At 800 MHz that is 1.9375 ms; plus 0.5 ms elapsed plus 5 µs stall.
	want := sim.Time(500*sim.Microsecond + power.PLLRelock + 1_937_500)
	tol := sim.Time(2 * sim.Microsecond)
	if doneAt < want-tol || doneAt > want+tol {
		t.Fatalf("done at %v, want ~%v", doneAt, want)
	}
}

func TestPendingTargetAppliedAfterTransition(t *testing.T) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := New(eng, 1, tab, power.DefaultModel(), tab.Max())
	chip.SetPState(tab.Min())
	// Immediately re-request P0: must be honored after the down completes.
	chip.Boost()
	if chip.Target() != tab.Max() {
		t.Fatalf("latched target = %v, want P0", chip.Target())
	}
	eng.Run(sim.Second)
	if chip.Current() != tab.Max() {
		t.Fatalf("final state = %v, want P0", chip.Current())
	}
	if chip.Transitions() != 2 {
		t.Fatalf("transitions = %d, want 2", chip.Transitions())
	}
}

func TestRedundantSetPStateIsNoop(t *testing.T) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := New(eng, 1, tab, power.DefaultModel(), tab.Max())
	chip.Boost()
	eng.Run(sim.Millisecond)
	if chip.Transitions() != 0 {
		t.Fatalf("no-op transition executed %d times", chip.Transitions())
	}
}

func TestBusyTimeAndUtilization(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	core := chip.Core(0)
	// 2 ms of work on core 0.
	core.Submit(&Work{Cycles: 6_200_000, Prio: PrioTask})
	_, snap := chip.Utilization(nil, 0)
	eng.Run(10 * sim.Millisecond)
	util, _ := chip.Utilization(snap, 10*sim.Millisecond)
	if util[0] < 0.19 || util[0] > 0.21 {
		t.Fatalf("core0 util = %v, want ~0.2", util[0])
	}
	for i := 1; i < 4; i++ {
		if util[i] != 0 {
			t.Fatalf("core%d util = %v, want 0", i, util[i])
		}
	}
}

func TestBusyTimeIncludesInFlightSlice(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	core := chip.Core(0)
	core.Submit(&Work{Cycles: 31_000_000, Prio: PrioTask}) // 10 ms
	eng.Run(3 * sim.Millisecond)
	if got := core.BusyTime(); got != 3*sim.Millisecond {
		t.Fatalf("busy = %v, want 3ms", got)
	}
}

func TestEnergyAccountingOrdering(t *testing.T) {
	// All-busy at P0 must consume more energy than all-sleeping in C6
	// over the same interval.
	runFor := func(sleep bool) float64 {
		eng := sim.NewEngine()
		chip := newChip(eng)
		for _, core := range chip.Cores() {
			if sleep {
				core.SetIdleDecider(&fixedDecider{state: power.C6})
				core.Submit(&Work{Cycles: 310, Prio: PrioTask})
			} else {
				core.Submit(&Work{Cycles: 31 * 3_100_000, Prio: PrioTask}) // 10 ms busy
			}
		}
		eng.Run(10 * sim.Millisecond)
		return chip.EnergyJoules()
	}
	busy, idle := runFor(false), runFor(true)
	if busy <= idle*5 {
		t.Fatalf("busy energy %.4f J not ≫ sleeping energy %.4f J", busy, idle)
	}
	// Busy at P0 for 10 ms at ~80 W ≈ 0.8 J.
	if busy < 0.7 || busy > 0.9 {
		t.Fatalf("busy energy = %.4f J, want ~0.8", busy)
	}
}

func TestCStateResidencyAccounting(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	core := chip.Core(0)
	core.SetIdleDecider(&fixedDecider{state: power.C3})
	core.Submit(&Work{Cycles: 3100, Prio: PrioTask}) // 1 µs then sleep
	eng.Run(10 * sim.Millisecond)
	c3 := core.CTime(power.C3)
	if c3 < 9900*sim.Microsecond || c3 > 10*sim.Millisecond {
		t.Fatalf("C3 residency = %v, want ~10ms", c3)
	}
	if core.CEntries(power.C3) < 1 {
		t.Fatalf("C3 entries = %d", core.CEntries(power.C3))
	}
}

func TestResetStats(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	core := chip.Core(0)
	core.Submit(&Work{Cycles: 3_100_000, Prio: PrioTask})
	eng.Run(2 * sim.Millisecond)
	chip.ResetStats()
	if core.BusyTime() != 0 {
		t.Fatalf("busy after reset = %v", core.BusyTime())
	}
	if chip.EnergyJoules() != 0 {
		t.Fatalf("energy after reset = %v", chip.EnergyJoules())
	}
	eng.Run(4 * sim.Millisecond)
	if chip.EnergyJoules() <= 0 {
		t.Fatal("energy must accumulate after reset")
	}
}

func TestSubmitDuringWakeCoalesces(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	core := chip.Core(0)
	core.SetIdleDecider(&fixedDecider{state: power.C6})
	core.Submit(&Work{Cycles: 3100, Prio: PrioTask})
	eng.Run(10 * sim.Microsecond) // now sleeping in C6
	done := 0
	eng.At(sim.Millisecond, func() {
		core.Submit(&Work{Cycles: 3100, Prio: PrioTask, OnDone: func() { done++ }})
	})
	// Second submission lands mid-wake; both must complete, one wake only.
	eng.At(sim.Millisecond+5*sim.Microsecond, func() {
		core.Submit(&Work{Cycles: 3100, Prio: PrioTask, OnDone: func() { done++ }})
	})
	eng.Run(sim.Second)
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
	// Only one sleep episode existed: both submissions share a single wake.
	if core.Wakes.Value() != 1 {
		t.Fatalf("wakes = %d, want 1", core.Wakes.Value())
	}
}

func TestZeroCycleWorkClamped(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	done := false
	chip.Core(0).Submit(&Work{Cycles: 0, Prio: PrioTask, OnDone: func() { done = true }})
	eng.Run(sim.Millisecond)
	if !done {
		t.Fatal("zero-cycle work never completed")
	}
}

func TestOnDoneChaining(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	core := chip.Core(0)
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 10 {
			core.Submit(&Work{Cycles: 3100, Prio: PrioTask, OnDone: chain})
		}
	}
	core.Submit(&Work{Cycles: 3100, Prio: PrioTask, OnDone: chain})
	eng.Run(sim.Second)
	if count != 10 {
		t.Fatalf("chain count = %d", count)
	}
}

func TestPerCoreDomainsIndependent(t *testing.T) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := NewPerCore(eng, 4, tab, power.DefaultModel(), tab.Min())
	if !chip.PerCoreDVFS() || len(chip.Domains()) != 4 {
		t.Fatalf("domains = %d", len(chip.Domains()))
	}
	// Boost only core 1's domain.
	chip.Core(1).Domain().Boost()
	eng.Run(sim.Millisecond)
	if got := chip.Core(1).Domain().Current(); got != tab.Max() {
		t.Fatalf("core1 domain = %v, want P0", got)
	}
	for _, id := range []int{0, 2, 3} {
		if got := chip.Core(id).Domain().Current(); got != tab.Min() {
			t.Fatalf("core%d domain = %v, want untouched deepest", id, got)
		}
	}
	// Work on core 1 runs 3.875x faster than on core 0.
	var done0, done1 sim.Time
	chip.Core(0).Submit(&Work{Cycles: 800_000, Prio: PrioTask, OnDone: func() { done0 = eng.Now() }})
	chip.Core(1).Submit(&Work{Cycles: 800_000, Prio: PrioTask, OnDone: func() { done1 = eng.Now() }})
	eng.Run(sim.Second)
	if done1 >= done0 {
		t.Fatalf("boosted core not faster: %v vs %v", done1, done0)
	}
}

func TestPerCoreTransitionStallsOnlyOwnCore(t *testing.T) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := NewPerCore(eng, 2, tab, power.DefaultModel(), tab.Max())
	var done0, done1 sim.Time
	chip.Core(0).Submit(&Work{Cycles: 3_100_000, Prio: PrioTask, OnDone: func() { done0 = eng.Now() }})
	chip.Core(1).Submit(&Work{Cycles: 3_100_000, Prio: PrioTask, OnDone: func() { done1 = eng.Now() }})
	// Down-transition domain 0 mid-flight: only core 0 is stalled/slowed.
	eng.At(500*sim.Microsecond, func() { chip.Core(0).Domain().SetPState(tab.Min()) })
	eng.Run(sim.Second)
	if done1 != sim.Millisecond {
		t.Fatalf("core1 done at %v, want exactly 1ms (unaffected)", done1)
	}
	if done0 <= done1 {
		t.Fatalf("core0 done at %v, should be delayed by its own transition", done0)
	}
}

func TestChipWideSetPStateMovesAllDomains(t *testing.T) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := NewPerCore(eng, 3, tab, power.DefaultModel(), tab.Max())
	chip.SetPState(tab.Min())
	eng.Run(sim.Millisecond)
	for _, d := range chip.Domains() {
		if d.Current() != tab.Min() {
			t.Fatalf("domain %d = %v", d.ID(), d.Current())
		}
	}
	if chip.Transitions() != 3 {
		t.Fatalf("transitions = %d, want 3", chip.Transitions())
	}
}

func TestDomainStepTowardMin(t *testing.T) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := NewPerCore(eng, 2, tab, power.DefaultModel(), tab.Max())
	d := chip.Core(0).Domain()
	d.StepTowardMin(3)
	eng.Run(sim.Millisecond)
	if d.Current().Index != 3 {
		t.Fatalf("index = %d, want 3", d.Current().Index)
	}
}

func TestPerCoreEnergySplitsByDomain(t *testing.T) {
	// Two cores busy: one at P0, one at Pmin. Package power must sit
	// between all-P0 and all-Pmin.
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := NewPerCore(eng, 2, tab, power.DefaultModel(), tab.Max())
	chip.Core(1).Domain().SetPState(tab.Min())
	eng.Run(sim.Millisecond)
	chip.Core(0).Submit(&Work{Cycles: 1 << 40, Prio: PrioTask})
	chip.Core(1).Submit(&Work{Cycles: 1 << 40, Prio: PrioTask})
	eng.Run(2 * sim.Millisecond)
	m := power.DefaultModel()
	hi := 2 * m.CorePower(tab.Max(), power.C0, true, tab.Max().MilliVolts)
	lo := 2 * m.CorePower(tab.Min(), power.C0, true, tab.Min().MilliVolts)
	got := chip.PowerWatts()
	if got <= lo || got >= hi {
		t.Fatalf("mixed-domain power %.2f not in (%.2f, %.2f)", got, lo, hi)
	}
}

func TestKickIdleReselectsState(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	core := chip.Core(0)
	dec := &switchableDecider{state: power.C1}
	core.SetIdleDecider(dec)
	core.Submit(&Work{Cycles: 3100, Prio: PrioTask})
	eng.Run(10 * sim.Microsecond)
	if core.CState() != power.C1 {
		t.Fatalf("state = %v, want C1", core.CState())
	}
	// Governor policy changes; kick forces re-selection.
	dec.state = power.C6
	core.KickIdle()
	eng.Run(sim.Millisecond)
	if core.CState() != power.C6 {
		t.Fatalf("state after kick = %v, want C6", core.CState())
	}
	// Kicking a non-sleeping core is a no-op.
	wakes := core.Wakes.Value()
	chip.Core(1).KickIdle()
	eng.Run(2 * sim.Millisecond)
	if core.Wakes.Value() != wakes {
		t.Fatal("kick of awake core changed wake count")
	}
}

type switchableDecider struct{ state power.CState }

func (d *switchableDecider) SelectIdleState(*Core) power.CState { return d.state }
func (d *switchableDecider) OnWake(*Core, sim.Duration)         {}

func TestKickIdleDoesNotLoseQueuedWork(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	core := chip.Core(0)
	core.SetIdleDecider(&fixedDecider{state: power.C6})
	core.Submit(&Work{Cycles: 3100, Prio: PrioTask})
	eng.Run(10 * sim.Microsecond)
	// Work arrives and, in the same instant, a kick (IT_LOW racing rx).
	done := false
	eng.At(sim.Millisecond, func() {
		core.Submit(&Work{Cycles: 3100, Prio: PrioTask, OnDone: func() { done = true }})
		core.KickIdle()
	})
	eng.Run(sim.Second)
	if !done {
		t.Fatal("work lost around KickIdle")
	}
}

// Property: total busy time across cores never exceeds elapsed wall time
// times core count, and work submitted equals work completed plus queued.
func TestBusyConservationProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		eng := sim.NewEngine()
		chip := newChip(eng)
		completed := 0
		submitted := 0
		for i, r := range raw {
			if i > 60 {
				break
			}
			core := chip.Core(int(r) % 4)
			delay := sim.Duration(r%200) * 50 * sim.Microsecond
			eng.At(sim.Time(delay), func() {
				submitted++
				core.Submit(&Work{Cycles: int64(r%1000)*1000 + 1, Prio: PrioTask,
					OnDone: func() { completed++ }})
			})
		}
		eng.Run(100 * sim.Millisecond)
		var busy sim.Duration
		for _, c := range chip.Cores() {
			busy += c.BusyTime()
		}
		if busy > 4*100*sim.Millisecond {
			return false
		}
		return completed == submitted // everything small finishes in 100ms
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// With no trace attached, a P-state change formats no telemetry string:
// the change, through its voltage ramp and PLL relock, allocates nothing.
func TestUntracedPStateChangeDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := New(eng, 1, tab, power.DefaultModel(), tab.Max())
	up := false
	allocs := testing.AllocsPerRun(100, func() {
		if up = !up; up {
			chip.SetPState(tab.Min())
		} else {
			chip.SetPState(tab.Max())
		}
		for eng.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("untraced P-state change allocates %.1f times, want 0", allocs)
	}
}
