package cpu

import (
	"fmt"

	"ncap/internal/power"
	"ncap/internal/sim"
	"ncap/internal/stats"
	"ncap/internal/telemetry"
)

// IdleDecider chooses a sleep state when a core runs out of work — the
// cpuidle governor hook. Implementations live in internal/governor.
type IdleDecider interface {
	// SelectIdleState returns the C-state to enter (C0 means keep polling
	// the run queue in the kernel idle loop).
	SelectIdleState(c *Core) power.CState
	// OnWake reports how long the core actually slept, for the governor's
	// prediction history.
	OnWake(c *Core, slept sim.Duration)
}

// Core is one processor core. It executes prioritized Work, sleeps via
// C-states when idle, and stalls during its DVFS domain's P-state
// transitions.
type Core struct {
	chip *Chip
	dom  *Domain
	id   int

	queues  [numPrios][]*Work
	running *Work
	runFrom sim.Time // when the current execution slice started

	// Handles, not *sim.Event: the engine pools events, so only a Handle
	// can be retained across fires without risking aliasing a reused one.
	doneEv sim.Handle
	wakeEv sim.Handle

	cstate    power.CState
	waking    bool
	stalled   bool
	lastSlept sim.Duration // duration of the sleep being exited (for OnWake)
	sleepFrom sim.Time
	entryMV   int // voltage when C1 was entered (C1 retains it)
	decider   IdleDecider

	busy   sim.Duration // accumulated execution time (excludes poll/sleep)
	cMeter *stats.StateMeter

	// Wakes counts sleep→active transitions; Preempts counts priority
	// preemptions; Dispatched counts work items started.
	Wakes      stats.Counter
	Preempts   stats.Counter
	Dispatched stats.Counter
}

// ID returns the core's index within its chip.
func (c *Core) ID() int { return c.id }

// Chip returns the owning chip.
func (c *Core) Chip() *Chip { return c.chip }

// Domain returns the core's DVFS domain.
func (c *Core) Domain() *Domain { return c.dom }

// SetIdleDecider installs the cpuidle governor hook. A nil decider keeps
// the core polling in C0 when idle (C-states disabled).
func (c *Core) SetIdleDecider(d IdleDecider) { c.decider = d }

// IdleDecider returns the installed cpuidle hook (nil when disabled).
func (c *Core) IdleDecider() IdleDecider { return c.decider }

// CState returns the core's current sleep state (C0 while executing,
// polling, waking or stalled).
func (c *Core) CState() power.CState { return c.cstate }

// Busy reports whether the core is executing work right now.
func (c *Core) Busy() bool { return c.running != nil }

// Sleeping reports whether the core is in a C-state deeper than C0.
func (c *Core) Sleeping() bool { return c.cstate != power.C0 }

// QueueLen returns the number of pending work items at a priority
// (excluding the running item).
func (c *Core) QueueLen(p Priority) int { return len(c.queues[p]) }

// BusyTime returns total execution time including the in-flight slice —
// the utilization numerator the ondemand governor samples.
func (c *Core) BusyTime() sim.Duration {
	t := c.busy
	if c.running != nil {
		t += c.chip.eng.Now() - c.runFrom
	}
	return t
}

// CTime returns time accrued in the given C-state.
func (c *Core) CTime(s power.CState) sim.Duration {
	return c.cMeter.Time(c.chip.eng.Now(), int(s))
}

// CEntries returns how many times the given C-state was entered.
func (c *Core) CEntries(s power.CState) int { return c.cMeter.Entries(int(s)) }

// ResetStats zeroes the accounting at the warmup boundary.
func (c *Core) ResetStats() {
	c.busy = 0
	if c.running != nil {
		c.runFrom = c.chip.eng.Now()
	}
	c.cMeter.Reset(c.chip.eng.Now())
	c.Wakes.Reset()
	c.Preempts.Reset()
	c.Dispatched.Reset()
}

// Submit queues work on the core, waking it or preempting lower-priority
// execution as needed.
func (c *Core) Submit(w *Work) {
	if w == nil || w.Prio < 0 || w.Prio >= numPrios {
		panic(fmt.Sprintf("cpu: bad work submission %+v", w))
	}
	if w.Cycles <= 0 {
		w.Cycles = 1
	}
	c.queues[w.Prio] = append(c.queues[w.Prio], w)

	switch {
	case c.Sleeping():
		c.beginWake()
	case c.waking || c.stalled:
		// Will dispatch when the wake or stall completes.
	case c.running != nil && w.Prio < c.running.Prio:
		c.pauseRunning(true)
		c.dispatch()
	case c.running == nil:
		c.dispatch()
	}
}

// beginWake starts the C-state exit sequence (hardware exit latency plus
// the MONITOR/MWAIT kernel path).
func (c *Core) beginWake() {
	if c.waking {
		return
	}
	now := c.chip.eng.Now()
	slept := now - c.sleepFrom
	prev := c.cstate
	exit := c.chip.exitLatency(prev)
	c.waking = true
	c.cstate = power.C0
	c.cMeter.Transition(now, int(power.C0))
	c.chip.powerChanged()
	c.Wakes.Inc()
	if c.chip.trace != nil {
		c.chip.trace.Emit(telemetry.Event{
			T: now, Comp: "cpu", Kind: "cstate.exit", Core: c.id,
			V: float64(slept), Detail: prev.String(),
		})
	}
	c.lastSlept = slept
	c.wakeEv = c.chip.eng.ScheduleArg(exit+power.MwaitWakeOverhead, coreFinishWake, c)
}

// coreFinishWake completes a C-state exit (arg is the *Core).
func coreFinishWake(arg any) {
	c := arg.(*Core)
	c.waking = false
	if c.decider != nil {
		c.decider.OnWake(c, c.lastSlept)
	}
	if !c.stalled {
		c.dispatch()
	}
}

// KickIdle forces a sleeping core to exit its C-state and re-enter the
// idle loop, re-running the governor's selection — the cpuidle framework's
// wake_up_all_idle_cpus() IPI issued when governor state changes. NCAP's
// IT_LOW path uses this so that re-enabling the menu governor moves
// already-parked cores from their C1 halt into the proper deep state.
func (c *Core) KickIdle() {
	if c.Sleeping() {
		c.beginWake()
	}
}

// dispatch starts the highest-priority pending work, or settles into an
// idle state when there is none.
func (c *Core) dispatch() {
	if c.running != nil || c.stalled || c.waking || c.Sleeping() {
		return
	}
	for p := Priority(0); p < numPrios; p++ {
		if len(c.queues[p]) > 0 {
			w := c.queues[p][0]
			copy(c.queues[p], c.queues[p][1:])
			c.queues[p] = c.queues[p][:len(c.queues[p])-1]
			c.start(w)
			return
		}
	}
	c.enterIdle()
}

func (c *Core) start(w *Work) {
	now := c.chip.eng.Now()
	c.running = w
	c.runFrom = now
	c.Dispatched.Inc()
	c.doneEv = c.chip.eng.ScheduleArg(cyclesToDur(w.Cycles, c.dom.cur.MHz), coreComplete, c)
	c.chip.powerChanged()
}

// coreComplete finishes the running work item (arg is the *Core).
func coreComplete(arg any) { arg.(*Core).complete() }

func (c *Core) complete() {
	now := c.chip.eng.Now()
	w := c.running
	c.busy += now - c.runFrom
	c.running = nil
	c.doneEv = sim.Handle{}
	c.chip.powerChanged()
	if w.OnDone != nil {
		w.OnDone()
	}
	c.dispatch()
}

// pauseRunning charges the elapsed slice, recomputes the remaining budget,
// and (optionally) requeues the item at the front of its priority class.
func (c *Core) pauseRunning(requeue bool) {
	if c.running == nil {
		return
	}
	now := c.chip.eng.Now()
	w := c.running
	elapsed := now - c.runFrom
	c.busy += elapsed
	w.Cycles -= durToCycles(elapsed, c.dom.cur.MHz)
	if w.Cycles <= 0 {
		w.Cycles = 1 // rounding guard: finish on the next slice
	}
	c.doneEv.Cancel()
	c.doneEv = sim.Handle{}
	c.running = nil
	if requeue {
		c.queues[w.Prio] = append([]*Work{w}, c.queues[w.Prio]...)
		c.Preempts.Inc()
	}
	c.chip.powerChanged()
}

// enterIdle consults the cpuidle governor once per idle episode.
func (c *Core) enterIdle() {
	target := power.C0
	if c.decider != nil {
		target = c.decider.SelectIdleState(c)
	}
	if target == power.C0 {
		return // poll in the kernel idle loop
	}
	now := c.chip.eng.Now()
	c.cstate = target
	c.sleepFrom = now
	c.entryMV = c.dom.cur.MilliVolts
	c.cMeter.Transition(now, int(target))
	c.chip.powerChanged()
	if c.chip.trace != nil {
		c.chip.trace.Emit(telemetry.Event{
			T: now, Comp: "cpu", Kind: "cstate.enter", Core: c.id,
			V: float64(target), Detail: target.String(),
		})
	}
}

// beginStall pauses execution for a PLL relock (chip-wide P transition).
func (c *Core) beginStall() {
	if c.stalled {
		return
	}
	c.stalled = true
	c.pauseRunning(true)
}

// endStall resumes execution after the PLL relock.
func (c *Core) endStall() {
	c.stalled = false
	if !c.waking && !c.Sleeping() {
		c.dispatch()
	}
}

// draw reports the core's current power-relevant state.
func (c *Core) draw() power.CoreDraw {
	return power.CoreDraw{C: c.cstate, Busy: c.running != nil, EntryMV: c.entryMV}
}

// cyclesToDur converts a cycle budget to wall time at freq MHz (ceil).
func cyclesToDur(cycles int64, mhz int) sim.Duration {
	if cycles <= 0 {
		return 1
	}
	d := (cycles*1000 + int64(mhz) - 1) / int64(mhz)
	if d <= 0 {
		d = 1
	}
	return sim.Duration(d)
}

// durToCycles converts elapsed wall time to consumed cycles at freq MHz.
func durToCycles(d sim.Duration, mhz int) int64 {
	return int64(d) * int64(mhz) / 1000
}
