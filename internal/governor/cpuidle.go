package governor

import (
	"ncap/internal/cpu"
	"ncap/internal/power"
	"ncap/internal/sim"
	"ncap/internal/stats"
)

// TimerHint reports the delay until the next kernel timer pinned to a
// core, or a negative value when none is pending. The menu governor never
// predicts an idle period longer than this bound.
type TimerHint func(coreID int) sim.Duration

const menuHistory = 8

// residencyFactor is the menu governor's pessimism multiplier: a state is
// chosen only when the predicted idle interval covers several times its
// target residency, mirroring the kernel's performance-multiplier scaling.
// It is what parks cores in shallow (expensive, full-voltage C1) states
// under choppy OLDI traffic — the Sec. 3 inefficiency NCAP sidesteps.
const residencyFactor = 3

// Menu is the default Linux cpuidle governor: it predicts the next idle
// interval from the next-timer bound and recent idle history, then picks
// the deepest C-state whose target residency fits the prediction.
//
// NCAP can disable the governor during request bursts (Sec. 4.3); while
// disabled, idle cores merely halt in C1 rather than entering deep sleep.
type Menu struct {
	chip    *cpu.Chip
	hint    TimerHint
	enabled bool
	coreOff []bool // per-core disable (multi-queue NCAP, Sec. 7)
	perCore []menuCoreState

	// Selections counts idle decisions per chosen state index; Disabled
	// counts decisions made while NCAP had the governor off.
	Selections map[power.CState]*stats.Counter
	Disabled   stats.Counter
}

type menuCoreState struct {
	recent [menuHistory]sim.Duration
	n      int // valid entries
	next   int // ring cursor
}

// NewMenu builds a menu governor. hint may be nil (no timer bound).
func NewMenu(chip *cpu.Chip, hint TimerHint) *Menu {
	m := &Menu{
		chip:       chip,
		hint:       hint,
		enabled:    true,
		coreOff:    make([]bool, len(chip.Cores())),
		perCore:    make([]menuCoreState, len(chip.Cores())),
		Selections: map[power.CState]*stats.Counter{},
	}
	for _, s := range []power.CState{power.C0, power.C1, power.C3, power.C6} {
		m.Selections[s] = &stats.Counter{}
	}
	return m
}

// Enable re-enables deep-sleep selection (NCAP does this on the first
// IT_LOW interrupt).
func (m *Menu) Enable() { m.enabled = true }

// Disable restricts idle cores to a C1 halt (NCAP does this on IT_HIGH to
// prevent short C-state transitions during a BW(Rx) surge).
func (m *Menu) Disable() { m.enabled = false }

// Enabled reports whether deep-sleep selection is active globally.
func (m *Menu) Enabled() bool { return m.enabled }

// DisableCore restricts one core to a C1 halt — the per-core governor
// control of the multi-queue extension (Sec. 7): a burst on queue q
// disables deep sleep only for q's target core.
func (m *Menu) DisableCore(id int) { m.coreOff[id] = true }

// EnableCore re-enables deep-sleep selection for one core.
func (m *Menu) EnableCore(id int) { m.coreOff[id] = false }

// CoreEnabled reports whether the core's deep-sleep selection is active.
func (m *Menu) CoreEnabled(id int) bool { return m.enabled && !m.coreOff[id] }

// SelectIdleState implements cpu.IdleDecider.
func (m *Menu) SelectIdleState(c *cpu.Core) power.CState {
	if !m.enabled || m.coreOff[c.ID()] {
		m.Disabled.Inc()
		m.Selections[power.C1].Inc()
		return power.C1
	}
	predicted := m.predict(c.ID())
	choice := power.C0
	for _, info := range m.chip.CStates() {
		if info.Residency*residencyFactor <= predicted {
			choice = info.State
		}
	}
	// Always at least halt: C0 polling burns near-busy power, so the
	// kernel idles in C1 whenever a cpuidle driver is present.
	if choice == power.C0 {
		choice = power.C1
	}
	m.Selections[choice].Inc()
	return choice
}

// OnWake implements cpu.IdleDecider, feeding the prediction history. While
// NCAP has the governor disabled the kernel never invokes it, so the short
// intra-burst halts do not pollute the history — this is why a re-enabled
// menu predicts the long inter-burst gap correctly and reaches C6, while a
// plain perf.idle/ond.idle menu, whose history fills with the bursts' short
// idles, pessimistically parks cores in C1 at full voltage (Sec. 3's
// "short transitions hurt energy efficiency").
func (m *Menu) OnWake(c *cpu.Core, slept sim.Duration) {
	if !m.enabled || m.coreOff[c.ID()] {
		return
	}
	s := &m.perCore[c.ID()]
	s.recent[s.next] = slept
	s.next = (s.next + 1) % menuHistory
	if s.n < menuHistory {
		s.n++
	}
}

// shortIdle classifies history entries for the typical-interval detector:
// intervals that would not justify the deepest state even optimistically.
const shortIdle = 500 * sim.Microsecond

// predict estimates the coming idle interval — a compact version of the
// kernel menu's get_typical_interval. When short idles dominate the
// recent history (choppy request processing), it pessimistically predicts
// the shortest observed interval, which parks the core in a shallow
// full-voltage state; otherwise it takes the median, letting cores reach
// C6 across long inter-burst gaps. The next-timer deadline always bounds
// the prediction.
func (m *Menu) predict(coreID int) sim.Duration {
	bound := sim.Duration(-1)
	if m.hint != nil {
		bound = m.hint(coreID)
	}
	s := &m.perCore[coreID]
	if s.n == 0 {
		if bound >= 0 {
			return bound
		}
		return sim.Second // no information: assume long idle
	}
	// Insertion-sort the history into a stack array: at most menuHistory
	// values, and no allocation on this per-idle path.
	var vals [menuHistory]sim.Duration
	for i, v := range s.recent[:s.n] {
		j := i
		for ; j > 0 && vals[j-1] > v; j-- {
			vals[j] = vals[j-1]
		}
		vals[j] = v
	}
	shorts := 0
	for _, v := range vals[:s.n] {
		if v < shortIdle {
			shorts++
		}
	}
	var pred sim.Duration
	if 2*shorts >= s.n {
		pred = vals[0] // choppy: assume the worst
	} else {
		pred = vals[s.n/2]
	}
	if bound >= 0 && bound < pred {
		pred = bound
	}
	return pred
}

// Ladder is the simpler cpuidle governor: it deepens one state at a time
// while sleeps keep exceeding the next state's residency and backs off
// after a short sleep.
type Ladder struct {
	chip    *cpu.Chip
	enabled bool
	level   []int // per-core index into chip.CStates(); -1 = C1 only
}

// NewLadder builds a ladder governor.
func NewLadder(chip *cpu.Chip) *Ladder {
	return &Ladder{
		chip:    chip,
		enabled: true,
		level:   make([]int, len(chip.Cores())),
	}
}

// Enable and Disable mirror the menu governor's NCAP hooks.
func (l *Ladder) Enable() { l.enabled = true }

// Disable restricts idle cores to C1.
func (l *Ladder) Disable() { l.enabled = false }

// SelectIdleState implements cpu.IdleDecider.
func (l *Ladder) SelectIdleState(c *cpu.Core) power.CState {
	if !l.enabled {
		return power.C1
	}
	states := l.chip.CStates()
	lvl := l.level[c.ID()]
	if lvl < 0 {
		lvl = 0
	}
	if lvl >= len(states) {
		lvl = len(states) - 1
	}
	return states[lvl].State
}

// OnWake implements cpu.IdleDecider: promote after a long-enough sleep,
// demote after a sleep shorter than the current state's residency.
func (l *Ladder) OnWake(c *cpu.Core, slept sim.Duration) {
	states := l.chip.CStates()
	lvl := l.level[c.ID()]
	if lvl > len(states)-1 {
		lvl = len(states) - 1
	}
	cur := states[lvl]
	switch {
	case slept < cur.Residency && lvl > 0:
		l.level[c.ID()] = lvl - 1
	case lvl+1 < len(states) && slept >= states[lvl+1].Residency:
		l.level[c.ID()] = lvl + 1
	}
}
