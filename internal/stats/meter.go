package stats

import (
	"fmt"

	"ncap/internal/sim"
)

// StateMeter accrues time spent in each of a small set of integer-labeled
// states (C-states, P-state indices, busy/idle). Transitions are piecewise
// constant: the meter charges the interval since the last transition to the
// outgoing state. Labels are small non-negative integers: the tallies are a
// slice indexed by label, grown the first time a state is entered.
type StateMeter struct {
	last  sim.Time
	state int
	tally []stateTally
}

type stateTally struct {
	accrued sim.Duration
	entries int
}

// NewStateMeter returns a meter that is in initial state at time start.
func NewStateMeter(start sim.Time, initial int) *StateMeter {
	m := &StateMeter{last: start, state: initial}
	m.enter(initial)
	return m
}

// enter counts an entry into state, growing the tallies to hold it.
func (m *StateMeter) enter(state int) {
	if state < 0 {
		panic(fmt.Sprintf("stats: StateMeter state label %d is negative", state))
	}
	if state >= len(m.tally) {
		m.tally = append(m.tally, make([]stateTally, state+1-len(m.tally))...)
	}
	m.tally[state].entries++
}

// Transition charges the elapsed interval to the current state and switches
// to next. Transitions must be reported in nondecreasing time order.
func (m *StateMeter) Transition(now sim.Time, next int) {
	if now < m.last {
		panic(fmt.Sprintf("stats: StateMeter time went backwards (%d < %d)", now, m.last))
	}
	m.tally[m.state].accrued += now - m.last
	m.last = now
	if next != m.state {
		m.enter(next)
	}
	m.state = next
}

// State returns the current state label.
func (m *StateMeter) State() int { return m.state }

// Time returns the total time accrued in state, charging the open interval
// through now. A state never entered reads 0.
func (m *StateMeter) Time(now sim.Time, state int) sim.Duration {
	var t sim.Duration
	if state < len(m.tally) {
		t = m.tally[state].accrued
	}
	if state == m.state && now > m.last {
		t += now - m.last
	}
	return t
}

// Entries returns how many times state was entered.
func (m *StateMeter) Entries(state int) int {
	if state < len(m.tally) {
		return m.tally[state].entries
	}
	return 0
}

// Reset zeroes the accrued times and entry counts in place (keeping the
// current state, counted as entered once) — used at the warmup/measurement
// boundary.
func (m *StateMeter) Reset(now sim.Time) {
	clear(m.tally)
	m.tally[m.state].entries = 1
	m.last = now
}

// Counter is a plain monotonic event counter with a resettable epoch, for
// drops, interrupts, wakeups and similar tallies.
type Counter struct {
	total int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.total += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.total++ }

// Value returns the current tally.
func (c *Counter) Value() int64 { return c.total }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.total = 0 }
