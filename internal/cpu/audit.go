// Residency and energy audit: per-core C-state residency and per-domain
// P-state residency must each sum to wall-clock time since the last stats
// reset, the state meters must agree with the live hardware state (the
// check that catches a dropped Transition call — the sum alone stays
// correct while the meter accrues into a stale state), and package power
// must stay within the model's physical bound. Package power must also be
// exactly what a fresh pricing of every core's live state sums to, which
// catches a state change that skipped its core's re-price.
package cpu

import (
	"fmt"
	"math"

	"ncap/internal/audit"
	"ncap/internal/power"
	"ncap/internal/sim"
)

// auditCStates lists every state a core meter can accrue, C0 included.
var auditCStates = []power.CState{power.C0, power.C1, power.C3, power.C6}

// AuditAccounting verifies the residency and package-power invariants.
// since is the time of the most recent ResetStats (0 before the
// measurement boundary).
func (c *Chip) AuditAccounting(a *audit.Auditor, since sim.Time) {
	now := c.eng.Now()
	window := int64(now - since)
	want := c.model.UncoreW
	for _, core := range c.cores {
		want += c.model.CorePower(core.dom.cur, core.cstate, core.running != nil, core.entryMV)
	}
	if got := c.meter.Watts(); math.Float64bits(got) != math.Float64bits(want) {
		a.Report("cpu.chip", "package-power", int64(now),
			fmt.Sprintf("%v W", want), fmt.Sprintf("%v W", got))
	}
	for _, core := range c.cores {
		comp := fmt.Sprintf("cpu.core%d", core.id)
		var sum sim.Duration
		for _, s := range auditCStates {
			sum += core.cMeter.Time(now, int(s))
		}
		a.CheckInt(comp, "cstate-residency-sum", int64(now), window, int64(sum))
		a.CheckInt(comp, "cstate-meter-state", int64(now),
			int64(core.cstate), int64(core.cMeter.State()))
	}
	for _, d := range c.domains {
		comp := fmt.Sprintf("cpu.domain%d", d.id)
		var sum sim.Duration
		for i := 0; i < c.table.Len(); i++ {
			sum += d.pstateMeter.Time(now, i)
		}
		a.CheckInt(comp, "pstate-residency-sum", int64(now), window, int64(sum))
		a.CheckInt(comp, "pstate-meter-state", int64(now),
			int64(d.cur.Index), int64(d.pstateMeter.State()))
	}
}

// MaxPowerWatts returns the model's upper bound on package power: every
// core busy at P0. The energy audit bounds each epoch's accumulated
// energy by this power times the epoch length.
func (c *Chip) MaxPowerWatts() float64 {
	p0 := c.table.Max()
	total := c.model.UncoreW
	for range c.cores {
		total += c.model.CorePower(p0, power.C0, true, p0.MilliVolts)
	}
	return total
}
