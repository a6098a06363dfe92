package power

import (
	"fmt"

	"ncap/internal/sim"
)

// EnergyMeter integrates piecewise-constant power over simulated time.
// Components call SetPower whenever their draw changes; the meter charges
// the elapsed interval at the previous level.
type EnergyMeter struct {
	last   sim.Time
	watts  float64
	joules float64
}

// NewEnergyMeter returns a meter starting at time start with zero draw.
func NewEnergyMeter(start sim.Time) *EnergyMeter {
	return &EnergyMeter{last: start}
}

// SetPower accrues energy at the previous power level through now, then
// switches to watts.
func (e *EnergyMeter) SetPower(now sim.Time, watts float64) {
	e.accrue(now)
	e.watts = watts
}

// Joules returns the energy accumulated through now. It only reads: the
// integration intervals end where SetPower and Reset put them, so a
// mid-run reader (an audit epoch, a telemetry gauge) cannot split one and
// move a later reading's last bits.
func (e *EnergyMeter) Joules(now sim.Time) float64 {
	e.checkTime(now)
	return e.joules + e.watts*(now-e.last).Seconds()
}

// Watts returns the current power level.
func (e *EnergyMeter) Watts() float64 { return e.watts }

// Reset zeroes accumulated energy (keeping the current power level) — used
// at the warmup/measurement boundary.
func (e *EnergyMeter) Reset(now sim.Time) {
	e.accrue(now)
	e.joules = 0
}

func (e *EnergyMeter) accrue(now sim.Time) {
	e.checkTime(now)
	e.joules += e.watts * (now - e.last).Seconds()
	e.last = now
}

func (e *EnergyMeter) checkTime(now sim.Time) {
	if now < e.last {
		panic(fmt.Sprintf("power: EnergyMeter time went backwards (%d < %d)", now, e.last))
	}
}
