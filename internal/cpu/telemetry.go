package cpu

import (
	"fmt"
	"strings"

	"ncap/internal/power"
	"ncap/internal/sim"
	"ncap/internal/telemetry"
)

// RegisterTelemetry registers the chip's metrics under prefix (per-core
// C-state residency and entry counts, busy time, frequency, scheduler
// counters; chip-level frequency, energy and P-state transitions) and
// attaches the event trace for P/C-state transition events. Metrics are
// observable — registration stores closures over live chip state and
// costs nothing on the simulation hot path. Safe to call with nil handles
// (telemetry off).
func (c *Chip) RegisterTelemetry(reg *telemetry.Registry, tr *telemetry.EventTrace, prefix string) {
	c.trace = tr
	reg.Gauge(prefix+".freq_mhz", func() float64 { return float64(c.FreqMHz()) })
	reg.Gauge(prefix+".energy_j", c.EnergyJoules)
	reg.Gauge(prefix+".power_w", c.PowerWatts)
	reg.Counter(prefix+".pstate.transitions", c.Transitions)
	for _, core := range c.cores {
		core.registerTelemetry(reg, fmt.Sprintf("%s.core%d", prefix, core.id))
	}
}

func (c *Core) registerTelemetry(reg *telemetry.Registry, prefix string) {
	reg.Meter(prefix+".busy_ns", c.BusyTime)
	reg.Gauge(prefix+".freq_mhz", func() float64 { return float64(c.Domain().Current().MHz) })
	reg.Counter(prefix+".wakes", c.Wakes.Value)
	reg.Counter(prefix+".preempts", c.Preempts.Value)
	reg.Counter(prefix+".dispatched", c.Dispatched.Value)
	for _, s := range []power.CState{power.C1, power.C3, power.C6} {
		s := s
		name := prefix + ".cstate." + strings.ToLower(s.String())
		reg.Meter(name+".residency_ns", func() sim.Duration { return c.CTime(s) })
		reg.Counter(name+".entries", func() int64 { return int64(c.CEntries(s)) })
	}
}
