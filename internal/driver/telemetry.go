package driver

import (
	"ncap/internal/telemetry"
)

// RegisterTelemetry registers the driver's counters under prefix (NAPI
// poll batches, delivered packets, power actions taken, ncap.sw decision
// counters when active) and attaches the event trace for boost/stepdown
// events. Metrics are observable closures over live state. Safe to call
// with nil handles (telemetry off).
func (d *Driver) RegisterTelemetry(reg *telemetry.Registry, tr *telemetry.EventTrace, prefix string) {
	d.trace = tr
	reg.Counter(prefix+".polls", d.Polls.Value)
	reg.Counter(prefix+".delivered", d.Delivered.Value)
	reg.Counter(prefix+".boosts", d.Boosts.Value)
	reg.Counter(prefix+".stepdowns", d.StepDowns.Value)
	if d.swDec != nil {
		reg.Counter(prefix+".sw.highs", d.swDec.Highs.Value)
		reg.Counter(prefix+".sw.lows", d.swDec.Lows.Value)
		reg.Counter(prefix+".sw.wakes", d.swDec.Wakes.Value)
		reg.Counter(prefix+".sw.matches", d.swMon.Matches.Value)
		reg.Counter(prefix+".sw.misses", d.swMon.Misses.Value)
	}
}

// emit records a driver power-action event (nil-safe when telemetry off).
func (d *Driver) emit(kind string, coreID int) {
	d.trace.Emit(telemetry.Event{
		T: d.k.Engine().Now(), Comp: "driver", Kind: kind, Core: coreID,
	})
}
