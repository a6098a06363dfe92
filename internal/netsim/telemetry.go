package netsim

import (
	"ncap/internal/telemetry"
)

// RegisterTelemetry registers the link's traffic and fault counters under
// prefix and attaches the event trace for fault events. Safe to call with
// nil handles (telemetry off).
func (l *Link) RegisterTelemetry(reg *telemetry.Registry, tr *telemetry.EventTrace, prefix string) {
	l.trace = tr
	l.name = prefix
	reg.Counter(prefix+".bytes", l.Bytes.Value)
	reg.Counter(prefix+".drops", l.Drops.Value)
	reg.Gauge(prefix+".queued_bytes", func() float64 { return float64(l.QueuedBytes()) })
	if l.inj != nil {
		reg.Counter(prefix+".fault.drops", l.FaultDrops.Value)
		reg.Counter(prefix+".fault.corrupts", l.FaultCorrupts.Value)
		reg.Counter(prefix+".fault.dups", l.FaultDups.Value)
		reg.Counter(prefix+".fault.delays", l.FaultDelays.Value)
	}
}

// emitFault records a fault-injection event (nil-safe when telemetry off).
func (l *Link) emitFault(kind string, v float64) {
	l.trace.Emit(telemetry.Event{
		T: l.eng.Now(), Comp: "fault", Kind: kind, V: v, Detail: l.name,
	})
}
