package governor

import (
	"strings"

	"ncap/internal/power"
	"ncap/internal/telemetry"
)

// RegisterTelemetry registers the ondemand governor's decision counters
// under prefix. Safe to call with a nil registry (telemetry off).
func (o *Ondemand) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".invocations", o.Invocations.Value)
	reg.Counter(prefix+".raises", o.Raises.Value)
	reg.Counter(prefix+".lowers", o.Lowers.Value)
}

// RegisterTelemetry registers the menu governor's selection counters
// under prefix — one counter per selectable C-state plus the count of
// decisions made while NCAP had the governor disabled. Safe to call with
// a nil registry (telemetry off).
func (m *Menu) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	for _, s := range []power.CState{power.C0, power.C1, power.C3, power.C6} {
		ctr := &m.Selections[s]
		reg.Counter(prefix+".select."+strings.ToLower(s.String()), ctr.Value)
	}
	reg.Counter(prefix+".disabled_decisions", m.Disabled.Value)
}
