// Package telemetry is the simulator's observability substrate: a
// hierarchical metrics registry (counters, gauges, time-weighted state
// meters, latency histograms) that every simulated component registers
// into under stable dotted names, a periodic sampler over it, plus a
// typed, ring-buffered event trace with JSONL export.
//
// Determinism contract: telemetry is pure observation. Registering a
// metric stores a closure that reads component state; nothing is
// scheduled on the simulation engine and no random stream is consumed, so
// a telemetry-enabled run produces a Result byte-identical to the same
// run with telemetry disabled. The one engine user is Sampler, whose
// ticks only read; its caller subtracts them from any event count it
// reports (see Sampler). Export orders metrics by name and events
// by emission order, so dumps are byte-identical across processes and
// worker counts.
//
// Gating: the zero handle is "off". Every method on *Telemetry,
// *Registry, *EventTrace and *Histogram is nil-receiver safe, so
// instrumented components carry an always-valid handle and pay only a
// nil check when telemetry is disabled.
package telemetry

// Options configures a telemetry session.
type Options struct {
	// TraceCapacity bounds the event ring buffer; once full, the oldest
	// events are overwritten. Zero selects DefaultTraceCapacity.
	TraceCapacity int
}

// DefaultTraceCapacity is the event ring size when none is configured —
// large enough to hold every NCAP decision and C-state transition of a
// full-window run, small enough to keep memory bounded under fault storms.
const DefaultTraceCapacity = 1 << 16

// Telemetry bundles one run's registry and event trace. A nil *Telemetry
// is the disabled state: Registry() and Trace() return nil handles whose
// methods all no-op.
type Telemetry struct {
	reg   *Registry
	trace *EventTrace
}

// New creates an enabled telemetry session.
func New(opts Options) *Telemetry {
	cap := opts.TraceCapacity
	if cap <= 0 {
		cap = DefaultTraceCapacity
	}
	return &Telemetry{reg: NewRegistry(), trace: NewEventTrace(cap)}
}

// Enabled reports whether telemetry is collecting.
func (t *Telemetry) Enabled() bool { return t != nil }

// Registry returns the metrics registry (nil when disabled).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Trace returns the event trace (nil when disabled).
func (t *Telemetry) Trace() *EventTrace {
	if t == nil {
		return nil
	}
	return t.trace
}
