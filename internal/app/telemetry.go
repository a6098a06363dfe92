package app

import (
	"ncap/internal/telemetry"
)

// RegisterTelemetry registers the client's request accounting under
// prefix and attaches a live round-trip latency histogram fed by the
// same Record calls as the exact recorder. Safe to call with nil handles
// (telemetry off).
func (c *Client) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".sent", c.Sent.Value)
	reg.Counter(prefix+".completed", c.Completed.Value)
	reg.Counter(prefix+".retransmits", c.Retransmits.Value)
	reg.Counter(prefix+".abandoned", c.Abandoned.Value)
	reg.Counter(prefix+".corrupt_drops", c.CorruptDrops.Value)
	reg.Counter(prefix+".deadline_exceeded", c.DeadlineExceeded.Value)
	reg.Counter(prefix+".budget_denied", c.BudgetDenied.Value)
	reg.Counter(prefix+".breaker_dropped", c.BreakerDropped.Value)
	reg.Gauge(prefix+".outstanding", func() float64 { return float64(c.outstanding) })
	c.latHist = reg.Histogram(prefix + ".rtt_ns")
}

// RegisterTelemetry registers the server's request accounting under
// prefix and attaches the event trace the admission layer emits its
// typed shed/reject events into. Safe to call with nil handles
// (telemetry off).
func (s *Server) RegisterTelemetry(reg *telemetry.Registry, tr *telemetry.EventTrace, prefix string) {
	s.trace = tr
	reg.Counter(prefix+".served", s.Served.Value)
	reg.Counter(prefix+".ignored", s.Ignored.Value)
	reg.Counter(prefix+".disk_reads", s.DiskReads.Value)
	reg.Counter(prefix+".dup_suppressed", s.DupSuppressed.Value)
	reg.Counter(prefix+".dup_resent", s.DupResent.Value)
	reg.Counter(prefix+".rejected", s.Rejected.Value)
	reg.Counter(prefix+".shed_deadline", s.ShedDeadline.Value)
	reg.Counter(prefix+".shed_codel", s.ShedCoDel.Value)
	reg.Gauge(prefix+".inflight", func() float64 { return float64(s.Inflight) })
	reg.Gauge(prefix+".queued", func() float64 { return float64(s.QueueLen()) })
}
