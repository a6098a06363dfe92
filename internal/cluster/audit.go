package cluster

import (
	"fmt"

	"ncap/internal/audit"
	"ncap/internal/netsim"
	"ncap/internal/sim"
)

// DefaultAuditEpoch is the period of the audit ticker: residency, energy
// and event-queue integrity are re-checked this often while the
// simulation runs (conservation and leak checks need quiescence and run
// only in the post-run finalizer).
const DefaultAuditEpoch = 10 * sim.Millisecond

// auditGrace is the extra simulated time the finalizer grants after the
// drain for the last in-flight work to terminate: the worst client RTO
// chain (initial RTO, MaxRetries backoffs capped at 8×RTO) completes well
// inside one simulated second. The Result is collected before this runs,
// so the grace window cannot perturb it.
const auditGrace = 1 * sim.Second

// auditState hangs off a Cluster when Config.Audit (or the audit build
// tag) is set.
type auditState struct {
	a   *audit.Auditor
	pkt *netsim.PacketAudit

	ticker *sim.Ticker
	ticks  uint64 // audit epoch events fired, subtracted from Result.Events

	cursor  uint64   // last observed wheel cursor (monotonicity check)
	resetAt sim.Time // last stats-reset boundary (residency window start)
	lastE   float64  // energy at the previous epoch
	lastT   sim.Time // time of the previous epoch
	maxW    float64  // model's package-power upper bound
}

// enableAudit assembles the auditor and wires every component. Called at
// the end of New, once the topology exists.
func (c *Cluster) enableAudit() {
	var maxW float64
	for _, n := range c.nodes {
		maxW += n.Chip.MaxPowerWatts()
	}
	ad := &auditState{a: audit.New(), maxW: maxW}
	ad.pkt = netsim.NewPacketAudit(c.eng, ad.a, c.pkts)
	for i, l := range c.faultLinks {
		l.EnableAudit(ad.pkt, c.faultLinkNames[i])
	}
	for i, l := range c.trunks {
		l.EnableAudit(ad.pkt, c.trunkNames[i])
	}
	for _, n := range c.nodes {
		n.NIC.EnableAudit(ad.a)
	}
	// An unroutable frame is a compilation bug: surface each occurrence
	// as a structured violation (the report layer independently turns
	// the counters into a warning row).
	for _, sw := range c.Switches() {
		comp := "switch." + sw.Name()
		sw.SetUnroutableHook(func(p *netsim.Packet) {
			ad.a.Report(comp, "unroutable", int64(c.eng.Now()),
				"a port or route for every forwarded frame",
				fmt.Sprintf("no route for src=%v dst=%v", p.Src, p.Dst))
		})
	}
	c.eng.SetLivelockWatchdog(sim.DefaultLivelockLimit, func(count int, at sim.Time) {
		ad.a.Report("sim.engine", "livelock", int64(at),
			fmt.Sprintf("< %d consecutive events at one instant", sim.DefaultLivelockLimit),
			fmt.Sprintf("%d events with time stuck at %v", count, at))
		c.eng.Stop()
	})
	ad.ticker = sim.NewTicker(c.eng, DefaultAuditEpoch, c.auditTick)
	ad.ticker.Start()
	c.aud = ad
}

// auditTick is the periodic epoch check: event-queue integrity and cursor
// monotonicity, residency sums, and energy bounds.
func (c *Cluster) auditTick() {
	ad := c.aud
	ad.ticks++
	now := c.eng.Now()
	ad.cursor = c.eng.AuditIntegrity(ad.a, ad.cursor)
	for _, n := range c.nodes {
		n.Chip.AuditAccounting(ad.a, ad.resetAt)
	}

	e := c.totalEnergyJ()
	dt := now - ad.lastT
	dj := e - ad.lastE
	maxJ := ad.maxW*dt.Seconds() + 1e-9
	if dj < -1e-12 || dj > maxJ {
		ad.a.Report("cpu.package", "energy-bounds", int64(now),
			fmt.Sprintf("0 <= dE <= %.6fJ over %v", maxJ, dt),
			fmt.Sprintf("dE=%.6fJ", dj))
	}
	ad.lastE, ad.lastT = e, now
}

// auditBoundary realigns the audit baselines with the measurement
// boundary, where residency meters and the energy meter are reset.
func (c *Cluster) auditBoundary() {
	ad := c.aud
	ad.resetAt = c.eng.Now()
	ad.lastT = ad.resetAt
	ad.lastE = c.totalEnergyJ()
}

// finalizeAudit drives the simulation to quiescence and runs the checks
// that only hold there: zero pending events, per-link and per-NIC packet
// conservation, and pool leak detection. It runs after the Result has
// been collected, so the extra simulated time is invisible to it.
func (c *Cluster) finalizeAudit() {
	ad := c.aud
	ad.ticker.Stop()
	for _, n := range c.nodes {
		if n.Ond != nil {
			n.Ond.Stop()
		}
		n.NIC.Quiesce()
		n.Driver.Quiesce()
	}
	for _, cl := range c.Clients {
		cl.Quiesce()
	}
	// Clients, bulk sender and sampler are already stopped; the grace
	// window lets their in-flight requests (bounded RTO chains) complete.
	c.eng.Run(c.eng.Now() + auditGrace)
	now := int64(c.eng.Now())
	if p := c.eng.Pending(); p != 0 {
		ad.a.Report("sim.engine", "quiescence", now,
			"0 pending events after drain", fmt.Sprintf("%d still scheduled", p))
	}
	ad.cursor = c.eng.AuditIntegrity(ad.a, ad.cursor)
	for _, n := range c.nodes {
		n.Chip.AuditAccounting(ad.a, ad.resetAt)
	}
	for _, l := range c.faultLinks {
		l.AuditConservation(ad.a)
	}
	for _, l := range c.trunks {
		l.AuditConservation(ad.a)
	}
	for _, n := range c.nodes {
		n.NIC.AuditConservation()
	}
	ad.pkt.CheckLeaks()

	if audit.Strict && !c.cfg.Audit {
		// Tag-enabled strict mode: the caller did not opt in and will not
		// look at AuditViolations, so regressions must fail loudly.
		if vs := ad.a.Violations(); len(vs) > 0 {
			panic(fmt.Sprintf("audit: %d violation(s), first: %s", len(vs), vs[0]))
		}
	}
}

// AuditViolations returns the violations an audited run collected (nil
// when auditing is off). Valid after Run.
func (c *Cluster) AuditViolations() []audit.Violation {
	if c.aud == nil {
		return nil
	}
	return c.aud.a.Violations()
}
