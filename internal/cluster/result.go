package cluster

import (
	"fmt"
	"io"

	"ncap/internal/governor"
	"ncap/internal/power"
	"ncap/internal/sim"
	"ncap/internal/stats"
	"ncap/internal/topology"
	"ncap/internal/workload"
)

// Result carries everything an experiment measures.
type Result struct {
	Policy   Policy
	Workload string
	LoadRPS  float64

	// Latency is the client-observed RTT distribution over the
	// measurement window (all clients merged).
	Latency stats.Summary
	// EnergyJ is processor package energy over the measurement window;
	// AvgPowerW is the corresponding mean power.
	EnergyJ   float64
	AvgPowerW float64

	// ServedRPS is the achieved service rate.
	ServedRPS float64
	// Request accounting across clients.
	Sent, Completed, Retransmits, Abandoned int64
	// RxDrops counts NIC descriptor-exhaustion losses; IRQs the hardware
	// interrupts the NIC posted over the measurement window.
	RxDrops int64
	IRQs    int64

	// Fault-injection accounting (all zero on a perfect fabric):
	// FaultDrops are frames lost on the medium (loss process or flap
	// windows); CorruptDrops frames discarded by a receiver's FCS
	// check; FaultDups injected duplicate deliveries; FaultDelays frames
	// held back (reordering or slow-node delay); DupSuppressed and
	// DupResent the server transport's duplicate-request handling.
	FaultDrops    int64 `json:",omitempty"`
	CorruptDrops  int64 `json:",omitempty"`
	FaultDups     int64 `json:",omitempty"`
	FaultDelays   int64 `json:",omitempty"`
	DupSuppressed int64 `json:",omitempty"`
	DupResent     int64 `json:",omitempty"`

	// CResidency is total core-time per C-state; CEntries the entry
	// counts (short entries are the Sec. 3 inefficiency signal).
	CResidency map[power.CState]sim.Duration
	CEntries   map[power.CState]int

	// Power-action accounting.
	Boosts, StepDowns, CITWakes int64
	PStateTransitions           int64
	GovernorInvocations         int64

	// Trace holds node 0's time series when Config.TraceInterval is set.
	// Its JSON key predates the field's name and is kept so stored
	// Results read back unchanged.
	Trace *Trace `json:"Sampler"`

	// Traffic accounting (replay/recording runs only, see
	// internal/workload). TraceHash identifies the replayed or captured
	// schedule; IntendedSends counts sends scheduled inside the
	// measurement window; LaggedSends those whose actual transmission
	// slipped behind the schedule (pacing backlog), with SendLagMax and
	// SendLagTotal summarizing the slip. Latency is charged from the
	// scheduled time, so the percentiles are coordinated-omission-safe
	// and these fields report the backlog that correction absorbed.
	TraceHash     string       `json:",omitempty"`
	IntendedSends int64        `json:",omitempty"`
	LaggedSends   int64        `json:",omitempty"`
	SendLagMax    sim.Duration `json:",omitempty"`
	SendLagTotal  sim.Duration `json:",omitempty"`
	// Recorded is the captured arrival schedule of a recording run —
	// live data for the caller (ncapsim -record-trace), excluded from
	// serialization; recording runs are never cached.
	Recorded *workload.Trace `json:"-"`

	// Overload-resilience accounting (all zero unless Config.Overload is
	// set). Shed counts requests dropped at dispatch by the admission
	// policy (deadline-unmeetable or CoDel); Rejected arrivals refused at
	// a full admission queue; DeadlineExceeded requests that missed their
	// end-to-end deadline; BudgetDenied retries converted to terminal
	// failures by an empty retry budget; BreakerDropped sends refused
	// locally by an open circuit breaker. RetryAmp is the retry
	// amplification factor (total transmissions per first send);
	// QueuePeak the admission queue's high-water mark; RecoveryNs how
	// long past the measurement window the server needed to drain back
	// to idle (-1: still busy when the drain ended — collapse).
	Shed             int64        `json:",omitempty"`
	Rejected         int64        `json:",omitempty"`
	DeadlineExceeded int64        `json:",omitempty"`
	BudgetDenied     int64        `json:",omitempty"`
	BreakerDropped   int64        `json:",omitempty"`
	RetryAmp         float64      `json:",omitempty"`
	QueuePeak        int64        `json:",omitempty"`
	RecoveryNs       sim.Duration `json:",omitempty"`

	// Topology rollups (explicit Config.Topology only — all empty when it
	// is nil, so the paper's star serializes byte-identically). Groups
	// mirrors the spec's group list; Switches covers the ToR tier then the
	// spine tier; Unroutable is the fleet-wide count of frames no switch
	// could route (nonzero = compilation bug, surfaced as a report warning
	// and, under -audit, a violation).
	Groups     []GroupResult `json:",omitempty"`
	Switches   []SwitchStats `json:",omitempty"`
	Unroutable int64         `json:",omitempty"`

	// Events counts the events the engine fired through the measurement
	// window's end, warmup included: the simulator's work, and what
	// ncapsim reports as Mevents/s. Work a component keeps as records
	// instead of events (a link's serialization completions, a switch's
	// forwards) is not in it. Audit epoch ticks, trace sampler ticks and,
	// under intended-send accounting, client pacing fires are excluded,
	// so observing a run or replaying its recording leaves it unchanged.
	Events uint64
}

// GroupResult is one topology group's rollup. Server groups carry the
// energy fields; client groups the request accounting, the latency
// distribution, and the worst-case hop count of their request paths.
type GroupResult struct {
	Name  string
	Role  string
	Nodes int
	// Hops is the worst-case switch count on a client group's request
	// path: 1 when every target server shares the rack, 3 via the spines.
	Hops int `json:",omitempty"`
	// Package energy and mean power summed over the group's servers.
	EnergyJ   float64 `json:",omitempty"`
	AvgPowerW float64 `json:",omitempty"`
	// Request accounting and RTT distribution merged over the group's
	// clients (drain-inclusive, like the fleet-level Latency).
	Sent      int64 `json:",omitempty"`
	Completed int64 `json:",omitempty"`
	Latency   stats.Summary
}

// SwitchStats is one switch's rollup: frames forwarded, frames it could
// not route, and the egress high-water mark across its ports and trunks.
type SwitchStats struct {
	Name           string
	Forwarded      int64
	Unroutable     int64 `json:",omitempty"`
	PeakQueueBytes int
}

// Run executes the experiment: warmup, measured window, drain; it returns
// the collected result.
func (c *Cluster) Run() Result { return c.run(c.eng.Run) }

// run is Run with the engine driven through advance, which must leave the
// engine as Engine.Run(until) would (the fire-order test steps it).
func (c *Cluster) run(advance func(until sim.Time) uint64) Result {
	cfg := c.cfg
	for _, n := range c.nodes {
		if n.Ond != nil {
			n.Ond.Start()
		} else if cfg.Policy == Perf || cfg.Policy == PerfIdle {
			governor.Performance(n.Chip)
		}
	}
	for _, cl := range c.Clients {
		cl.Start()
	}
	if c.bulk != nil {
		c.bulk.Start()
	}

	// Warmup.
	advance(cfg.Warmup)

	// Measurement boundary: zero all accounting.
	for _, n := range c.nodes {
		n.Chip.ResetStats()
		n.NIC.ResetStats()
		n.Driver.ResetStats()
		n.Server.ResetStats()
	}
	for _, l := range c.faultLinks {
		l.FaultDrops.Reset()
		l.FaultCorrupts.Reset()
		l.FaultDups.Reset()
		l.FaultDelays.Reset()
	}
	for _, cl := range c.Clients {
		cl.BeginMeasurement(cfg.Measure + cfg.Drain)
	}
	if c.sampler != nil {
		c.sampler.Start()
	}
	if c.aud != nil {
		c.auditBoundary()
	}

	// Measured window: all machine-side accounting (energy, residencies,
	// action counters) is snapshotted at its end.
	measureEnd := cfg.Warmup + cfg.Measure
	advance(measureEnd)
	var nodeEnergy []float64
	if cfg.Topology != nil {
		// Per-node snapshots for the group rollups, taken at the same
		// instant as the fleet total.
		nodeEnergy = make([]float64, len(c.nodes))
		for i, n := range c.nodes {
			nodeEnergy[i] = n.Chip.EnergyJoules()
		}
	}
	res := c.collect(c.totalEnergyJ())

	// Drain: stop offering load and let in-flight requests complete, then
	// fold their latencies in (they were sent inside the window).
	for _, cl := range c.Clients {
		cl.Stop()
	}
	if c.bulk != nil {
		c.bulk.Stop()
	}
	if c.sampler != nil {
		c.sampler.Stop()
		res.Trace = buildTrace(c.sampler, len(c.nodes[0].Chip.Cores()))
	}
	advance(measureEnd + cfg.Drain)
	c.mergeClientStats(&res)
	if cfg.Overload != nil {
		c.collectOverload(&res, measureEnd)
	}
	if cfg.Topology != nil {
		c.collectFleet(&res, nodeEnergy)
	}
	// The captured schedule is complete only now (sends already queued at
	// Stop time still went out during the drain, and a replay must send
	// them too). The capture's hash doubles as the record run's
	// TraceHash, so the Result matches its replay's byte for byte.
	if rec := c.RecordedTrace(); rec != nil {
		res.Recorded = rec
		if res.TraceHash == "" {
			res.TraceHash = rec.Hash()
		}
	}
	// Quiescence-dependent audit checks run last: the Result is fully
	// collected, so the grace window they need cannot perturb it. A
	// halted run (see sim.Engine.Halt) never quiesces; its caller has
	// already given up on the Result.
	if c.aud != nil && !c.eng.Halted() {
		c.finalizeAudit()
	}
	c.pkts.Flush()
	return res
}

// mergeClientStats fills in the client-side request accounting (latency
// distribution, completion counters) after the drain window. ServedRPS is
// deliberately left at its measure-window value: completions landing in
// the drain belong in the latency distribution (their requests were sent
// inside the window) but would overstate the service *rate*.
func (c *Cluster) mergeClientStats(res *Result) {
	recs := make([]*stats.LatencyRecorder, len(c.Clients))
	for i, cl := range c.Clients {
		recs[i] = cl.Latency()
		res.Sent += cl.Sent.Value()
		res.Completed += cl.Completed.Value()
		res.Retransmits += cl.Retransmits.Value()
		res.Abandoned += cl.Abandoned.Value()
	}
	res.Latency = c.st.mergedLatency(recs)
}

// collectOverload fills the resilience accounting after the drain. Only
// called when Config.Overload is set: the fields stay exactly zero on
// legacy configs, so their serialized Results are byte-identical.
func (c *Cluster) collectOverload(res *Result, measureEnd sim.Time) {
	var lastIdle sim.Time
	busy := false
	for _, n := range c.nodes {
		res.Shed += n.Server.ShedDeadline.Value() + n.Server.ShedCoDel.Value()
		res.Rejected += n.Server.Rejected.Value()
		// The fleet's QueuePeak is its worst server's — the saturation
		// signal, not a sum over mostly idle queues.
		if qp := int64(n.Server.QueuePeak()); qp > res.QueuePeak {
			res.QueuePeak = qp
		}
		busy = busy || n.Server.Busy()
		if n.Server.LastIdle() > lastIdle {
			lastIdle = n.Server.LastIdle()
		}
	}
	for _, cl := range c.Clients {
		res.DeadlineExceeded += cl.DeadlineExceeded.Value()
		res.BudgetDenied += cl.BudgetDenied.Value()
		res.BreakerDropped += cl.BreakerDropped.Value()
	}
	if res.Sent > 0 {
		res.RetryAmp = 1 + float64(res.Retransmits)/float64(res.Sent)
	}
	// Time-to-recovery: how long past the measurement window the slowest
	// server needed to drain back to idle. A server still holding work
	// when the drain ended never recovered — the metastable signature.
	switch {
	case busy:
		res.RecoveryNs = -1
	case lastIdle > measureEnd:
		res.RecoveryNs = lastIdle - measureEnd
	}
}

// collectFleet fills the topology rollups after the drain. Only called
// with an explicit Config.Topology: the fields stay empty on the nil
// topology, so the paper's star serializes byte-identically. nodeEnergy
// holds the per-node package energy snapshots taken at the measurement
// window's end.
func (c *Cluster) collectFleet(res *Result, nodeEnergy []float64) {
	cfg := c.cfg
	for gi := range c.groups {
		cg := &c.groups[gi]
		gr := GroupResult{Name: cg.name, Role: cg.role, Hops: cg.hops}
		if cg.role == string(topology.RoleServer) {
			gr.Nodes = len(cg.servers)
			for _, ni := range cg.servers {
				gr.EnergyJ += nodeEnergy[ni]
			}
			gr.AvgPowerW = gr.EnergyJ / cfg.Measure.Seconds()
		} else {
			gr.Nodes = len(cg.clients)
			recs := make([]*stats.LatencyRecorder, len(cg.clients))
			for i, ci := range cg.clients {
				cl := c.Clients[ci]
				recs[i] = cl.Latency()
				gr.Sent += cl.Sent.Value()
				gr.Completed += cl.Completed.Value()
			}
			gr.Latency = c.st.mergedLatency(recs)
		}
		res.Groups = append(res.Groups, gr)
	}
	for swi, sw := range c.Switches() {
		st := SwitchStats{
			Name:       sw.Name(),
			Forwarded:  sw.Forwarded.Value(),
			Unroutable: sw.Unroutable.Value(),
		}
		for _, l := range sw.Ports() {
			if l.PeakQueuedBytes() > st.PeakQueueBytes {
				st.PeakQueueBytes = l.PeakQueuedBytes()
			}
		}
		for ti, l := range c.trunks {
			if c.trunkOwner[ti] == swi && l.PeakQueuedBytes() > st.PeakQueueBytes {
				st.PeakQueueBytes = l.PeakQueuedBytes()
			}
		}
		res.Unroutable += st.Unroutable
		res.Switches = append(res.Switches, st)
	}
}

// totalEnergyJ sums package energy across every server node.
func (c *Cluster) totalEnergyJ() float64 {
	var e float64
	for _, n := range c.nodes {
		e += n.Chip.EnergyJoules()
	}
	return e
}

func (c *Cluster) collect(energyJ float64) Result {
	cfg := c.cfg
	// The audit epoch ticker and the trace sampler fire as ordinary
	// engine events; subtracting them keeps Events — and with it the
	// whole Result — byte-identical between observed and unobserved runs
	// (the ticks are pure observation).
	events := c.eng.Fired()
	if c.aud != nil {
		events -= c.aud.ticks
	}
	if c.sampler != nil {
		events -= uint64(len(c.sampler.Times))
	}
	if c.accounting {
		// Burst pacing and trace replay reach the same arrivals through
		// different event shapes (per-burst ticks + per-request sends vs
		// one pre-scheduled fire per record). Subtracting each client's
		// own pacing events makes Events — and with it the whole Result —
		// byte-identical between a recorded run and its replay.
		for _, cl := range c.Clients {
			events -= cl.PacingFires()
		}
	}
	// The latency distribution and request counters are filled in after
	// the drain (mergeClientStats); only the service rate is taken here,
	// from the completions inside the measurement window.
	var completed int64
	for _, cl := range c.Clients {
		completed += cl.Completed.Value()
	}

	res := Result{
		Policy:     cfg.Policy,
		Workload:   cfg.Workload.Name,
		LoadRPS:    cfg.LoadRPS,
		EnergyJ:    energyJ,
		AvgPowerW:  energyJ / cfg.Measure.Seconds(),
		ServedRPS:  float64(completed) / cfg.Measure.Seconds(),
		CResidency: map[power.CState]sim.Duration{},
		CEntries:   map[power.CState]int{},
		Events:     events,
	}
	for _, n := range c.nodes {
		res.RxDrops += n.NIC.RxDrops.Value()
		res.IRQs += n.NIC.IRQs.Value()
		res.CorruptDrops += n.NIC.RxCorruptDrops.Value()
		res.DupSuppressed += n.Server.DupSuppressed.Value()
		res.DupResent += n.Server.DupResent.Value()
		res.Boosts += n.Driver.Boosts.Value()
		res.StepDowns += n.Driver.StepDowns.Value()
		res.PStateTransitions += n.Chip.Transitions()
		for _, core := range n.Chip.Cores() {
			for _, s := range []power.CState{power.C1, power.C3, power.C6} {
				res.CResidency[s] += core.CTime(s)
				res.CEntries[s] += core.CEntries(s)
			}
		}
		if n.NIC.NCAPEnabled() {
			for _, q := range n.NIC.Queues() {
				res.CITWakes += q.Decision().Wakes.Value()
			}
		} else if n.Driver.SoftwareNCAP() {
			res.CITWakes += n.Driver.SWDecision().Wakes.Value()
		}
		if n.Ond != nil {
			res.GovernorInvocations += n.Ond.Invocations.Value()
		}
	}
	for _, cl := range c.Clients {
		res.CorruptDrops += cl.CorruptDrops.Value()
	}
	for _, l := range c.faultLinks {
		res.FaultDrops += l.FaultDrops.Value()
		res.FaultDups += l.FaultDups.Value()
		res.FaultDelays += l.FaultDelays.Value()
	}
	if c.accounting {
		var lag stats.LagMeter
		for _, cl := range c.Clients {
			lag.Add(cl.Lag)
		}
		res.TraceHash = c.replayHash
		res.IntendedSends = lag.Count
		res.LaggedSends = lag.Lagged
		res.SendLagMax = lag.Max
		res.SendLagTotal = lag.Total
	}
	return res
}

// WriteRow prints the result as a fixed-width table row.
func (r Result) WriteRow(w io.Writer) {
	fmt.Fprintf(w, "%-10s %-10s %8.0f  p50=%8.3fms p95=%8.3fms p99=%8.3fms  E=%7.2fJ P=%6.2fW  served=%7.0f/s drops=%d\n",
		r.Policy, r.Workload, r.LoadRPS,
		r.Latency.P50.Millis(), r.Latency.P95.Millis(), r.Latency.P99.Millis(),
		r.EnergyJ, r.AvgPowerW, r.ServedRPS, r.RxDrops)
}

// MeetsSLA reports whether the 95th-percentile latency is within sla.
func (r Result) MeetsSLA(sla sim.Duration) bool { return r.Latency.P95 <= sla }
