// Package report defines the simulator's machine-readable run output: a
// versioned, schema-stamped document wrapping cluster results, sweep
// summaries, telemetry metric dumps and time series with stable JSON
// field names.
//
// Determinism contract: a Report built from the same experiment
// configuration is byte-identical regardless of worker count, cache
// state or host — everything wall-clock (job elapsed times, cache hits)
// is deliberately excluded. Tables printed by the CLIs
// remain the cluster.Result.WriteRow text format, and every field a row
// prints is also a Run field, so a report is a superset of the text
// output.
package report

import (
	"errors"
	"fmt"
	"strings"

	"ncap/internal/audit"
	"ncap/internal/cluster"
	"ncap/internal/power"
	"ncap/internal/runner"
	"ncap/internal/stats"
	"ncap/internal/telemetry"
)

// Schema identifies the report document format. Bump on any change to
// field meaning that old readers would misinterpret; additive optional
// fields do not require a bump.
const Schema = "ncap-report-v1"

// Report is the top-level document.
type Report struct {
	// Schema is always the package Schema constant on documents this
	// package writes; readers should reject unknown major versions.
	Schema string `json:"schema"`
	// Tool names the generating command ("ncapsweep", "ncapsim", ...).
	Tool string `json:"tool,omitempty"`
	// Experiment labels the sweep or experiment that produced the runs.
	Experiment string `json:"experiment,omitempty"`
	// Runs are the per-simulation results, in submission order.
	Runs []Run `json:"runs"`
	// Interrupted marks a partial document: the batch was stopped
	// (SIGINT/SIGTERM) before every job dispatched. Undispatched jobs
	// are absent from Runs — not failed — and a resumed sweep fills
	// them in, producing a report without this flag.
	Interrupted bool `json:"interrupted,omitempty"`
	// Sweep summarizes the batch (deterministic counters only).
	Sweep *SweepStats `json:"sweep,omitempty"`
	// Metrics is the telemetry registry dump (sorted by name).
	Metrics []telemetry.Sample `json:"metrics,omitempty"`
	// Events summarizes the telemetry event trace.
	Events *EventsSummary `json:"events,omitempty"`
	// Series carries sampled time series (Fig. 8/9 signals).
	Series []Series `json:"series,omitempty"`
}

// New returns an empty report stamped with the current schema.
func New(tool, experiment string) *Report {
	return &Report{Schema: Schema, Tool: tool, Experiment: experiment}
}

// SweepStats are the deterministic batch counters: wall-clock and
// cache-hit counts are excluded so reports stay byte-identical across
// worker counts and cache states.
type SweepStats struct {
	Jobs     int `json:"jobs"`
	Failures int `json:"failures"`
}

// Latency is the distribution summary with explicit nanosecond units.
type Latency struct {
	Count  int   `json:"count"`
	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P90Ns  int64 `json:"p90_ns"`
	P95Ns  int64 `json:"p95_ns"`
	P99Ns  int64 `json:"p99_ns"`
	MaxNs  int64 `json:"max_ns"`
}

// CState is one sleep state's aggregate residency across cores.
type CState struct {
	ResidencyNs int64 `json:"residency_ns"`
	Entries     int   `json:"entries"`
}

// Faults bundles the fault-injection and loss-recovery accounting; nil
// on a perfect fabric.
type Faults struct {
	Drops         int64 `json:"drops"`
	CorruptDrops  int64 `json:"corrupt_drops"`
	Dups          int64 `json:"dups"`
	Delays        int64 `json:"delays"`
	DupSuppressed int64 `json:"dup_suppressed"`
	DupResent     int64 `json:"dup_resent"`
}

// Overload bundles the resilience layer's accounting (see
// internal/resilience); nil unless the run enabled overload protection
// and something fired. RecoveryNs is -1 when the server never drained
// back to idle — the metastable-collapse signature.
type Overload struct {
	Shed             int64   `json:"shed,omitempty"`
	Rejected         int64   `json:"rejected,omitempty"`
	DeadlineExceeded int64   `json:"deadline_exceeded,omitempty"`
	BudgetDenied     int64   `json:"budget_denied,omitempty"`
	BreakerDropped   int64   `json:"breaker_dropped,omitempty"`
	RetryAmp         float64 `json:"retry_amp,omitempty"`
	QueuePeak        int64   `json:"queue_peak,omitempty"`
	RecoveryNs       int64   `json:"recovery_ns,omitempty"`
}

// Traffic is the coordinated-omission accounting of a replayed or
// recorded arrival schedule: the schedule's canonical hash, the sends it
// intended inside the measurement window, and how far actual
// transmission slipped behind it (latency percentiles already charge
// from the schedule; this is the backlog evidence).
type Traffic struct {
	TraceHash      string `json:"trace_hash,omitempty"`
	IntendedSends  int64  `json:"intended_sends"`
	LaggedSends    int64  `json:"lagged_sends,omitempty"`
	SendLagMaxNs   int64  `json:"send_lag_max_ns,omitempty"`
	SendLagTotalNs int64  `json:"send_lag_total_ns,omitempty"`
}

// Group is one topology group's rollup (compiled topologies only; see
// internal/topology). Server groups carry the energy fields, client
// groups the request accounting, latency and hop count.
type Group struct {
	Name      string   `json:"name"`
	Role      string   `json:"role"`
	Nodes     int      `json:"nodes"`
	Hops      int      `json:"hops,omitempty"`
	EnergyJ   float64  `json:"energy_j,omitempty"`
	AvgPowerW float64  `json:"avg_power_w,omitempty"`
	Sent      int64    `json:"sent,omitempty"`
	Completed int64    `json:"completed,omitempty"`
	Latency   *Latency `json:"latency,omitempty"`
}

// Switch is one fabric switch's rollup: frames forwarded, frames it could
// not route, and its egress-queue high-water mark.
type Switch struct {
	Name           string `json:"name"`
	Forwarded      int64  `json:"forwarded"`
	Unroutable     int64  `json:"unroutable,omitempty"`
	PeakQueueBytes int    `json:"peak_queue_bytes"`
}

// Run is one simulation's result with stable JSON field names. It wraps
// cluster.Result: every value is copied, units are explicit, and nothing
// wall-clock-dependent is included.
type Run struct {
	Tag      string  `json:"tag,omitempty"`
	Policy   string  `json:"policy"`
	Workload string  `json:"workload"`
	LoadRPS  float64 `json:"load_rps"`

	Latency   Latency `json:"latency"`
	EnergyJ   float64 `json:"energy_j"`
	AvgPowerW float64 `json:"avg_power_w"`
	ServedRPS float64 `json:"served_rps"`

	Sent        int64 `json:"sent"`
	Completed   int64 `json:"completed"`
	Retransmits int64 `json:"retransmits,omitempty"`
	Abandoned   int64 `json:"abandoned,omitempty"`
	RxDrops     int64 `json:"rx_drops"`
	IRQs        int64 `json:"irqs"`

	Faults *Faults `json:"faults,omitempty"`

	// CStates maps "c1"/"c3"/"c6" to aggregate residency; encoding/json
	// sorts map keys, so serialization order is stable.
	CStates map[string]CState `json:"cstates,omitempty"`

	Boosts              int64 `json:"boosts,omitempty"`
	StepDowns           int64 `json:"stepdowns,omitempty"`
	CITWakes            int64 `json:"cit_wakes,omitempty"`
	PStateTransitions   int64 `json:"pstate_transitions,omitempty"`
	GovernorInvocations int64 `json:"governor_invocations,omitempty"`

	// Traffic carries the replay/recording accounting of scenario- or
	// trace-driven runs (see internal/workload); absent for the built-in
	// stationary traffic.
	Traffic *Traffic `json:"traffic,omitempty"`

	// Overload carries the resilience layer's accounting (see
	// internal/resilience); absent when overload protection was off.
	Overload *Overload `json:"overload,omitempty"`

	// Groups and Switches carry the compiled-topology rollups (see
	// internal/topology); absent on the paper's 4-node star, so legacy
	// reports stay byte-identical.
	Groups   []Group  `json:"groups,omitempty"`
	Switches []Switch `json:"switches,omitempty"`

	// Warnings flag suspicious-but-not-fatal run conditions. Currently:
	// unroutable frames dropped in a compiled switch fabric.
	Warnings []string `json:"warnings,omitempty"`

	// Events is cluster.Result.Events: the events the simulation engine
	// fired through the measurement window's end, observer ticks excluded.
	Events uint64 `json:"sim_events,omitempty"`

	// Violations are the invariant violations an audited run collected
	// (see internal/audit); absent when auditing was off or the run was
	// clean. Deterministic: the auditor observes the same simulation the
	// Result measures.
	Violations []audit.Violation `json:"violations,omitempty"`

	// Error carries a failed job's message; all measurements are zero.
	Error string `json:"error,omitempty"`
}

// fromSummary converts a latency summary to explicit nanosecond fields.
func fromSummary(s stats.Summary) Latency {
	return Latency{
		Count:  s.Count,
		MeanNs: int64(s.Mean),
		P50Ns:  int64(s.P50),
		P90Ns:  int64(s.P90),
		P95Ns:  int64(s.P95),
		P99Ns:  int64(s.P99),
		MaxNs:  int64(s.Max),
	}
}

// FromResult wraps one cluster.Result as a report Run.
func FromResult(tag string, r cluster.Result) Run {
	run := Run{
		Tag:                 tag,
		Policy:              string(r.Policy),
		Workload:            r.Workload,
		LoadRPS:             r.LoadRPS,
		Latency:             fromSummary(r.Latency),
		EnergyJ:             r.EnergyJ,
		AvgPowerW:           r.AvgPowerW,
		ServedRPS:           r.ServedRPS,
		Sent:                r.Sent,
		Completed:           r.Completed,
		Retransmits:         r.Retransmits,
		Abandoned:           r.Abandoned,
		RxDrops:             r.RxDrops,
		IRQs:                r.IRQs,
		Boosts:              r.Boosts,
		StepDowns:           r.StepDowns,
		CITWakes:            r.CITWakes,
		PStateTransitions:   r.PStateTransitions,
		GovernorInvocations: r.GovernorInvocations,
		Events:              r.Events,
	}
	if r.FaultDrops|r.CorruptDrops|r.FaultDups|r.FaultDelays|r.DupSuppressed|r.DupResent != 0 {
		run.Faults = &Faults{
			Drops:         r.FaultDrops,
			CorruptDrops:  r.CorruptDrops,
			Dups:          r.FaultDups,
			Delays:        r.FaultDelays,
			DupSuppressed: r.DupSuppressed,
			DupResent:     r.DupResent,
		}
	}
	if r.Shed|r.Rejected|r.DeadlineExceeded|r.BudgetDenied|r.BreakerDropped|r.QueuePeak != 0 ||
		r.RetryAmp != 0 || r.RecoveryNs != 0 {
		run.Overload = &Overload{
			Shed:             r.Shed,
			Rejected:         r.Rejected,
			DeadlineExceeded: r.DeadlineExceeded,
			BudgetDenied:     r.BudgetDenied,
			BreakerDropped:   r.BreakerDropped,
			RetryAmp:         r.RetryAmp,
			QueuePeak:        r.QueuePeak,
			RecoveryNs:       int64(r.RecoveryNs),
		}
	}
	if r.TraceHash != "" || r.IntendedSends > 0 {
		run.Traffic = &Traffic{
			TraceHash:      r.TraceHash,
			IntendedSends:  r.IntendedSends,
			LaggedSends:    r.LaggedSends,
			SendLagMaxNs:   int64(r.SendLagMax),
			SendLagTotalNs: int64(r.SendLagTotal),
		}
	}
	if len(r.CResidency) > 0 {
		run.CStates = map[string]CState{}
		for _, s := range []power.CState{power.C1, power.C3, power.C6} {
			run.CStates[strings.ToLower(s.String())] = CState{
				ResidencyNs: int64(r.CResidency[s]),
				Entries:     r.CEntries[s],
			}
		}
	}
	for _, g := range r.Groups {
		rg := Group{
			Name:      g.Name,
			Role:      g.Role,
			Nodes:     g.Nodes,
			Hops:      g.Hops,
			EnergyJ:   g.EnergyJ,
			AvgPowerW: g.AvgPowerW,
			Sent:      g.Sent,
			Completed: g.Completed,
		}
		if g.Latency.Count > 0 {
			lat := fromSummary(g.Latency)
			rg.Latency = &lat
		}
		run.Groups = append(run.Groups, rg)
	}
	for _, s := range r.Switches {
		run.Switches = append(run.Switches, Switch{
			Name:           s.Name,
			Forwarded:      s.Forwarded,
			Unroutable:     s.Unroutable,
			PeakQueueBytes: s.PeakQueueBytes,
		})
	}
	if r.Unroutable > 0 {
		run.Warnings = append(run.Warnings,
			fmt.Sprintf("switch fabric dropped %d unroutable frame(s) — topology compilation bug", r.Unroutable))
	}
	return run
}

// FromOutcomes converts a runner batch to report Runs in the given
// (submission) order, dropping everything wall-clock-dependent. Failed
// jobs become error rows so a report never silently loses a sweep point.
// Interrupted outcomes (runner.ErrInterrupted) are skipped entirely:
// those jobs never ran, and their absence is what lets a resumed sweep's
// report come out byte-identical to an uninterrupted one.
func FromOutcomes(outcomes []runner.Outcome) []Run {
	runs := make([]Run, 0, len(outcomes))
	for _, o := range outcomes {
		if errors.Is(o.Err, runner.ErrInterrupted) {
			continue
		}
		if o.Err != nil {
			runs = append(runs, Run{
				Tag:      o.Job.Tag,
				Policy:   string(o.Job.Config.Policy),
				Workload: o.Job.Config.Workload.Name,
				LoadRPS:  o.Job.Config.LoadRPS,
				Error:    o.Err.Error(),
			})
			continue
		}
		run := FromResult(o.Job.Tag, o.Result)
		run.Violations = o.Violations
		runs = append(runs, run)
	}
	return runs
}

// AddOutcomes appends a batch's runs and folds its counts into the sweep
// summary. Interrupted outcomes set the report's Interrupted flag instead
// of contributing rows or counts.
func (r *Report) AddOutcomes(outcomes []runner.Outcome) {
	if r.Sweep == nil {
		r.Sweep = &SweepStats{}
	}
	for _, o := range outcomes {
		if errors.Is(o.Err, runner.ErrInterrupted) {
			r.Interrupted = true
			continue
		}
		r.Sweep.Jobs++
		if o.Err != nil {
			r.Sweep.Failures++
		}
	}
	r.Runs = append(r.Runs, FromOutcomes(outcomes)...)
}

// AddTelemetry attaches a telemetry sink's registry dump and event-trace
// summary. A nil or disabled sink is a no-op.
func (r *Report) AddTelemetry(tel *telemetry.Telemetry) {
	if !tel.Enabled() {
		return
	}
	r.Metrics = append(r.Metrics, tel.Registry().Export()...)
	r.Events = SummarizeEvents(tel.Trace())
}
