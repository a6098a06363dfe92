package cluster

import (
	"fmt"

	"ncap/internal/app"
	"ncap/internal/core"
	"ncap/internal/driver"
	"ncap/internal/fault"
	"ncap/internal/netsim"
	"ncap/internal/nic"
	"ncap/internal/resilience"
	"ncap/internal/sim"
	"ncap/internal/telemetry"
	"ncap/internal/topology"
	"ncap/internal/workload"
)

// Config describes one experiment: a policy, a workload, a load level and
// the machine parameters (defaults reproduce Table 1).
type Config struct {
	// Policy selects the power-management configuration.
	Policy Policy
	// Workload is the server application profile.
	Workload app.Profile
	// LoadRPS is the aggregate offered load across all clients.
	LoadRPS float64
	// Clients is the number of load-generating nodes (the paper uses 3).
	Clients int
	// Cores is the server core count (Table 1: 4).
	Cores int
	// BurstSize is each client's requests per burst.
	BurstSize int
	// Seed drives every random stream; same seed → identical run.
	Seed uint64
	// Warmup is discarded; Measure is the accounting window; Drain lets
	// in-flight requests complete after Measure.
	Warmup, Measure, Drain sim.Duration
	// OndemandPeriod overrides the governor invocation period (0 = 10 ms).
	OndemandPeriod sim.Duration
	// NCAP carries the DecisionEngine thresholds. The TOE and Queues
	// options scale its rate thresholds (see ncapConfig).
	NCAP core.Config
	// FCONS is the number of IT_LOW steps that walk frequency from max to
	// min (Sec. 4.3): 0 takes the policy's value (5 for ncap.cons, 1
	// otherwise).
	FCONS int
	// NIC, Driver and Link are the device parameters. A server NIC's
	// queue count comes from Queues and its driver's TOE factor from
	// TOE, for every server.
	NIC    nic.Config
	Driver driver.Config
	Link   netsim.LinkConfig
	// BulkBps adds background non-latency-critical traffic (ablation E-ctx).
	BulkBps int64
	// NaiveNCAP reprograms the templates to match *any* payload — the
	// context-unaware strawman of Sec. 4.1 (ablation).
	NaiveNCAP bool
	// TraceInterval enables time-series sampling when positive.
	TraceInterval sim.Duration
	// Queues > 1 enables the Sec. 7 multi-queue NIC extension: RSS steers
	// flows to per-core queues with their own MSI-X vectors, NAPI
	// contexts and NCAP blocks, and application tasks become flow-affine.
	// 0 and 1 both build one queue; a negative count is rejected.
	Queues int
	// PerCoreDVFS gives every core its own DVFS domain (Sec. 7), letting
	// per-queue NCAP steer only the target core's P-state.
	PerCoreDVFS bool
	// TOE enables the NIC's TCP offload engines (Sec. 7): per-packet
	// stack costs halve and NCAP's rate thresholds scale up to match the
	// higher sustainable packet rate.
	TOE bool
	// Traffic selects the traffic source (see internal/workload): nil is
	// the built-in stationary burst clients; a scenario or trace switches
	// the clients to deterministic schedule replay with coordinated-
	// omission-safe measurement, and Record captures the run's arrivals
	// back out as an ncap-trace-v1 schedule. A nil pointer serializes to
	// nothing, so legacy configs keep their cache identity; a replayed
	// trace participates via its canonical hash (Spec.TraceHash).
	Traffic *workload.Spec `json:"Traffic,omitempty"`
	// Fault degrades the fabric: per-link loss, corruption, reordering,
	// duplication, slowdown and flap windows, at most one entry per
	// unidirectional link; a slow or crashed node is a Both-direction
	// entry (see internal/fault). The zero value is the perfect network
	// the paper evaluates on; any active fault also switches the
	// transport to its loss-recovery mode (client exponential backoff,
	// server duplicate suppression). Part of the config, so it
	// participates in the runner's content-keyed cache identity.
	Fault fault.Spec
	// Topology selects the cluster shape (see internal/topology): a
	// declarative graph of node groups, rack (ToR) switches and an
	// optional ECMP spine tier, compiled by New into wired simulation
	// components. A nil pointer is the paper's star, topology.Star(Clients):
	// it serializes to nothing, so historical configs keep byte-identical
	// cache keys, and its Result carries no topology rollups; a non-nil
	// spec participates in the runner's content-keyed cache identity.
	// With a topology set, the scalar Clients field is ignored — the spec
	// carries the client groups — and Cores is the core count of every
	// server group that sets none. LoadRPS remains the aggregate offered
	// load across every client in the fleet.
	Topology *topology.Spec `json:"Topology,omitempty"`
	// Overload enables the resilience layer (see internal/resilience):
	// the server's bounded admission queue with config-selected shedding,
	// client end-to-end deadlines, jittered backoff, retry budgets and
	// per-client circuit breakers. A nil pointer serializes to nothing,
	// so legacy configs keep their cache identity; a non-nil spec
	// participates in the runner's content-keyed cache identity.
	Overload *resilience.Spec `json:"Overload,omitempty"`
	// Telemetry, when non-nil, wires every component's metrics and event
	// trace into the given sink (see internal/telemetry). It is a live
	// handle, not data: it is excluded from the runner's content-keyed
	// cache identity, and telemetry-carrying jobs are never cached.
	Telemetry *telemetry.Telemetry `json:"-"`
	// Audit wires the runtime invariant auditor through every component
	// (see internal/audit): packet conservation per link and NIC, pool
	// ownership, residency and energy accounting, event-queue integrity,
	// and a livelock watchdog, checked at periodic epochs and at a
	// post-run quiescence point. Pure observation — the Result is
	// byte-identical either way — so, like Telemetry, it is excluded from
	// the cache identity and audited jobs are never cached.
	Audit bool `json:"-"`
}

// DefaultBurstSize returns the per-client burst size that keeps the burst
// period inside the paper's 1.3–20 ms range (Sec. 5) at the workload's
// evaluated load levels: Apache's slower request stream uses the paper's
// example 200-request bursts; Memcached's denser stream uses 100.
func DefaultBurstSize(workload app.Profile) int {
	if workload.Name == "memcached" {
		return 100
	}
	return 200
}

// DefaultConfig returns a ready-to-run experiment at the given operating
// point with Table 1 machine parameters.
func DefaultConfig(policy Policy, workload app.Profile, loadRPS float64) Config {
	return Config{
		Policy:    policy,
		Workload:  workload,
		LoadRPS:   loadRPS,
		Clients:   3,
		Cores:     4,
		BurstSize: DefaultBurstSize(workload),
		Seed:      1,
		Warmup:    100 * sim.Millisecond,
		Measure:   400 * sim.Millisecond,
		Drain:     100 * sim.Millisecond,
		NCAP:      core.DefaultConfig(),
		NIC:       nic.DefaultConfig(),
		Driver:    driver.DefaultConfig(),
		Link:      netsim.DefaultLinkConfig(),
	}
}

// spec returns the topology the config compiles to: Config.Topology, or
// the paper's star with the scalar Clients count when that is nil.
func (c Config) spec() *topology.Spec {
	if c.Topology != nil {
		return c.Topology
	}
	return topology.Star(c.Clients)
}

// ClientCount returns the number of client nodes the config compiles to.
func (c Config) ClientCount() int { return c.spec().Clients() }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if _, err := ParsePolicy(string(c.Policy)); err != nil {
		return err
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	switch {
	case c.LoadRPS <= 0:
		return fmt.Errorf("cluster: load must be positive")
	case c.Clients <= 0:
		return fmt.Errorf("cluster: need at least one client")
	case c.Cores <= 0:
		return fmt.Errorf("cluster: need at least one core")
	case c.BurstSize <= 0:
		return fmt.Errorf("cluster: burst size must be positive")
	case c.Warmup < 0 || c.Measure <= 0 || c.Drain < 0:
		return fmt.Errorf("cluster: bad warmup/measure/drain windows")
	case c.FCONS < 0:
		return fmt.Errorf("cluster: FCONS must be non-negative (0 takes the policy's)")
	case c.Queues < 0:
		return fmt.Errorf("cluster: Queues must be non-negative")
	case c.Queues > 1 && c.Policy.UsesNCAPHardware() && !c.PerCoreDVFS:
		// Sec. 7 pairs multi-queue NCAP with per-core power management:
		// with a shared chip-wide frequency, an idle queue's IT_LOW
		// interrupts would fight the busy queues' boosts.
		return fmt.Errorf("cluster: multi-queue NCAP requires PerCoreDVFS")
	}
	if err := c.NIC.Validate(); err != nil {
		return err
	}
	if err := c.Driver.Validate(); err != nil {
		return err
	}
	if err := c.Link.Validate(); err != nil {
		return err
	}
	spec := c.spec()
	if err := spec.Validate(); err != nil {
		return err
	}
	if c.BulkBps > 0 {
		// The background bulk sender is a fixture of the paper's star
		// (one well-known extra address); a fleet models background load
		// through its workload scenarios instead.
		switch {
		case c.Topology != nil:
			return fmt.Errorf("cluster: BulkBps needs the default star (unset it or drop the topology)")
		case ClientAddr(c.Clients-1) >= bulkAddr:
			return fmt.Errorf("cluster: BulkBps supports at most %d clients (client addresses would reach the bulk sender's %d)",
				bulkAddr-firstClientAddr, bulkAddr)
		}
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	if err := c.Overload.Validate(); err != nil {
		return err
	}
	if err := c.Traffic.Validate(spec.Clients()); err != nil {
		return err
	}
	if c.Traffic.Replay() && c.Traffic.Trace == nil {
		// Reject oversized generations here, where callers expect errors,
		// instead of panicking inside New.
		sc := c.Traffic.Scenario
		if est := sc.EstimateRecords(c.LoadRPS, c.Warmup+c.Measure); est > workload.MaxTraceRecords {
			return fmt.Errorf("cluster: scenario %s at %.0f rps over %v generates ~%d records (limit %d)",
				sc.Name, c.LoadRPS, c.Warmup+c.Measure, est, workload.MaxTraceRecords)
		}
	}
	return c.ncapConfig().Validate()
}

// Canonical returns c with each alias spelled one way, so two configs
// that differ only in spelling run one simulation under one cache key:
// Queues 1 builds the single queue Queues 0 builds, an FCONS equal to the
// policy's own is the FCONS that 0 takes, and a policy without NCAP never
// reads FCONS (a negative one stays, for Validate to reject).
func (c Config) Canonical() Config {
	if c.Queues == 1 {
		c.Queues = 0
	}
	ncap := c.Policy.UsesNCAPHardware() || c.Policy.UsesNCAPSoftware()
	if c.FCONS == c.Policy.FCONS() || c.FCONS > 0 && !ncap {
		c.FCONS = 0
	}
	return c
}

// Recording reports whether the run captures its arrival schedule (see
// workload.Spec.Record). Recording jobs are never cached: the cache
// stores Results, whose captured trace (Result.Recorded) it does not
// serialize.
func (c Config) Recording() bool { return c.Traffic.Recording() }

// ncapConfig resolves the effective DecisionEngine config.
func (c Config) ncapConfig() core.Config {
	n := c.NCAP
	if c.TOE {
		// Sec. 7: a TOE-capable server sustains a higher packet rate at
		// the same performance state, so the rate thresholds scale up.
		n.RHT *= 1.5
		n.RLT *= 1.5
	}
	if c.Queues > 1 {
		// Per-queue engines each see ~1/Queues of the request stream; the
		// thresholds divide so a burst on one flow still registers.
		n.RHT /= float64(c.Queues)
		n.RLT /= float64(c.Queues)
	}
	return n
}
