// Package resilience is the overload-protection subsystem for the
// client-server application layer: a bounded server admission queue with
// pluggable shedding policies (drop-tail reject, deadline-aware shedding,
// CoDel-style queue-delay shedding), client-side end-to-end request
// deadlines, a token-bucket retry budget, and a per-client circuit
// breaker. Together they turn the open-loop saturation regime — an
// unbounded server queue fed by an RTO retry storm, the classic
// metastable collapse — into a survivable, measurable operating point.
//
// Determinism contract: nothing in this package draws randomness. The
// breaker, the budget and the CoDel controller are pure state machines
// over simulated time and the event order the engine already fixes; the
// one randomized mechanism the spec can enable (jittered exponential
// backoff) draws from the owning client's existing seeded stream. The
// Spec is plain data and serializes canonically, so it participates in
// the runner's content-hash job key, and — like internal/fault — a nil
// or inert Spec takes the exact legacy code paths, keeping historical
// runs byte-identical.
package resilience

import (
	"fmt"
	"math"

	"ncap/internal/sim"
)

// AdmitPolicy selects how the server's admission queue sheds work.
type AdmitPolicy string

const (
	// AdmitDropTail rejects new arrivals once the queue is full and never
	// sheds at dispatch — the plain bounded-buffer baseline.
	AdmitDropTail AdmitPolicy = "droptail"
	// AdmitDeadline additionally drops, at dispatch time, requests whose
	// end-to-end deadline can no longer be met (estimated from a smoothed
	// service time): work that would be wasted anyway is shed before it
	// occupies a core.
	AdmitDeadline AdmitPolicy = "deadline"
	// AdmitCoDel additionally runs a CoDel-style controller on queue
	// sojourn time at dispatch: when the standing delay stays above the
	// target for an interval, head requests are dropped on the
	// interval/sqrt(count) schedule until the queue drains.
	AdmitCoDel AdmitPolicy = "codel"
)

// AdmitPolicies lists the valid policies for usage text.
func AdmitPolicies() []AdmitPolicy {
	return []AdmitPolicy{AdmitDropTail, AdmitDeadline, AdmitCoDel}
}

// The resilience layer's fixed parameters. EffQueueCap resolves a zero
// QueueCap to DefaultQueueCap when admission is enabled.
const (
	// DefaultQueueCap bounds the admission queue. At the paper's highest
	// load it is a few milliseconds of standing work — deep enough to ride
	// a burst, shallow enough that shedding engages before the RTO does.
	DefaultQueueCap = 512
	// DefaultMaxInflight bounds concurrently dispatched requests. It
	// covers the storage path's internal parallelism (app.Disk's 40-way
	// concurrency) plus per-core pipelining, so admission control bounds
	// the *queue* without throttling the service rate.
	DefaultMaxInflight = 64
	// DefaultCoDelTarget / DefaultCoDelInterval parameterize the CoDel
	// controller, scaled to the simulated datacenter's millisecond RTTs.
	DefaultCoDelTarget   = 2 * sim.Millisecond
	DefaultCoDelInterval = 20 * sim.Millisecond
	// DefaultBreakerCooldown is the open→half-open wait;
	// DefaultBreakerProbes the half-open probe allowance.
	DefaultBreakerCooldown = 20 * sim.Millisecond
	DefaultBreakerProbes   = 2
	// DefaultRetryBurst caps the retry token bucket.
	DefaultRetryBurst = 10
)

// Spec is the full overload-resilience configuration for a cluster. The
// zero value (and a nil *Spec) disables everything: the simulation takes
// the exact legacy code paths and stays bit-identical with historical
// runs. Spec is part of cluster.Config, so every knob participates in
// the runner's content-keyed cache identity.
type Spec struct {
	// QueueCap bounds the server's admission queue; arrivals beyond it
	// are rejected (drop-tail). Zero takes DefaultQueueCap when the
	// admission subsystem is otherwise enabled. At most
	// DefaultMaxInflight admitted requests are dispatched at once;
	// queued work waits for a slot.
	QueueCap int `json:"queueCap,omitempty"`
	// Admit selects the shedding policy; empty takes AdmitDropTail when
	// the admission subsystem is otherwise enabled. AdmitCoDel runs with
	// DefaultCoDelTarget and DefaultCoDelInterval.
	Admit AdmitPolicy `json:"admit,omitempty"`
	// DedupCap overrides the server's bounded duplicate-suppression
	// window (zero keeps the server's built-in default).
	DedupCap int `json:"dedupCap,omitempty"`

	// Deadline is the client's end-to-end request deadline, distinct from
	// the per-hop RTO: a request still incomplete at its deadline fails
	// terminally (no further retransmissions), and a response arriving
	// past it no longer counts as goodput. Zero disables.
	Deadline sim.Duration `json:"deadline,omitempty"`
	// RetryBudget is the token-bucket retry allowance: each first send
	// earns RetryBudget tokens (capped at DefaultRetryBurst) and each
	// retransmission spends one. A retry with no token available converts
	// to a terminal failure instead of amplifying load. Zero disables.
	RetryBudget float64 `json:"retryBudget,omitempty"`
	// BreakerThreshold opens the per-client circuit breaker after this
	// many consecutive terminal failures; zero disables the breaker. It
	// half-opens after DefaultBreakerCooldown and then lets
	// DefaultBreakerProbes probes through.
	BreakerThreshold int `json:"breakerThreshold,omitempty"`
	// JitterBackoff adds a uniform [0, RTO/4] jitter to every backed-off
	// retransmission timeout, drawn from the client's existing seeded
	// stream, so synchronized timeout storms decohere.
	JitterBackoff bool `json:"jitterBackoff,omitempty"`
}

// Enabled reports whether the spec changes anything at all. A nil or
// zero spec counts as disabled, so the simulation takes the exact legacy
// code paths and stays bit-identical with historical runs.
func (s *Spec) Enabled() bool {
	if s == nil {
		return false
	}
	return s.Admission() || s.DedupCap > 0 || s.Deadline > 0 ||
		s.RetryBudget > 0 || s.BreakerThreshold > 0 || s.JitterBackoff
}

// Admission reports whether the server-side admission queue is enabled.
func (s *Spec) Admission() bool {
	if s == nil {
		return false
	}
	return s.QueueCap > 0 || s.Admit != ""
}

// Validate reports configuration errors.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	switch {
	case s.QueueCap < 0:
		return fmt.Errorf("resilience: queue capacity %d must be non-negative", s.QueueCap)
	case s.DedupCap < 0:
		return fmt.Errorf("resilience: dedup capacity %d must be non-negative", s.DedupCap)
	case s.Deadline < 0:
		return fmt.Errorf("resilience: deadline %v must be non-negative", s.Deadline)
	case s.RetryBudget < 0:
		return fmt.Errorf("resilience: retry budget %g must be non-negative", s.RetryBudget)
	case s.BreakerThreshold < 0:
		return fmt.Errorf("resilience: breaker threshold %d must be non-negative", s.BreakerThreshold)
	}
	switch s.Admit {
	case "", AdmitDropTail, AdmitDeadline, AdmitCoDel:
	default:
		return fmt.Errorf("resilience: unknown admission policy %q (want %v)", s.Admit, AdmitPolicies())
	}
	return nil
}

// EffQueueCap returns the resolved admission queue capacity.
func (s *Spec) EffQueueCap() int {
	if s.QueueCap > 0 {
		return s.QueueCap
	}
	return DefaultQueueCap
}

// EffAdmit returns the resolved admission policy.
func (s *Spec) EffAdmit() AdmitPolicy {
	if s.Admit != "" {
		return s.Admit
	}
	return AdmitDropTail
}

// NewBudget returns the spec's retry budget, or nil when disabled
// (unbounded retries — the legacy behavior).
func (s *Spec) NewBudget() *Budget {
	if s == nil || s.RetryBudget <= 0 {
		return nil
	}
	return &Budget{ratio: s.RetryBudget, burst: DefaultRetryBurst, tokens: DefaultRetryBurst}
}

// NewBreaker returns the spec's circuit breaker, or nil when disabled.
func (s *Spec) NewBreaker() *Breaker {
	if s == nil || s.BreakerThreshold <= 0 {
		return nil
	}
	return &Breaker{threshold: s.BreakerThreshold, cooldown: DefaultBreakerCooldown, probes: DefaultBreakerProbes}
}

// Budget is the token-bucket retry allowance: first sends earn tokens,
// retransmissions spend them, and an empty bucket converts a retry into
// a terminal failure. It damps retry amplification — under overload the
// retry rate is bounded at ratio × the first-send rate instead of
// multiplying every timeout into fresh load. All methods are nil-safe; a
// nil *Budget is the legacy unbounded-retry behavior.
type Budget struct {
	ratio  float64
	burst  float64
	tokens float64
}

// Earn credits one first send's worth of retry allowance.
func (b *Budget) Earn() {
	if b == nil {
		return
	}
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// TryRetry spends one token, reporting whether the retry is allowed.
func (b *Budget) TryRetry() bool {
	if b == nil {
		return true
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tokens returns the current balance (tests and telemetry).
func (b *Budget) Tokens() float64 {
	if b == nil {
		return math.Inf(1)
	}
	return b.tokens
}

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed passes all requests (healthy).
	BreakerClosed BreakerState = iota
	// BreakerOpen drops all requests until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen passes a bounded number of probe requests; a probe
	// success closes the breaker, a probe failure reopens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("breaker?%d", int(s))
}

// Breaker is a per-client circuit breaker keyed on consecutive terminal
// failures: closed → open after threshold failures, open → half-open
// after the cooldown, half-open → closed on a probe success (or back to
// open on a probe failure). While open it converts sends into local
// drops, taking a failing client's offered load off a saturated server
// instead of feeding the storm. All methods are nil-safe; a nil *Breaker
// never trips.
type Breaker struct {
	threshold int
	cooldown  sim.Duration
	probes    int

	state    BreakerState
	fails    int // consecutive failures while closed
	openedAt sim.Time
	probing  int // probes released while half-open

	// Opens counts closed/half-open → open transitions (telemetry).
	Opens int64
}

// Allow reports whether a request may be sent at simulated time now,
// consuming a probe slot when half-open.
func (b *Breaker) Allow(now sim.Time) bool {
	if b == nil {
		return true
	}
	switch b.state {
	case BreakerOpen:
		if now-b.openedAt < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = 0
		fallthrough
	case BreakerHalfOpen:
		if b.probing >= b.probes {
			return false
		}
		b.probing++
		return true
	}
	return true
}

// Success records a completed request.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.fails = 0
	if b.state == BreakerHalfOpen {
		b.state = BreakerClosed
	}
}

// Failure records a terminal failure at simulated time now.
func (b *Breaker) Failure(now sim.Time) {
	if b == nil {
		return
	}
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = now
		b.Opens++
	case BreakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = now
			b.fails = 0
			b.Opens++
		}
	}
}

// State returns the breaker's position (tests and telemetry); a nil
// breaker reads as closed.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	return b.state
}

// CoDel is the Controlled-Delay queue controller, judged once per
// dequeue against the head element's sojourn time. While the standing
// queue delay stays below target the queue is healthy; once it has been
// above target for a full interval the controller enters its dropping
// state and sheds on the interval/sqrt(count) schedule — the control law
// that drains a standing queue while letting bursts through. Pure state
// machine over simulated time: no randomness, deterministic at any
// worker count.
type CoDel struct {
	target   sim.Duration
	interval sim.Duration

	aboveAt  sim.Time // when sojourn first exceeded target; -1 = not above
	hasAbove bool
	dropping bool
	count    int
	dropNext sim.Time
}

// NewCoDel returns a controller with the given target sojourn and
// control interval.
func NewCoDel(target, interval sim.Duration) *CoDel {
	return &CoDel{target: target, interval: interval}
}

// OnDequeue judges the head element with the given queue sojourn at
// simulated time now, reporting whether it should be shed. Calls must
// come in nondecreasing now (the engine guarantees event order).
func (c *CoDel) OnDequeue(now sim.Time, sojourn sim.Duration) bool {
	if sojourn < c.target {
		// Below target: leave the dropping state and halve the drop count
		// so a recurrence resumes gently rather than from scratch.
		c.hasAbove = false
		c.dropping = false
		c.count /= 2
		return false
	}
	if !c.hasAbove {
		c.hasAbove = true
		c.aboveAt = now
		return false
	}
	if !c.dropping {
		if now-c.aboveAt < c.interval {
			return false
		}
		c.dropping = true
		c.count++
		c.dropNext = now + c.controlGap()
		return true
	}
	if now >= c.dropNext {
		c.count++
		c.dropNext = now + c.controlGap()
		return true
	}
	return false
}

// controlGap returns interval/sqrt(count), the CoDel drop schedule.
func (c *CoDel) controlGap() sim.Duration {
	gap := sim.Duration(float64(c.interval) / math.Sqrt(float64(c.count)))
	if gap < 1 {
		gap = 1
	}
	return gap
}

// Dropping reports whether the controller is in its dropping state.
func (c *CoDel) Dropping() bool { return c.dropping }
