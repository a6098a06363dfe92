package app

import (
	"ncap/internal/netsim"
	"ncap/internal/resilience"
	"ncap/internal/sim"
	"ncap/internal/stats"
	"ncap/internal/telemetry"
)

// ClientConfig parameterizes one open-loop burst client.
type ClientConfig struct {
	// BurstSize requests are emitted per burst (the paper's example: 200).
	BurstSize int
	// Period is the burst interval; the paper varies it between 1.3 and
	// 20 ms to set the load level.
	Period sim.Duration
	// Spacing separates requests within a burst at the sender.
	Spacing sim.Duration
	// StartOffset staggers client phases so bursts do not align exactly.
	StartOffset sim.Duration
	// RTO is the retransmission timeout for lost requests/responses; zero
	// disables retransmission.
	RTO sim.Duration
	// MaxRetries bounds retransmissions per request.
	MaxRetries int
	// Backoff doubles the RTO on every retransmission of a request
	// (TCP-style exponential backoff, capped at BackoffCap). Off by
	// default: the fault-free experiments predate it and their recorded
	// results rely on the fixed-RTO schedule.
	Backoff bool
	// BackoffCap bounds the backed-off RTO; zero means 8×RTO.
	BackoffCap sim.Duration
	// Deadline is the end-to-end completion deadline per request,
	// distinct from the per-hop RTO: at the deadline the request fails
	// terminally (no further retransmissions), and a response arriving
	// past it no longer counts as completed. Zero disables.
	Deadline sim.Duration
	// JitterBackoff adds a uniform [0, RTO/4] jitter (drawn from the
	// client's seeded stream) to every backed-off retransmission timeout,
	// so synchronized retry storms decohere.
	JitterBackoff bool
}

// DefaultClientConfig returns a burst client shaped like the paper's:
// bursty ON/OFF arrivals, datacenter-scale RTO.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		BurstSize:  100,
		Period:     10 * sim.Millisecond,
		Spacing:    500 * sim.Nanosecond,
		RTO:        25 * sim.Millisecond,
		MaxRetries: 2,
	}
}

// pendingReq tracks one outstanding request.
type pendingReq struct {
	sent     sim.Time    // scheduled first transmission (latency is measured from here)
	dst      netsim.Addr // destination server (retransmissions reuse it)
	deadline sim.Time    // absolute completion deadline (zero = none)
	got      uint64      // bitmask of distinct response segments received
	need     int         // segments expected (learned from the first segment)
	retries  int
	timer    *sim.Timer
	// payload and respHint override the client's defaults for replayed
	// requests (per-record sizes); retransmissions reuse them so a
	// resend is byte-identical to the original.
	payload  []byte
	respHint int
}

// Client is an open-loop load generator: it emits bursts on schedule
// regardless of response progress (no client-side queueing bias, Sec. 5)
// and measures each request's round-trip time to the last response
// segment.
type Client struct {
	eng     *sim.Engine
	addr    netsim.Addr
	server  netsim.Addr
	uplink  *netsim.Link
	payload []byte
	cfg     ClientConfig
	rng     *sim.Rand

	nextSeq     uint64
	pending     map[uint64]*pendingReq
	lat         *stats.LatencyRecorder
	latHist     *telemetry.Histogram // live RTT distribution (nil when telemetry off)
	measureFrom sim.Time
	running     bool

	// Replay switches the client to schedule replay: Start stops
	// emitting bursts and the cluster fires pre-scheduled ReplayItems
	// instead (see internal/workload). Set before Start.
	Replay bool
	// Targets, when non-empty, fans the request stream across several
	// servers: successive requests rotate through the list in order, and
	// a retransmission sticks with its request's original destination
	// (the pending state lives there). Empty keeps every request on the
	// constructor's server — the paper's star. Set before Start.
	Targets []netsim.Addr
	// CoAccount turns on intended-send accounting in burst mode (trace
	// recording), so a recorded run's Lag counters match its replay's.
	CoAccount bool
	// OnSend, when set, observes every first transmission (trace
	// capture): scheduled time, flow, request size, response hint and
	// service class, in engine fire order.
	OnSend func(t sim.Time, flow, reqBytes, respHint int, class string)
	// Lag is the coordinated-omission report: every scheduled send plus
	// how far the actual transmission slipped behind the schedule.
	Lag stats.LagMeter
	// pacingFires counts this client's own pacing events (burst ticks,
	// per-request sends, replay fires). The cluster subtracts them from
	// the engine's event count in accounting runs so a recorded run and
	// its replay — whose pacing event shapes differ — report identical
	// Events.
	pacingFires uint64

	// sized payload caches for replayed records that differ from the
	// profile's request size (shared read-only across frames).
	reqPayloads  map[int][]byte
	bulkPayloads map[int][]byte

	// Sent counts first transmissions; Retransmits resends; Completed
	// requests with a full response; Abandoned requests that exhausted
	// retries (recorded at their give-up latency so tails stay honest).
	Sent        stats.Counter
	Completed   stats.Counter
	Retransmits stats.Counter
	Abandoned   stats.Counter
	// CorruptDrops counts response frames the client NIC's FCS check
	// discarded (fault injection); the request recovers via RTO.
	CorruptDrops stats.Counter
	// BulkSent counts one-way bulk-class frames emitted during replay.
	BulkSent stats.Counter

	// Budget is the token-bucket retry allowance; nil (the default) is
	// unbounded retries. Set before Start.
	Budget *resilience.Budget
	// Breaker is the per-client circuit breaker; nil never trips. Set
	// before Start.
	Breaker *resilience.Breaker
	// DeadlineExceeded counts requests that failed their end-to-end
	// deadline (timer expiry past the deadline, or a response arriving
	// too late to count); BudgetDenied counts retries converted to
	// terminal failures by an empty retry budget; BreakerDropped counts
	// sends the open breaker refused locally.
	DeadlineExceeded stats.Counter
	BudgetDenied     stats.Counter
	BreakerDropped   stats.Counter
}

// NewClient builds a client. uplink must lead to the switch; payload is
// the request body (its first bytes carry the request type).
func NewClient(eng *sim.Engine, addr, server netsim.Addr, uplink *netsim.Link, payload []byte, cfg ClientConfig, rng *sim.Rand) *Client {
	if cfg.BurstSize <= 0 || cfg.Period <= 0 {
		panic("app: client burst size and period must be positive")
	}
	return &Client{
		eng: eng, addr: addr, server: server, uplink: uplink,
		payload: payload, cfg: cfg, rng: rng,
		pending: map[uint64]*pendingReq{},
		lat:     stats.NewLatencyRecorder(),
	}
}

// Addr returns the client's network address.
func (c *Client) Addr() netsim.Addr { return c.addr }

// Engine returns the engine the client schedules on — its own shard's
// in a sharded run (see internal/cluster), so pre-scheduled work aimed
// at this client (trace replay) must land here, not on the primary.
func (c *Client) Engine() *sim.Engine { return c.eng }

// Latency returns the client's RTT recorder.
func (c *Client) Latency() *stats.LatencyRecorder { return c.lat }

// Outstanding returns the number of requests still awaiting responses.
func (c *Client) Outstanding() int { return len(c.pending) }

// Start begins emitting bursts after the configured offset. A Replay
// client only marks itself running: its sends were pre-scheduled from
// the trace, every one of which fires regardless of Stop — mirroring
// burst mode, where requests already scheduled within a burst still go
// out after Stop.
func (c *Client) Start() {
	if c.running {
		return
	}
	c.running = true
	if c.Replay {
		return
	}
	c.eng.ScheduleArg(c.cfg.StartOffset, clientBurst, c)
}

// Stop halts burst emission (outstanding requests keep completing).
func (c *Client) Stop() { c.running = false }

// BeginMeasurement resets the recorder; only requests first sent from now
// on are recorded (the warmup boundary).
func (c *Client) BeginMeasurement() {
	c.lat.Reset()
	c.latHist.Reset()
	c.measureFrom = c.eng.Now()
	c.Sent.Reset()
	c.Completed.Reset()
	c.Retransmits.Reset()
	c.Abandoned.Reset()
	c.CorruptDrops.Reset()
	c.BulkSent.Reset()
	c.DeadlineExceeded.Reset()
	c.BudgetDenied.Reset()
	c.BreakerDropped.Reset()
	c.Lag.Reset()
}

// PacingFires returns the client's pacing event count (see pacingFires).
func (c *Client) PacingFires() uint64 { return c.pacingFires }

// clientBurst and clientSendNew are the allocation-free trampolines for
// the per-burst and per-request schedule paths (arg is the *Client).
func clientBurst(arg any)   { arg.(*Client).burst() }
func clientSendNew(arg any) { arg.(*Client).sendNew() }

func (c *Client) burst() {
	c.pacingFires++
	if !c.running {
		return
	}
	for i := 0; i < c.cfg.BurstSize; i++ {
		delay := sim.Duration(i) * c.cfg.Spacing
		c.eng.ScheduleArg(delay, clientSendNew, c)
	}
	// Small deterministic jitter (±5%) keeps multi-client bursts from
	// locking into perfect alignment.
	jitter := c.rng.Duration(0, c.cfg.Period/10) - c.cfg.Period/20
	c.eng.ScheduleArg(c.cfg.Period+jitter, clientBurst, c)
}

func (c *Client) sendNew() {
	c.pacingFires++
	if c.CoAccount {
		// Burst-mode sends never slip: the scheduled time is the send
		// time. Recording the zero keeps a captured run's intended-send
		// count equal to its replay's.
		c.Lag.Record(0)
	}
	// The breaker gates before trace capture: a locally dropped send never
	// reached the wire, so a recorded trace must not contain it.
	if !c.Breaker.Allow(c.eng.Now()) {
		c.BreakerDropped.Inc()
		return
	}
	if c.OnSend != nil {
		c.OnSend(c.eng.Now(), 0, len(c.payload), 0, "")
	}
	seq := c.nextSeq
	c.nextSeq++
	id := uint64(c.addr)<<40 | seq
	pr := &pendingReq{sent: c.eng.Now(), dst: c.dest(seq)}
	if c.cfg.Deadline > 0 {
		pr.deadline = c.eng.Now() + c.cfg.Deadline
	}
	c.pending[id] = pr
	c.Sent.Inc()
	c.Budget.Earn()
	c.transmit(id, pr)
}

// dest returns the seq-th request's destination: the fixed server, or
// the next stop in the Targets rotation. Pure function of seq, so a
// recorded run and its replay send every request to the same server.
func (c *Client) dest(seq uint64) netsim.Addr {
	if len(c.Targets) == 0 {
		return c.server
	}
	return c.Targets[seq%uint64(len(c.Targets))]
}

// ReplayItem is one pre-scheduled trace send, owned by the cluster and
// fired through ReplayFire at its At time.
type ReplayItem struct {
	C *Client
	// Sched is the trace's intended send time; At the actual (pacing
	// may push it later). Latency is charged from Sched.
	Sched, At sim.Time
	Flow      int
	ReqBytes  int
	RespHint  int
	Bulk      bool
}

// ReplayFire is the engine trampoline for scheduled trace sends (arg is
// the *ReplayItem).
func ReplayFire(arg any) { it := arg.(*ReplayItem); it.C.replaySend(it) }

func (c *Client) replaySend(it *ReplayItem) {
	c.pacingFires++
	c.Lag.Record(c.eng.Now() - it.Sched)
	if it.Bulk {
		// One-way background frame: no pending state, no RTO, payload
		// NCAP's latency-critical templates must not match.
		pkt := netsim.AllocPacket()
		pkt.Src, pkt.Dst, pkt.Kind = c.addr, c.server, netsim.KindBulk
		pkt.Payload = c.sizedPayload(&c.bulkPayloads, it.ReqBytes, "PUT /trace-bulk")
		pkt.PayloadLen = it.ReqBytes
		c.BulkSent.Inc()
		c.uplink.Send(pkt)
		return
	}
	if !c.Breaker.Allow(c.eng.Now()) {
		c.BreakerDropped.Inc()
		return
	}
	seq := c.nextSeq
	c.nextSeq++
	id := uint64(c.addr)<<40 | seq
	pr := &pendingReq{sent: it.Sched, dst: c.dest(seq), respHint: it.RespHint}
	if c.cfg.Deadline > 0 {
		pr.deadline = c.eng.Now() + c.cfg.Deadline
	}
	if it.ReqBytes != len(c.payload) {
		pr.payload = c.sizedPayload(&c.reqPayloads, it.ReqBytes, "")
	}
	c.pending[id] = pr
	c.Sent.Inc()
	c.Budget.Earn()
	c.transmit(id, pr)
}

// sizedPayload returns a shared payload of the given size from the
// cache, seeding new entries with prefix (empty: the client's request
// payload, so the bytes NCAP classifies on stay authentic) padded with
// filler.
func (c *Client) sizedPayload(cache *map[int][]byte, n int, prefix string) []byte {
	if *cache == nil {
		*cache = map[int][]byte{}
	}
	if b, ok := (*cache)[n]; ok {
		return b
	}
	src := []byte(prefix)
	if prefix == "" {
		src = c.payload
	}
	b := make([]byte, n)
	for i := copy(b, src); i < n; i++ {
		b[i] = 'x'
	}
	(*cache)[n] = b
	return b
}

func (c *Client) transmit(id uint64, pr *pendingReq) {
	payload := pr.payload
	if payload == nil {
		payload = c.payload
	}
	pkt := netsim.NewRequest(c.addr, pr.dst, id, payload)
	pkt.RespHint = pr.respHint
	pkt.Deadline = pr.deadline
	c.uplink.Send(pkt)
	var to sim.Duration
	if c.cfg.RTO > 0 {
		to = c.rto(pr.retries)
		if c.cfg.JitterBackoff && pr.retries > 0 {
			to += c.rng.Duration(0, c.cfg.RTO/4)
		}
	}
	if pr.deadline > 0 {
		// Never arm past the deadline: with no RTO at all the deadline is
		// still the request's terminal timer.
		rem := pr.deadline - c.eng.Now()
		if rem < 1 {
			rem = 1
		}
		if to <= 0 || rem < to {
			to = rem
		}
	}
	if to <= 0 {
		return
	}
	if pr.timer == nil {
		pr.timer = sim.NewTimer(c.eng, func() { c.timeout(id) })
	}
	pr.timer.Arm(to)
}

// rto returns the retransmission timeout for the given retry count:
// fixed by default, doubling per retry up to BackoffCap with Backoff set.
func (c *Client) rto(retries int) sim.Duration {
	if !c.cfg.Backoff || retries <= 0 {
		return c.cfg.RTO
	}
	limit := c.cfg.BackoffCap
	if limit <= 0 {
		limit = 8 * c.cfg.RTO
	}
	rto := c.cfg.RTO
	for i := 0; i < retries && rto < limit; i++ {
		rto *= 2
	}
	if rto > limit {
		rto = limit
	}
	return rto
}

func (c *Client) timeout(id uint64) {
	pr, ok := c.pending[id]
	if !ok {
		return
	}
	if pr.deadline > 0 && c.eng.Now() >= pr.deadline {
		// The end-to-end deadline passed: terminal, no more retries.
		c.DeadlineExceeded.Inc()
		c.fail(id, pr)
		return
	}
	if pr.retries >= c.cfg.MaxRetries {
		// Give up; record the time wasted so the tail reflects the loss.
		c.Abandoned.Inc()
		c.fail(id, pr)
		return
	}
	if !c.Budget.TryRetry() {
		// The retry budget is spent: amplifying load won't help, convert
		// the retry into a terminal failure instead.
		c.BudgetDenied.Inc()
		c.fail(id, pr)
		return
	}
	pr.retries++
	c.Retransmits.Inc()
	c.transmit(id, pr)
}

// fail terminates an outstanding request, recording its give-up latency
// (so the tail reflects the loss) and feeding the circuit breaker.
func (c *Client) fail(id uint64, pr *pendingReq) {
	if pr.sent >= c.measureFrom {
		c.lat.Record(c.eng.Now() - pr.sent)
		c.latHist.Record(c.eng.Now() - pr.sent)
	}
	c.Breaker.Failure(c.eng.Now())
	delete(c.pending, id)
}

// Receive implements netsim.Receiver for response segments. Corrupt
// frames fail the client NIC's FCS check and are dropped; the RTO path
// recovers the request. The client is each delivered frame's final owner
// and releases it to the pool on every path.
func (c *Client) Receive(p *netsim.Packet) {
	defer p.Release()
	if p.Corrupt {
		c.CorruptDrops.Inc()
		return
	}
	if p.Kind != netsim.KindResponse {
		return
	}
	pr, ok := c.pending[p.ReqID]
	if !ok {
		return // duplicate from a retransmitted request
	}
	if pr.need == 0 {
		pr.need = p.SegCount
	}
	// Distinct segments only: duplicates from a retransmitted request must
	// not complete a response whose tail never arrived. Responses beyond
	// 64 segments complete on the last segment's arrival (none of the
	// built-in profiles come close to that size).
	if p.Seg < 64 {
		pr.got |= 1 << uint(p.Seg)
	}
	if countBits(pr.got) < min64(pr.need, 64) {
		return
	}
	if pr.timer != nil {
		pr.timer.Stop()
	}
	if pr.deadline > 0 && c.eng.Now() > pr.deadline {
		// The full response arrived, but past the deadline: the caller has
		// already moved on, so this is a failure, not goodput.
		c.DeadlineExceeded.Inc()
		c.Breaker.Failure(c.eng.Now())
	} else {
		c.Completed.Inc()
		c.Breaker.Success()
	}
	if pr.sent >= c.measureFrom {
		c.lat.Record(c.eng.Now() - pr.sent)
		c.latHist.Record(c.eng.Now() - pr.sent)
	}
	delete(c.pending, p.ReqID)
}

func countBits(v uint64) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

func min64(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TargetPeriodFor computes the per-client burst period that yields the
// given aggregate load across nClients identical clients.
func TargetPeriodFor(loadRPS float64, burstSize, nClients int) sim.Duration {
	if loadRPS <= 0 || burstSize <= 0 || nClients <= 0 {
		panic("app: TargetPeriodFor needs positive arguments")
	}
	perClient := loadRPS / float64(nClients)
	return sim.Duration(float64(burstSize) / perClient * float64(sim.Second))
}
