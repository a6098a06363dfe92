package app

import (
	"math/bits"

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
	// (TCP-style exponential backoff, capped at 8×RTO). Off by
	// default: the fault-free experiments predate it and their recorded
	// results rely on the fixed-RTO schedule.
	Backoff bool
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

// pendingReq tracks one outstanding request. The run's storage pools
// them: its RTO timer is embedded and bound to the request once, when the
// pendingReq is first built, and the pendingReq returns to the free list
// when the request completes or fails (its timer stopped or just fired).
type pendingReq struct {
	c     *Client
	timer sim.Timer // RTO and deadline timer; fires pr.expire
	reqState
}

// reqState is the part of a pendingReq that is reset for every request.
type reqState struct {
	id       uint64
	sent     sim.Time    // scheduled first transmission (latency is measured from here)
	dst      netsim.Addr // destination server (retransmissions reuse it)
	deadline sim.Time    // absolute completion deadline (zero = none)
	got      uint64      // bitmask of distinct response segments received
	need     int         // segments expected (learned from the first segment)
	retries  int
	// payload and respHint override the client's defaults for replayed
	// requests (per-record sizes); retransmissions reuse them so a
	// resend is byte-identical to the original.
	payload  []byte
	respHint int
}

func (pr *pendingReq) expire() { pr.c.timeout(pr) }

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

	nextSeq uint64
	// pending indexes outstanding requests by sequence number (the low
	// bits of their id; see slot). Live sequence numbers span less than
	// the ring, so they never share a slot; a send that would doubles it.
	pending     []*pendingReq
	outstanding int
	st          *Storage // the run's storage: pending requests, rings, recorder
	lat         *stats.LatencyRecorder
	latHist     *telemetry.Histogram // live RTT distribution (nil when telemetry off)
	measureFrom sim.Time
	running     bool
	nextBurst   sim.Handle // the pending burst tick (see Quiesce)

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
	// PacketList is the run's packet list the client's frames come from;
	// nil draws from the process pool. Set before Start.
	PacketList *netsim.PacketList
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
// the request body (its first bytes carry the request type). st is the
// run's storage, on eng; nil gives the client a storage of its own.
func NewClient(eng *sim.Engine, addr, server netsim.Addr, uplink *netsim.Link, payload []byte, cfg ClientConfig, rng *sim.Rand, st *Storage) *Client {
	if cfg.BurstSize <= 0 || cfg.Period <= 0 {
		panic("app: client burst size and period must be positive")
	}
	if st == nil {
		st = NewStorage(eng)
	} else if st.eng != eng {
		panic("app: client and storage on different engines")
	}
	return &Client{
		eng: eng, addr: addr, server: server, uplink: uplink,
		payload: payload, cfg: cfg, rng: rng, st: st,
		pending: st.ring(initialPendingRing),
		lat:     st.recorder(),
	}
}

// Latency returns the client's RTT recorder.
func (c *Client) Latency() *stats.LatencyRecorder { return c.lat }

// Outstanding returns the number of requests still awaiting responses.
func (c *Client) Outstanding() int { return c.outstanding }

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
	c.nextBurst = c.eng.ScheduleArg(c.cfg.StartOffset, clientBurst, c)
}

// Stop halts burst emission (outstanding requests keep completing).
func (c *Client) Stop() { c.running = false }

// Quiesce cancels the burst tick a stopped client still has scheduled.
// Stop leaves it pending — it fires as a no-op, and that event is part of
// the run — so it is only for post-run quiescence: with a burst period
// longer than the drain, the tick can lie arbitrarily far past the run.
func (c *Client) Quiesce() { c.nextBurst.Cancel() }

// BeginMeasurement resets the recorder; only requests first sent from now
// on are recorded (the warmup boundary). span is how long the client will
// record for (measurement window plus drain): a burst client sizes its
// sample buffer once, to its offered rate over span plus 5%, so recording
// never regrows it. A replay client has no fixed rate and skips this.
func (c *Client) BeginMeasurement(span sim.Duration) {
	c.lat.Reset()
	if !c.Replay {
		n := int64(c.cfg.BurstSize) * int64(span) / int64(c.cfg.Period)
		c.lat.Grow(int(n + n/20))
	}
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
	c.nextBurst = c.eng.ScheduleArg(c.cfg.Period+jitter, clientBurst, c)
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
	pr := c.newPending(reqState{sent: c.eng.Now(), dst: c.dest(seq)}, seq)
	c.Sent.Inc()
	c.Budget.Earn()
	c.transmit(pr)
}

// newPending registers request seq as outstanding with the given state,
// its id and deadline filled in.
func (c *Client) newPending(st reqState, seq uint64) *pendingReq {
	pr := c.st.request(c)
	pr.reqState = st
	pr.id = uint64(c.addr)<<40 | seq
	if c.cfg.Deadline > 0 {
		pr.deadline = c.eng.Now() + c.cfg.Deadline
	}
	for c.pending[c.slot(pr.id)] != nil {
		c.growPending()
	}
	c.pending[c.slot(pr.id)] = pr
	c.outstanding++
	return pr
}

// initialPendingRing is the smallest size of a new pending ring, a power
// of two; it doubles on demand.
const initialPendingRing = 256

// slot returns the ring slot of request id. An id's low 40 bits are its
// sequence number, and the ring never reaches 2^40 slots.
func (c *Client) slot(id uint64) int { return int(id & uint64(len(c.pending)-1)) }

// growPending doubles the pending ring and frees the old one. Live
// requests held distinct slots modulo the old size, so they hold distinct
// slots modulo the new one.
func (c *Client) growPending() {
	old := c.pending
	c.pending = c.st.ring(2 * len(old))
	for _, pr := range old {
		if pr != nil {
			c.pending[c.slot(pr.id)] = pr
		}
	}
	clear(old)
	c.st.rings.put(old)
}

// lookup returns the outstanding request with the given id, or nil. Ids
// with the same sequence residue share a slot, so a hit needs the full id.
func (c *Client) lookup(id uint64) *pendingReq {
	if pr := c.pending[c.slot(id)]; pr != nil && pr.id == id {
		return pr
	}
	return nil
}

// retire forgets a completed or failed request and recycles its state.
// The timer must not be pending.
func (c *Client) retire(pr *pendingReq) {
	c.pending[c.slot(pr.id)] = nil
	c.outstanding--
	c.st.pending.put(pr)
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
		pkt := c.PacketList.Alloc()
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
	st := reqState{sent: it.Sched, dst: c.dest(seq), respHint: it.RespHint}
	if it.ReqBytes != len(c.payload) {
		st.payload = c.sizedPayload(&c.reqPayloads, it.ReqBytes, "")
	}
	pr := c.newPending(st, seq)
	c.Sent.Inc()
	c.Budget.Earn()
	c.transmit(pr)
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

func (c *Client) transmit(pr *pendingReq) {
	payload := pr.payload
	if payload == nil {
		payload = c.payload
	}
	pkt := c.PacketList.NewRequest(c.addr, pr.dst, pr.id, payload)
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
	pr.timer.Arm(to)
}

// rto returns the retransmission timeout for the given retry count:
// fixed by default, doubling per retry up to 8×RTO with Backoff set.
func (c *Client) rto(retries int) sim.Duration {
	if !c.cfg.Backoff || retries <= 0 {
		return c.cfg.RTO
	}
	rto := c.cfg.RTO
	for i := 0; i < retries && rto < 8*c.cfg.RTO; i++ {
		rto *= 2
	}
	return rto
}

// timeout handles an RTO or deadline expiry of an outstanding request (a
// retired request's timer is always stopped, so it never fires).
func (c *Client) timeout(pr *pendingReq) {
	if pr.deadline > 0 && c.eng.Now() >= pr.deadline {
		// The end-to-end deadline passed: terminal, no more retries.
		c.DeadlineExceeded.Inc()
		c.fail(pr)
		return
	}
	if pr.retries >= c.cfg.MaxRetries {
		// Give up; record the time wasted so the tail reflects the loss.
		c.Abandoned.Inc()
		c.fail(pr)
		return
	}
	if !c.Budget.TryRetry() {
		// The retry budget is spent: amplifying load won't help, convert
		// the retry into a terminal failure instead.
		c.BudgetDenied.Inc()
		c.fail(pr)
		return
	}
	pr.retries++
	c.Retransmits.Inc()
	c.transmit(pr)
}

// fail terminates an outstanding request, recording its give-up latency
// (so the tail reflects the loss) and feeding the circuit breaker.
func (c *Client) fail(pr *pendingReq) {
	if pr.sent >= c.measureFrom {
		c.lat.Record(c.eng.Now() - pr.sent)
		c.latHist.Record(c.eng.Now() - pr.sent)
	}
	c.Breaker.Failure(c.eng.Now())
	c.retire(pr)
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
	pr := c.lookup(p.ReqID)
	if pr == nil {
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
	if bits.OnesCount64(pr.got) < min64(pr.need, 64) {
		return
	}
	pr.timer.Stop()
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
	c.retire(pr)
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
