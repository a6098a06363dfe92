package app

import (
	"ncap/internal/netsim"
	"ncap/internal/sim"
	"ncap/internal/stats"
)

// ClosedLoopClient issues requests with a fixed concurrency window: a new
// request is sent only when a previous response returns (plus think time).
// The paper deliberately avoids this client design (Sec. 5, citing
// Treadmill): a closed loop self-throttles when the server slows down, so
// the measured tail hides exactly the episodes an SLA cares about. It is
// implemented here to reproduce that methodology argument — see
// BenchmarkMethodology_OpenVsClosedLoop.
type ClosedLoopClient struct {
	eng     *sim.Engine
	addr    netsim.Addr
	server  netsim.Addr
	uplink  *netsim.Link
	payload []byte
	think   sim.Duration
	window  int
	rng     *sim.Rand

	nextSeq     uint64
	sent        map[uint64]sim.Time
	lat         *stats.LatencyRecorder
	measureFrom sim.Time
	running     bool

	// Sent and Completed count requests issued and answered.
	Sent      stats.Counter
	Completed stats.Counter

	// PacketList is the run's packet list the requests come from; nil draws
	// from the process pool. Set before Start.
	PacketList *netsim.PacketList
}

// NewClosedLoopClient builds a client that keeps `window` requests in
// flight, waiting `think` between a response and the next request.
func NewClosedLoopClient(eng *sim.Engine, addr, server netsim.Addr, uplink *netsim.Link,
	payload []byte, window int, think sim.Duration, rng *sim.Rand) *ClosedLoopClient {
	if window <= 0 {
		panic("app: closed-loop window must be positive")
	}
	return &ClosedLoopClient{
		eng: eng, addr: addr, server: server, uplink: uplink,
		payload: payload, window: window, think: think, rng: rng,
		sent: map[uint64]sim.Time{},
		lat:  stats.NewLatencyRecorder(),
	}
}

// Latency returns the RTT recorder.
func (c *ClosedLoopClient) Latency() *stats.LatencyRecorder { return c.lat }

// Start fills the concurrency window.
func (c *ClosedLoopClient) Start() {
	if c.running {
		return
	}
	c.running = true
	for i := 0; i < c.window; i++ {
		c.send()
	}
}

// Stop halts issuing; in-flight responses still record.
func (c *ClosedLoopClient) Stop() { c.running = false }

// BeginMeasurement resets the recorder at the warmup boundary.
func (c *ClosedLoopClient) BeginMeasurement() {
	c.lat.Reset()
	c.measureFrom = c.eng.Now()
	c.Sent.Reset()
	c.Completed.Reset()
}

func (c *ClosedLoopClient) send() {
	seq := c.nextSeq
	c.nextSeq++
	id := uint64(c.addr)<<40 | seq
	c.sent[id] = c.eng.Now()
	c.Sent.Inc()
	c.uplink.Send(c.PacketList.NewRequest(c.addr, c.server, id, c.payload))
}

// closedLoopSend issues the next request after think time (arg is the
// *ClosedLoopClient).
func closedLoopSend(arg any) { arg.(*ClosedLoopClient).send() }

// Receive implements netsim.Receiver. Multi-segment responses complete on
// the final segment. Delivered frames are released on every path.
func (c *ClosedLoopClient) Receive(p *netsim.Packet) {
	defer p.Release()
	if p.Kind != netsim.KindResponse || p.Seg != p.SegCount-1 {
		return
	}
	t0, ok := c.sent[p.ReqID]
	if !ok {
		return
	}
	delete(c.sent, p.ReqID)
	c.Completed.Inc()
	if t0 >= c.measureFrom {
		c.lat.Record(c.eng.Now() - t0)
	}
	if !c.running {
		return
	}
	// The defining closed-loop property: issuance waits for completion.
	if c.think > 0 {
		c.eng.ScheduleArg(c.rng.Exp(c.think), closedLoopSend, c)
	} else {
		c.send()
	}
}
