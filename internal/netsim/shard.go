package netsim

import (
	"ncap/internal/sim"
)

// Shard-port plumbing: a link whose destination lives on another shard's
// engine cannot schedule delivery locally — the two timer wheels advance
// on different goroutines. Instead the link stages an egress-timestamped
// Frame into its shard's Outbox; the shard coordinator (internal/cluster)
// collects outboxes at each synchronization barrier, sorts the frames
// into a canonical order, and injects them on the destination engines via
// sim.Engine.InjectAt. Everything on the sending side — serialization,
// egress-buffer accounting, drops, fault injection — runs exactly as on
// an intra-shard link; only the final delivery schedule crosses.

// Frame is one packet in flight between shards: the boundary link it
// crossed, its arrival time at the destination, and the send-side
// timestamps that make cross-shard delivery order deterministic and
// independent of the partitioning (see Frame ordering in Less).
type Frame struct {
	Link    *Link
	Pkt     *Packet
	Arrival sim.Time // delivery time on the destination engine
	Sent    sim.Time // sender-engine time of the Send call (the schedule time)
	LinkID  uint64   // construction-order identity of the boundary link
	Index   uint64   // per-link egress sequence number
}

// Less orders frames canonically: by arrival, then send time, then the
// boundary link's construction-order identity, then the per-link egress
// index. Every key is independent of the shard count and of barrier
// timing, so a 2-shard and an 8-shard run inject identical sequences.
func (f Frame) Less(g Frame) bool {
	if f.Arrival != g.Arrival {
		return f.Arrival < g.Arrival
	}
	if f.Sent != g.Sent {
		return f.Sent < g.Sent
	}
	if f.LinkID != g.LinkID {
		return f.LinkID < g.LinkID
	}
	return f.Index < g.Index
}

// Aux is the frame's tie-break key in the destination engine's queue
// (sim.Key.aux): nonzero, so injected deliveries order after local
// events at equal (when, sat), and unique per (link, frame), so equal
// (when, sat) injections order identically at any shard count.
func (f Frame) Aux() uint64 { return (f.LinkID+1)<<32 | (f.Index & (1<<32 - 1)) }

// Inject schedules the frame's delivery on the destination shard's
// engine. Only the shard coordinator calls this, between barriers, when
// no shard goroutine is running.
func (f Frame) Inject() {
	f.Link.dstEng.InjectAt(f.Arrival, f.Sent, f.Aux(), linkDeliver, f.Link, f.Pkt)
}

// Outbox collects the frames a shard's boundary links staged since the
// last barrier. It is single-goroutine: only the owning shard appends,
// and the coordinator drains it while the shard is parked.
type Outbox struct {
	frames []Frame
}

// DrainInto appends the staged frames to dst, clears the outbox (keeping
// its capacity for the next round), and returns the extended slice.
func (o *Outbox) DrainInto(dst []Frame) []Frame {
	dst = append(dst, o.frames...)
	for i := range o.frames {
		o.frames[i] = Frame{} // drop Packet references
	}
	o.frames = o.frames[:0]
	return dst
}

// SetShardPort turns the link into a shard boundary: deliveries are
// staged into out (with identity id) instead of scheduled on the sending
// engine, and injected on dst — the destination component's shard engine
// — at the next barrier. Egress-buffer accounting stays on the sending
// engine. Call before any traffic flows.
func (l *Link) SetShardPort(out *Outbox, id uint64, dst *sim.Engine) {
	l.port = out
	l.linkID = id
	l.dstEng = dst
}

// Latency returns the link's propagation delay — the shard coordinator's
// synchronization lookahead.
func (l *Link) Latency() sim.Duration { return l.cfg.Latency }

// stage appends a cross-shard delivery to the outbox in place of the
// sender-engine schedule the intra-shard path would have used.
func (l *Link) stage(p *Packet, arrival sim.Time) {
	l.port.frames = append(l.port.frames, Frame{
		Link: l, Pkt: p, Arrival: arrival, Sent: l.eng.Now(),
		LinkID: l.linkID, Index: l.frameIdx,
	})
	l.frameIdx++
}
