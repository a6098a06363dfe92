package netsim

import (
	"sync"

	"ncap/internal/audit"
	"ncap/internal/fault"
	"ncap/internal/sim"
	"ncap/internal/stats"
	"ncap/internal/telemetry"
)

// DefaultLinkConfig matches Table 1: 10 Gb/s links with 1 µs latency.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		BandwidthBps: 10_000_000_000,
		Latency:      sim.Microsecond,
		QueueBytes:   4 * 1024 * 1024,
	}
}

// LinkConfig parameterizes a unidirectional link.
type LinkConfig struct {
	BandwidthBps int64        // serialization rate
	Latency      sim.Duration // propagation delay
	QueueBytes   int          // egress buffer; frames beyond it are dropped
}

// Link is a unidirectional point-to-point link with an egress FIFO. Frames
// serialize back-to-back at the link rate and arrive after the propagation
// delay. The egress buffer is drop-tail.
type Link struct {
	eng     *sim.Engine
	cfg     LinkConfig
	dst     Receiver
	inj     *fault.Injector
	busyTil sim.Time
	queued  int // bytes committed to the egress buffer but not yet on the wire
	peak    int // high-water mark of queued over the whole run

	// The completion FIFO: one record per committed frame, in
	// serialization order, from head[headIdx] to tail[tailIdx-1]. A record
	// leaves (freeing its bytes from queued) once the engine has passed
	// its key; see drain. completed counts records retired over the run.
	head, tail       *completionChunk
	headIdx, tailIdx int
	completed        uint64

	// Bytes counts payload+header bytes successfully transmitted; Drops
	// counts frames lost to a full egress buffer.
	Bytes stats.Counter
	Drops stats.Counter

	// Fault-injection accounting: frames lost on the medium (loss
	// process, flap or crash windows), delivered with flipped bits,
	// delivered twice, or delayed past a later frame.
	FaultDrops    stats.Counter
	FaultCorrupts stats.Counter
	FaultDups     stats.Counter
	FaultDelays   stats.Counter

	// trace receives fault events when telemetry is enabled (see
	// RegisterTelemetry); nil otherwise, and Emit no-ops. name labels the
	// link in those events.
	trace *telemetry.EventTrace
	name  string

	// Shard-boundary state (see shard.go; nil port = ordinary link).
	// Deliveries on a boundary link are staged into port instead of
	// scheduled on the sending engine and later injected on dstEng — the
	// destination component's shard engine; linkID and frameIdx give
	// each staged frame a partition-invariant identity.
	port     *Outbox
	dstEng   *sim.Engine
	linkID   uint64
	frameIdx uint64

	// Audit state (nil/zero outside audited runs). The aud* counters run
	// from t=0 and are never reset — unlike the Fault* counters above,
	// which reset at the measurement boundary while frames are in flight —
	// so conservation holds exactly at quiescence:
	//   audDelivered == audSent - audFaultDrops + audDups.
	aud           *PacketAudit
	audName       string
	audSent       int64
	audDelivered  int64
	audFaultDrops int64
	audDups       int64
}

// NewLink connects a new link to the destination receiver.
func NewLink(eng *sim.Engine, cfg LinkConfig, dst Receiver) *Link {
	if cfg.BandwidthBps <= 0 {
		panic("netsim: link bandwidth must be positive")
	}
	if dst == nil {
		panic("netsim: link destination must not be nil")
	}
	return &Link{eng: eng, cfg: cfg, dst: dst}
}

// SetInjector attaches a fault injector to the link; nil detaches it.
// Every frame that wins an egress-buffer slot is then judged once, in
// serialization order, before its delivery is scheduled.
func (l *Link) SetInjector(inj *fault.Injector) { l.inj = inj }

// Injector returns the attached fault injector (nil on a perfect link).
func (l *Link) Injector() *fault.Injector { return l.inj }

// A completion is a committed frame's end of serialization: the engine key
// a dequeue event scheduled at Send would have carried, and the bytes the
// frame holds in the egress buffer until then. Keeping completions as
// records instead of events halves the engine events per frame hop; the
// key keeps them exact (see drain).
type completion struct {
	key sim.Key
	ws  int
}

// completionChunk is one fixed-size block of a link's completion FIFO.
// Blocks beyond a link's first come from chunkPool and return to it once
// drained, so the memory a burst needs is shared across links instead of
// each link keeping its own peak.
type completionChunk struct {
	recs [32]completion
	next *completionChunk
}

var chunkPool = sync.Pool{New: func() any { return new(completionChunk) }}

// pushCompletion appends a record to the completion FIFO.
func (l *Link) pushCompletion(key sim.Key, ws int) {
	switch {
	case l.tail == nil:
		l.head = chunkPool.Get().(*completionChunk)
		l.tail = l.head
	case l.tailIdx == len(l.tail.recs):
		c := chunkPool.Get().(*completionChunk)
		l.tail.next = c
		l.tail, l.tailIdx = c, 0
	}
	l.tail.recs[l.tailIdx] = completion{key, ws}
	l.tailIdx++
}

// drain retires every completion the engine has passed, freeing its bytes
// from queued. It runs wherever queued is read, and gives exactly the
// value the per-frame dequeue events would have left: a record is retired
// iff its dequeue event would have fired before the current one.
func (l *Link) drain() {
	for l.queued > 0 { // every record holds bytes, so queued > 0 iff any remain
		if l.headIdx == len(l.head.recs) {
			c := l.head
			l.head, l.headIdx = c.next, 0
			c.next = nil
			chunkPool.Put(c)
		}
		r := &l.head.recs[l.headIdx]
		if !l.eng.Passed(r.key) {
			return
		}
		l.queued -= r.ws
		l.completed++
		l.headIdx++
	}
	// Empty: head == tail; keep that chunk and refill it from the start.
	l.headIdx, l.tailIdx = 0, 0
}

// Completions returns the number of frames that have finished serializing
// over the whole run: the dequeue events a per-frame scheduler would have
// fired by now.
func (l *Link) Completions() uint64 {
	l.drain()
	return l.completed
}

// linkDeliver hands an arrived frame to the link's receiver (a0 is the
// *Link, a1 the *Packet).
func linkDeliver(a0, a1 any) {
	l := a0.(*Link)
	if l.aud != nil {
		l.audDelivered++
	}
	l.dst.Receive(a1.(*Packet))
}

// EnableAudit adopts every frame this link commits into the tracker and
// keeps never-reset conservation counters, checked by AuditConservation.
// name labels the link in violations (e.g. "link.from/node1").
func (l *Link) EnableAudit(t *PacketAudit, name string) {
	l.aud = t
	l.audName = name
}

// AuditConservation verifies sent = delivered + fault-dropped - duplicated
// over the whole run. Call it only at quiescence: frames still on the
// wire would show up as missing deliveries.
func (l *Link) AuditConservation(a *audit.Auditor) {
	if l.aud == nil {
		return
	}
	a.CheckInt("link."+l.audName, "packet-conservation", int64(l.eng.Now()),
		l.audSent-l.audFaultDrops+l.audDups, l.audDelivered)
}

// Send enqueues a frame for transmission, taking ownership of it: dropped
// frames (egress overflow or fault loss) are released to the pool here,
// delivered frames become the receiver's to release. It returns false if
// the egress buffer is full and the frame was dropped.
func (l *Link) Send(p *Packet) bool {
	now := l.eng.Now()
	if l.aud != nil {
		l.aud.adopt(p, "link."+l.audName)
	}
	if l.busyTil < now {
		l.busyTil = now
	}
	l.drain()
	ws := p.WireSize()
	if l.queued+ws > l.cfg.QueueBytes && l.queued > 0 {
		l.Drops.Inc()
		p.Release()
		return false
	}
	if l.aud != nil {
		l.audSent++
	}
	txTime := l.serialization(ws)
	l.queued += ws
	if l.queued > l.peak {
		l.peak = l.queued
	}
	l.busyTil += txTime
	arrival := l.busyTil + l.cfg.Latency
	l.Bytes.Add(int64(ws))
	l.pushCompletion(l.eng.Reserve(l.busyTil), ws)
	if l.inj != nil {
		if !l.sendFaulty(p, arrival) {
			return true // serialized, then lost on the medium
		}
	} else if l.port != nil {
		l.stage(p, arrival)
	} else {
		l.eng.AtArg2(arrival, linkDeliver, l, p)
	}
	return true
}

// sendFaulty schedules delivery under the attached injector's verdict.
// It reports false when the frame was lost on the medium — the sender
// still spent the serialization time and counts the bytes as
// transmitted, exactly as with a physical-layer loss.
func (l *Link) sendFaulty(p *Packet, arrival sim.Time) bool {
	act := l.inj.Judge(l.eng.Now())
	if act.Drop {
		l.FaultDrops.Inc()
		if l.aud != nil {
			l.audFaultDrops++
		}
		l.emitFault("drop", float64(p.WireSize()))
		p.Release()
		return false
	}
	if act.Corrupt {
		// Flip bits in the frame copy on the wire: the payload pointer is
		// shared with any duplicate, but Corrupt marks this *Packet for
		// the whole rest of its path, which matches a frame corrupted on
		// its first hop failing FCS at every store-and-forward check.
		p.Corrupt = true
		l.FaultCorrupts.Inc()
		l.emitFault("corrupt", float64(p.WireSize()))
	}
	if act.ExtraDelay > 0 {
		l.FaultDelays.Inc()
		l.emitFault("delay", float64(act.ExtraDelay))
		arrival += act.ExtraDelay
	}
	if l.port != nil {
		l.stage(p, arrival)
	} else {
		l.eng.AtArg2(arrival, linkDeliver, l, p)
	}
	if act.Duplicate {
		l.FaultDups.Inc()
		l.emitFault("dup", float64(p.WireSize()))
		// The duplicate is its own frame instance trailing the original
		// by one serialization slot (a retransmitting middlebox).
		var dup *Packet
		if l.aud != nil {
			l.audDups++
			// Allocate through the tracker so the duplicate is registered
			// as live; copying *p would carry the aud pointer anyway, but
			// only an allocPacket'd frame is in the live set.
			dup = l.aud.allocPacket("link." + l.audName + "/dup")
		} else {
			dup = AllocPacket()
		}
		*dup = *p
		if l.port != nil {
			l.stage(dup, arrival+l.serialization(p.WireSize()))
		} else {
			l.eng.AtArg2(arrival+l.serialization(p.WireSize()), linkDeliver, l, dup)
		}
	}
	return true
}

// Busy reports whether the link is currently serializing a frame.
func (l *Link) Busy() bool { return l.busyTil > l.eng.Now() }

// QueuedBytes returns the bytes waiting in (or entering) the egress buffer.
func (l *Link) QueuedBytes() int {
	l.drain()
	return l.queued
}

// PeakQueuedBytes returns the egress buffer's high-water mark over the
// whole run. It is never reset — not at the measurement boundary, not
// between audit epochs: a port that filled during warmup still filled,
// and an audited run reports the same peak as an unaudited one (the
// audit's post-collection grace window cannot perturb a Result already
// snapshotted). Sharded runs keep the peak on the sending engine: the
// egress buffer fills before a boundary frame is staged for its
// destination shard.
func (l *Link) PeakQueuedBytes() int { return l.peak }

func (l *Link) serialization(bytes int) sim.Duration {
	return sim.Duration(int64(bytes) * 8 * int64(sim.Second) / l.cfg.BandwidthBps)
}
