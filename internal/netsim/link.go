package netsim

import (
	"fmt"

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

// Validate reports configuration errors.
func (c LinkConfig) Validate() error {
	switch {
	case c.BandwidthBps <= 0:
		return fmt.Errorf("netsim: link bandwidth must be positive")
	case c.Latency < 0:
		return fmt.Errorf("netsim: link latency must be non-negative")
	case c.QueueBytes <= 0:
		return fmt.Errorf("netsim: link queue must be positive")
	}
	return nil
}

// Link is a unidirectional point-to-point link with an egress FIFO. Frames
// serialize back-to-back at the link rate and arrive after the propagation
// delay. The egress buffer is drop-tail. A link into a switch also pays
// the switch's forwarding delay: it delivers each frame that much after
// its arrival, and the switch forwards it at once. A busy link costs the
// engine one event per delivered frame: serialization completions are
// records, not events.
type Link struct {
	eng     *sim.Engine
	cfg     LinkConfig
	dst     Receiver
	inj     *fault.Injector
	hold    sim.Duration // the receiving switch's forwarding delay, or 0
	busyTil sim.Time
	queued  int // bytes committed to the egress buffer but not yet on the wire
	peak    int // high-water mark of queued over the whole run

	// The completion FIFO: one record per committed frame, in
	// serialization order, keyed by the key a dequeue event scheduled at
	// Send would have carried and holding the bytes the frame occupies in
	// the egress buffer. Keeping completions as records instead of events
	// halves the engine events per frame hop. A record leaves (freeing its
	// bytes from queued) once the clock reaches the end of its
	// serialization; see drain.
	completions keyedFIFO[int]

	// The arrival FIFO: committed frames, keyed by the delivery key
	// reserved at Send, in key order. Only the head's delivery is an
	// engine event; see pushArrival.
	arrivals keyedFIFO[*Packet]

	// Bytes counts payload+header bytes successfully transmitted; Drops
	// counts frames lost to a full egress buffer.
	Bytes stats.Counter
	Drops stats.Counter

	// Fault-injection accounting: frames lost on the medium (loss
	// process or flap windows), delivered with flipped bits,
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

	// Audit state (nil/zero outside audited runs). The aud* counters run
	// from t=0 and are never reset — unlike the Fault* counters above,
	// which reset at the measurement boundary while frames are in flight —
	// so conservation holds exactly at quiescence:
	//   audDelivered == audSent - audFaultDrops + audDups.
	aud           *PacketAudit
	audOwner      string // "link." + name: the owner label of carried frames
	audDupOwner   string // audOwner + "/dup": of the duplicates it makes
	audSent       int64
	audDelivered  int64
	audFaultDrops int64
	audDups       int64
}

// NewLink connects a new link to the destination receiver. A link into a
// *Switch takes on the switch's forwarding delay.
func NewLink(eng *sim.Engine, cfg LinkConfig, dst Receiver) *Link {
	if cfg.BandwidthBps <= 0 {
		panic("netsim: link bandwidth must be positive")
	}
	if dst == nil {
		panic("netsim: link destination must not be nil")
	}
	l := &Link{
		eng: eng, cfg: cfg, dst: dst,
		completions: keyedFIFO[int]{pool: &completionChunks},
		arrivals:    keyedFIFO[*Packet]{pool: &arrivalChunks},
	}
	if sw, ok := dst.(*Switch); ok {
		l.hold = sw.fwDelay
	}
	return l
}

// SetInjector attaches a fault injector to the link; nil detaches it.
// Every frame that wins an egress-buffer slot is then judged once, in
// serialization order, before its delivery is scheduled.
func (l *Link) SetInjector(inj *fault.Injector) { l.inj = inj }

// drain retires every completion whose serialization has ended by now,
// freeing its bytes from queued. It runs wherever queued is read. The tie
// rule: a frame's bytes leave the buffer at the instant its serialization
// ends, before any frame is enqueued or the buffer is read at that
// instant, whatever order the engine fires that instant's events in.
func (l *Link) drain() {
	now := l.eng.Now()
	for l.queued > 0 { // every record holds bytes, so queued > 0 iff any remain
		r := l.completions.front()
		if r.key.When() > now {
			return
		}
		l.queued -= r.val
		l.completions.pop()
	}
}

// pushArrival schedules p's delivery under k, a key just reserved for it.
// A frame that arrives no earlier than the FIFO's tail joins the FIFO (its
// key orders after the tail's, which was reserved before it); one that
// overtakes the tail — a fault's extra delay on an earlier frame — is
// delivered by its own event. Either way it fires at k.
func (l *Link) pushArrival(k sim.Key, p *Packet) {
	switch {
	case l.arrivals.empty():
		l.eng.AtKeyArg2(k, linkDeliver, l, nil)
	case k.When() < l.arrivals.back().key.When():
		l.eng.AtKeyArg2(k, linkDeliver, l, p)
		return
	}
	l.arrivals.push(k, p)
}

// popArrival removes the FIFO's head frame, whose delivery is firing, and
// schedules the next head's.
func (l *Link) popArrival() *Packet {
	r := l.arrivals.front()
	p := r.val
	r.val = nil
	l.arrivals.pop()
	if !l.arrivals.empty() {
		l.eng.AtKeyArg2(l.arrivals.front().key, linkDeliver, l, nil)
	}
	return p
}

// linkDeliver hands an arrived frame to the link's receiver. a0 is the
// *Link; a1 is the *Packet for a frame delivered by its own event, and nil
// for the arrival FIFO's head.
func linkDeliver(a0, a1 any) {
	l := a0.(*Link)
	p, _ := a1.(*Packet)
	if p == nil {
		p = l.popArrival()
	}
	if l.aud != nil {
		l.audDelivered++
	}
	l.dst.Receive(p)
}

// EnableAudit adopts every frame this link commits into the tracker and
// keeps never-reset conservation counters, checked by AuditConservation.
// name labels the link in violations (e.g. "link.from/node1").
func (l *Link) EnableAudit(t *PacketAudit, name string) {
	l.aud = t
	l.audOwner = "link." + name
	l.audDupOwner = l.audOwner + "/dup"
}

// AuditConservation verifies sent = delivered + fault-dropped - duplicated
// over the whole run. Call it only at quiescence: frames still on the
// wire would show up as missing deliveries.
func (l *Link) AuditConservation(a *audit.Auditor) {
	if l.aud == nil {
		return
	}
	a.CheckInt(l.audOwner, "packet-conservation", int64(l.eng.Now()),
		l.audSent-l.audFaultDrops+l.audDups, l.audDelivered)
}

// Send enqueues a frame for transmission, taking ownership of it: dropped
// frames (egress overflow or fault loss) are released here, delivered
// frames become the receiver's to release. It returns false if
// the egress buffer is full and the frame was dropped.
func (l *Link) Send(p *Packet) bool {
	now := l.eng.Now()
	if l.aud != nil {
		l.aud.adopt(p, l.audOwner)
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
	delivery := l.busyTil + l.cfg.Latency + l.hold
	l.Bytes.Add(int64(ws))
	l.completions.push(l.eng.Reserve(l.busyTil), ws)
	if l.inj != nil {
		if !l.sendFaulty(p, delivery) {
			return true // serialized, then lost on the medium
		}
	} else {
		l.pushArrival(l.eng.Reserve(delivery), p)
	}
	return true
}

// sendFaulty commits the delivery due at delivery under the attached
// injector's verdict. It reports false when the frame was lost on the
// medium — the sender still spent the serialization time and counts the
// bytes as transmitted, exactly as with a physical-layer loss.
func (l *Link) sendFaulty(p *Packet, delivery sim.Time) bool {
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
		delivery += act.ExtraDelay
	}
	l.pushArrival(l.eng.Reserve(delivery), p)
	if act.Duplicate {
		l.FaultDups.Inc()
		l.emitFault("dup", float64(p.WireSize()))
		// The duplicate is its own frame instance trailing the original
		// by one serialization slot (a retransmitting middlebox). It comes
		// from the original's list, which the copy keeps.
		dup := p.list.Alloc()
		*dup = *p
		if l.aud != nil {
			l.audDups++
			l.aud.adopt(dup, l.audDupOwner)
		}
		l.pushArrival(l.eng.Reserve(delivery+l.serialization(p.WireSize())), dup)
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
// snapshotted).
func (l *Link) PeakQueuedBytes() int { return l.peak }

func (l *Link) serialization(bytes int) sim.Duration {
	return sim.Duration(int64(bytes) * 8 * int64(sim.Second) / l.cfg.BandwidthBps)
}
