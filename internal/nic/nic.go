// Package nic models a single- or multi-queue Gigabit-Ethernet-class NIC
// in the spirit of the Intel 82574GI the paper simulates (Table 1): rx/tx
// descriptor rings, a DMA engine with PCIe transfer latency, interrupt
// moderation through throttling timers (AITT, PITT, MITT — Sec. 4.2), and
// Interrupt Cause Read registers.
//
// The enhanced-NIC embodiment of NCAP lives here too: when enabled, the
// NIC inspects every received payload with core.ReqMonitor *at wire
// arrival* — before the packet has even been DMA'd to memory — which is
// what lets NCAP overlap the processor's P/C-state transition with the
// ~86 µs NIC→memory delivery path (Sec. 2.2).
//
// The paper's baseline NIC is single-queue; Sec. 7 sketches the
// multi-queue extension where receive-side scaling steers flows to
// per-core queues, each with its own MSI-X vector and NCAP blocks, so the
// *target* core's P/C states are steered independently. Config.Queues > 1
// enables that extension.
package nic

import (
	"fmt"
	"strings"

	"ncap/internal/audit"
	"ncap/internal/core"
	"ncap/internal/netsim"
	"ncap/internal/sim"
	"ncap/internal/stats"
	"ncap/internal/telemetry"
)

// Interrupt cause bits (ICR). IT_RX/IT_TX exist on stock hardware;
// IT_HIGH and IT_LOW are NCAP's additions in previously unused bits
// (Sec. 4.2).
const (
	ITRx   uint32 = 1 << 0
	ITTx   uint32 = 1 << 1
	ITHigh uint32 = 1 << 2
	ITLow  uint32 = 1 << 3
)

// Config parameterizes the device.
type Config struct {
	// Queues is the number of rx queues (1 = the paper's baseline).
	Queues int
	// RxRing and TxRing are the per-queue descriptor ring sizes.
	RxRing, TxRing int
	// DMASetup is the per-packet PCIe/DMA initiation overhead.
	DMASetup sim.Duration
	// DMABandwidthBps is the DMA engine's transfer rate to main memory.
	DMABandwidthBps int64
	// AITT is the absolute interrupt throttling timer: the maximum delay
	// between a packet completing DMA and the rx interrupt.
	AITT sim.Duration
	// PITT is the packet interrupt throttling timer: it rearms on every
	// received packet, firing when the wire goes quiet.
	PITT sim.Duration
	// MITT is the master interrupt throttling timer period; NCAP's
	// DecisionEngine is evaluated on every expiry (the paper quotes
	// 40–100 µs).
	MITT sim.Duration
	// InspectAtDMAComplete defers NCAP's packet inspection until the
	// frame reaches main memory, forfeiting the overlap between the
	// processor wake and the NIC→memory delivery path. Used only by the
	// overlap ablation (DESIGN.md E-ablation); real NCAP inspects at wire
	// arrival.
	InspectAtDMAComplete bool
}

// DefaultConfig returns moderation parameters typical of e1000-class
// hardware; together with DMA and softirq dispatch they reproduce the
// paper's ~86 µs average NIC→memory delivery latency.
func DefaultConfig() Config {
	return Config{
		Queues:          1,
		RxRing:          1024,
		TxRing:          1024,
		DMASetup:        500 * sim.Nanosecond,
		DMABandwidthBps: 16_000_000_000,
		AITT:            100 * sim.Microsecond,
		PITT:            25 * sim.Microsecond,
		MITT:            50 * sim.Microsecond,
	}
}

// NIC is the device model. It implements netsim.Receiver for the wire side
// and exposes ring/ICR operations to the driver, per queue.
type NIC struct {
	eng    *sim.Engine
	cfg    Config
	addr   netsim.Addr
	link   *netsim.Link // egress toward the switch
	queues []*Queue

	dmaBusyTil sim.Time // the DMA engine is shared across queues

	// Byte/packet counters feed the BW(Rx)/BW(Tx) traces and rate math.
	RxBytes   stats.Counter
	TxBytes   stats.Counter
	RxPackets stats.Counter
	TxPackets stats.Counter
	RxDrops   stats.Counter
	TxDrops   stats.Counter
	IRQs      stats.Counter
	// ITRFires counts rx interrupts posted by the moderation timers
	// (AITT/PITT expiry) — the throttled path, as opposed to NCAP's
	// urgent early wakes.
	ITRFires stats.Counter
	// RxCorruptDrops counts frames failing the MAC's FCS check — bits
	// flipped in transit (fault injection) are detected by the Ethernet
	// CRC and the frame is discarded before DMA, as on real hardware.
	RxCorruptDrops stats.Counter

	// trace receives irq/ncap events when telemetry is enabled (see
	// RegisterTelemetry); nil otherwise, and Emit no-ops.
	trace *telemetry.EventTrace

	// Audit state (nil/zero outside audited runs). Unlike the resettable
	// stats counters above, the aud* counters run from t=0, so at
	// quiescence every frame that arrived on the wire is accounted for:
	//   audWire == audFCSDrops + audRingDrops + audPolled.
	aud          *audit.Auditor
	audWire      int64
	audFCSDrops  int64
	audRingDrops int64
	audPolled    int64
}

// Queue is one receive queue: a descriptor ring, moderation timers, an
// interrupt vector, and (when NCAP is enabled) its own ReqMonitor,
// TxBytesCounter and DecisionEngine so the queue's target core can be
// steered independently (Sec. 7).
type Queue struct {
	n  *NIC
	id int

	icr      uint32
	rxMasked bool
	irq      func()

	ready    []*netsim.Packet
	bufs     [][]*netsim.Packet // free batch buffers for Poll (see Recycle)
	inflight int

	aitt *sim.Timer
	pitt *sim.Timer
	mitt *sim.Ticker

	mon *core.ReqMonitor
	txc *core.TxBytesCounter
	dec *core.DecisionEngine
}

// New builds a NIC for the node at addr. The interrupt lines and egress
// link are wired afterwards (SetIRQ, SetLink) because driver and topology
// construction happen after device construction, as on real hardware.
func New(eng *sim.Engine, addr netsim.Addr, cfg Config) *NIC {
	if cfg.Queues <= 0 {
		cfg.Queues = 1
	}
	n := &NIC{eng: eng, cfg: cfg, addr: addr}
	for i := 0; i < cfg.Queues; i++ {
		q := &Queue{n: n, id: i}
		q.aitt = sim.NewTimer(eng, q.moderationExpired)
		q.pitt = sim.NewTimer(eng, q.moderationExpired)
		q.mitt = sim.NewTicker(eng, cfg.MITT, q.mittExpired)
		n.queues = append(n.queues, q)
	}
	return n
}

// Addr returns the NIC's network address.
func (n *NIC) Addr() netsim.Addr { return n.addr }

// Config returns the device configuration.
func (n *NIC) Config() Config { return n.cfg }

// Queues returns the NIC's receive queues.
func (n *NIC) Queues() []*Queue { return n.queues }

// Queue returns queue i.
func (n *NIC) Queue(i int) *Queue { return n.queues[i] }

// SetLink wires the egress link toward the switch.
func (n *NIC) SetLink(l *netsim.Link) { n.link = l }

// steer implements receive-side scaling: flows hash to queues by peer
// address, so a client's requests and its responses map to one queue.
func (n *NIC) steer(peer netsim.Addr) *Queue {
	if len(n.queues) == 1 {
		return n.queues[0]
	}
	return n.queues[int(uint32(peer))%len(n.queues)]
}

// Receive implements netsim.Receiver: a frame has arrived on the wire.
// Frames failing the FCS check are dropped at the MAC — before NCAP
// inspection and before DMA, so a corrupted latency-critical request can
// neither wake the processor nor reach the application.
func (n *NIC) Receive(p *netsim.Packet) {
	if n.aud != nil {
		n.audWire++
	}
	if p.Corrupt {
		n.RxCorruptDrops.Inc()
		if n.aud != nil {
			n.audFCSDrops++
		}
		p.Release()
		return
	}
	n.RxBytes.Add(int64(p.WireSize()))
	n.RxPackets.Inc()
	n.steer(p.Src).receive(p)
}

// Transmit queues a frame for the wire. It reports false when the egress
// path is saturated and the frame was dropped.
func (n *NIC) Transmit(p *netsim.Packet) bool {
	if n.link == nil {
		panic("nic: Transmit before SetLink")
	}
	p.SentAt = n.eng.Now()
	// Size and destination are read before Send: the link owns the packet
	// from then on and may have released it by the time Send returns.
	ws := p.WireSize()
	dst := p.Dst
	if !n.link.Send(p) {
		n.TxDrops.Inc()
		return false
	}
	n.TxBytes.Add(int64(ws))
	n.TxPackets.Inc()
	if q := n.steer(dst); q.txc != nil {
		q.txc.Add(ws)
	}
	return true
}

func (n *NIC) transfer(bytes int) sim.Duration {
	return sim.Duration(int64(bytes) * 8 * int64(sim.Second) / n.cfg.DMABandwidthBps)
}

// EnableAudit turns on the never-reset receive-path accounting checked by
// AuditConservation.
func (n *NIC) EnableAudit(a *audit.Auditor) { n.aud = a }

// AuditConservation verifies that every frame that arrived on the wire
// was FCS-dropped, ring-dropped, or handed to the driver by Poll, and
// that no queue still holds frames. Call it only at quiescence — frames
// mid-DMA or awaiting poll would show up as missing.
func (n *NIC) AuditConservation() {
	if n.aud == nil {
		return
	}
	comp := "nic." + n.addr.String()
	now := int64(n.eng.Now())
	n.aud.CheckInt(comp, "packet-conservation", now,
		n.audWire, n.audFCSDrops+n.audRingDrops+n.audPolled)
	for _, q := range n.queues {
		n.aud.CheckInt(comp, fmt.Sprintf("rxq%d-drained", q.id), now,
			0, int64(len(q.ready)+q.inflight))
	}
}

// Quiesce stops the moderation timers and NCAP tickers on every queue so
// a drained simulation reaches zero pending events. Only the audit
// finalizer calls it, after the measurement has been collected.
func (n *NIC) Quiesce() {
	for _, q := range n.queues {
		q.aitt.Stop()
		q.pitt.Stop()
		q.mitt.Stop()
	}
}

// ResetStats zeroes the counters at the warmup boundary.
func (n *NIC) ResetStats() {
	n.RxBytes.Reset()
	n.TxBytes.Reset()
	n.RxPackets.Reset()
	n.TxPackets.Reset()
	n.RxDrops.Reset()
	n.TxDrops.Reset()
	n.IRQs.Reset()
	n.ITRFires.Reset()
	n.RxCorruptDrops.Reset()
	for _, q := range n.queues {
		if q.dec != nil {
			q.dec.ResetStats()
		}
	}
}

// ---------------------------------------------------------------------------
// Single-queue convenience API: the paper's baseline NIC. These delegate
// to queue 0 and keep the stock driver code independent of the extension.

// SetIRQ wires queue 0's interrupt line to the kernel.
func (n *NIC) SetIRQ(fn func()) { n.queues[0].SetIRQ(fn) }

// EnableNCAP installs the enhanced-NIC hardware blocks on every queue,
// sharing one chip view (chip-wide DVFS). Templates are programmed
// separately via Monitor().ProgramStrings — the driver does it from its
// init path, as through sysfs (Sec. 4.1).
func (n *NIC) EnableNCAP(cfg core.Config, chip core.ChipState) {
	for _, q := range n.queues {
		q.EnableNCAP(cfg, chip)
	}
}

// Monitor returns queue 0's NCAP request monitor (nil on a stock NIC).
func (n *NIC) Monitor() *core.ReqMonitor { return n.queues[0].mon }

// Decision returns queue 0's NCAP decision engine (nil on a stock NIC).
func (n *NIC) Decision() *core.DecisionEngine { return n.queues[0].dec }

// NCAPEnabled reports whether the enhanced hardware is active.
func (n *NIC) NCAPEnabled() bool { return n.queues[0].dec != nil }

// ReadICR returns and clears queue 0's interrupt cause register.
func (n *NIC) ReadICR() uint32 { return n.queues[0].ReadICR() }

// MaskRxIRQ suppresses queue 0's rx-cause interrupts (NAPI poll entry).
func (n *NIC) MaskRxIRQ() { n.queues[0].MaskRxIRQ() }

// UnmaskRxIRQ re-enables queue 0's rx interrupts.
func (n *NIC) UnmaskRxIRQ() { n.queues[0].UnmaskRxIRQ() }

// RxPending returns queue 0's DMA-complete packets awaiting poll.
func (n *NIC) RxPending() int { return n.queues[0].RxPending() }

// Poll removes and returns up to budget packets from queue 0.
func (n *NIC) Poll(budget int) []*netsim.Packet { return n.queues[0].Poll(budget) }

// ---------------------------------------------------------------------------
// Queue operations.

// ID returns the queue index.
func (q *Queue) ID() int { return q.id }

// SetIRQ wires the queue's interrupt vector to the kernel.
func (q *Queue) SetIRQ(fn func()) { q.irq = fn }

// EnableNCAP installs this queue's NCAP blocks: its own ReqMonitor,
// TxBytesCounter and DecisionEngine evaluated on its own MITT, judging
// and steering the chip view it is given (the target core's DVFS domain
// in the per-core extension).
func (q *Queue) EnableNCAP(cfg core.Config, chip core.ChipState) {
	q.mon = core.NewReqMonitor()
	q.txc = &core.TxBytesCounter{}
	q.dec = core.NewDecisionEngine(cfg, chip, q.n.eng.Now())
	q.mitt.Start()
}

// Monitor returns the queue's request monitor (nil on a stock queue).
func (q *Queue) Monitor() *core.ReqMonitor { return q.mon }

// Decision returns the queue's decision engine (nil on a stock queue).
func (q *Queue) Decision() *core.DecisionEngine { return q.dec }

func (q *Queue) receive(p *netsim.Packet) {
	// NCAP hardware inspects the frame as it enters the MAC, before DMA:
	// a latency-critical match after a long interrupt-free gap posts an
	// immediate IT_RX so the core's wake overlaps delivery (Sec. 4.3).
	if q.dec != nil && !q.n.cfg.InspectAtDMAComplete {
		q.inspect(p)
	}
	if len(q.ready)+q.inflight >= q.n.cfg.RxRing {
		q.n.RxDrops.Inc()
		if q.n.aud != nil {
			q.n.audRingDrops++
		}
		p.Release()
		return
	}
	q.inflight++
	now := q.n.eng.Now()
	if q.n.dmaBusyTil < now {
		q.n.dmaBusyTil = now
	}
	q.n.dmaBusyTil += q.n.cfg.DMASetup + q.n.transfer(p.WireSize())
	q.n.eng.AtArg2(q.n.dmaBusyTil, queueDMAComplete, q, p)
}

// queueDMAComplete finishes a frame's DMA into main memory (a0 is the
// *Queue, a1 the *Packet).
func queueDMAComplete(a0, a1 any) { a0.(*Queue).dmaComplete(a1.(*netsim.Packet)) }

func (q *Queue) inspect(p *netsim.Packet) {
	if q.mon.Inspect(p.Payload) {
		if act := q.dec.OnRequestDetected(q.n.eng.Now()); act.Rx {
			q.post(ITRx, true)
		}
	}
}

func (q *Queue) dmaComplete(p *netsim.Packet) {
	q.inflight--
	if q.dec != nil && q.n.cfg.InspectAtDMAComplete {
		q.inspect(p)
	}
	q.ready = append(q.ready, p)
	// Arm moderation: PITT rearms per packet (quiet detection); AITT
	// bounds the total delay from the burst's first packet.
	q.pitt.Arm(q.n.cfg.PITT)
	q.aitt.ArmIfStopped(q.n.cfg.AITT)
}

func (q *Queue) moderationExpired() {
	q.aitt.Stop()
	q.pitt.Stop()
	if len(q.ready) == 0 {
		return
	}
	q.n.ITRFires.Inc()
	q.post(ITRx, false)
}

// post sets cause bits and asserts the interrupt vector. Rx-cause
// interrupts respect the NAPI mask; NCAP power interrupts (and CIT wakes)
// use their own causes and bypass it (urgent=true).
func (q *Queue) post(cause uint32, urgent bool) {
	q.icr |= cause
	if q.rxMasked && !urgent {
		return
	}
	if q.irq == nil {
		return
	}
	q.n.IRQs.Inc()
	if q.dec != nil {
		q.dec.NoteInterrupt(q.n.eng.Now())
	}
	if q.n.trace != nil { // causeString allocates; skip it when untraced
		q.n.trace.Emit(telemetry.Event{
			T: q.n.eng.Now(), Comp: "nic", Kind: "irq", Core: q.id,
			V: float64(cause), Detail: causeString(cause),
		})
	}
	q.irq()
}

// causeString renders ICR cause bits for event traces.
func causeString(cause uint32) string {
	var parts []string
	if cause&ITRx != 0 {
		parts = append(parts, "rx")
	}
	if cause&ITTx != 0 {
		parts = append(parts, "tx")
	}
	if cause&ITHigh != 0 {
		parts = append(parts, "it_high")
	}
	if cause&ITLow != 0 {
		parts = append(parts, "it_low")
	}
	return strings.Join(parts, "+")
}

func (q *Queue) mittExpired() {
	if q.dec == nil {
		return
	}
	act := q.dec.OnMITTExpiry(q.n.eng.Now(), q.mon.TakeReqCnt(), q.txc.TakeTxCnt(), q.n.cfg.MITT)
	if !act.Any() {
		return
	}
	var cause uint32
	if act.High {
		// "DecisionEngine posts an interrupt after setting IT_HIGH and
		// IT_RX bits of ICR" (Sec. 4.3).
		cause |= ITHigh | ITRx
	}
	if act.Low {
		cause |= ITLow
	}
	if act.Rx {
		cause |= ITRx
	}
	q.post(cause, true)
}

// ReadICR returns and clears the queue's interrupt cause register — the
// PCIe read the driver's handler performs (its latency is charged as
// handler cycles in the driver model).
func (q *Queue) ReadICR() uint32 {
	v := q.icr
	q.icr = 0
	return v
}

// MaskRxIRQ suppresses rx-cause interrupts (NAPI poll mode entry).
func (q *Queue) MaskRxIRQ() { q.rxMasked = true }

// UnmaskRxIRQ re-enables rx interrupts; if packets are already waiting
// the interrupt fires immediately, as on hardware with a pending cause.
func (q *Queue) UnmaskRxIRQ() {
	q.rxMasked = false
	if len(q.ready) > 0 {
		q.post(ITRx, false)
	}
}

// RxPending returns the number of DMA-complete packets awaiting poll.
func (q *Queue) RxPending() int { return len(q.ready) }

// Poll removes and returns up to budget received packets (the NAPI poll).
// The batch slice comes from a per-queue free list; callers that finish
// with it should hand it back via Recycle so steady-state polling does not
// allocate. Batches are independent: several may be in flight at once
// (an urgent NCAP wake can start a new poll chain mid-batch).
func (q *Queue) Poll(budget int) []*netsim.Packet {
	if budget <= 0 || len(q.ready) == 0 {
		return nil
	}
	if budget > len(q.ready) {
		budget = len(q.ready)
	}
	var out []*netsim.Packet
	if n := len(q.bufs); n > 0 && cap(q.bufs[n-1]) >= budget {
		out = q.bufs[n-1][:budget]
		q.bufs[n-1] = nil
		q.bufs = q.bufs[:n-1]
	} else {
		out = make([]*netsim.Packet, budget)
	}
	copy(out, q.ready[:budget])
	rest := copy(q.ready, q.ready[budget:])
	q.ready = q.ready[:rest]
	if q.n.aud != nil {
		q.n.audPolled += int64(budget)
	}
	return out
}

// Recycle returns a batch slice obtained from Poll to the queue's free
// list. The caller must not use the slice afterwards.
func (q *Queue) Recycle(batch []*netsim.Packet) {
	if cap(batch) == 0 {
		return
	}
	q.bufs = append(q.bufs, batch[:0])
}

// String aids debugging.
func (q *Queue) String() string { return fmt.Sprintf("rxq%d@%v", q.id, q.n.addr) }
