package app

import (
	"ncap/internal/netsim"
	"ncap/internal/sim"
	"ncap/internal/stats"
)

// BulkSender emits background traffic with no SLA — the VM-migration /
// off-line-analytics stream of Sec. 4.1 that a naive rate-based trigger
// would mistake for latency-critical load. Payloads start with "PUT", so
// NCAP's ReqMonitor (programmed with GET-style templates) ignores them.
type BulkSender struct {
	eng      *sim.Engine
	addr     netsim.Addr
	dst      netsim.Addr
	uplink   *netsim.Link
	pktBytes int
	payload  []byte // shared read-only across emitted frames
	gap      sim.Duration
	running  bool

	// Packets counts frames emitted.
	Packets stats.Counter
	// PacketList is the run's packet list the frames come from; nil draws
	// from the process pool. Set before Start.
	PacketList *netsim.PacketList
}

// NewBulkSender builds a generator that sustains approximately rateBps of
// offered load using pktBytes-sized payloads.
func NewBulkSender(eng *sim.Engine, addr, dst netsim.Addr, uplink *netsim.Link, rateBps int64, pktBytes int) *BulkSender {
	if rateBps <= 0 || pktBytes <= 0 {
		panic("app: bulk sender needs positive rate and packet size")
	}
	wire := pktBytes + netsim.HeaderBytes
	gap := sim.Duration(int64(wire) * 8 * int64(sim.Second) / rateBps)
	if gap < 1 {
		gap = 1
	}
	payload := make([]byte, pktBytes)
	copy(payload, "PUT /bulk-transfer")
	return &BulkSender{
		eng: eng, addr: addr, dst: dst, uplink: uplink,
		pktBytes: pktBytes, payload: payload, gap: gap,
	}
}

// Start begins emission.
func (b *BulkSender) Start() {
	if b.running {
		return
	}
	b.running = true
	b.eng.ScheduleArg(b.gap, bulkEmit, b)
}

// Stop halts emission.
func (b *BulkSender) Stop() { b.running = false }

// bulkEmit is the allocation-free rearm trampoline (arg is the *BulkSender).
func bulkEmit(arg any) { arg.(*BulkSender).emit() }

func (b *BulkSender) emit() {
	if !b.running {
		return
	}
	pkt := b.PacketList.Alloc()
	pkt.Src, pkt.Dst, pkt.Kind = b.addr, b.dst, netsim.KindBulk
	pkt.Payload, pkt.PayloadLen = b.payload, b.pktBytes
	pkt.Seg, pkt.SegCount = 0, 1
	b.uplink.Send(pkt)
	b.Packets.Inc()
	b.eng.ScheduleArg(b.gap, bulkEmit, b)
}
