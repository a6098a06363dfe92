// Package netsim models the cluster network: TCP/IP-over-Ethernet framing,
// point-to-point links with serialization and propagation delay, and a
// store-and-forward switch. It reproduces the properties the paper's
// mechanism depends on: the application payload beginning at byte 66 of a
// received TCP packet (Sec. 4.1), MTU-limited response segmentation
// (Sec. 4.1), and a 10 Gb/s, 1 µs-latency datacenter link (Table 1).
package netsim

import (
	"fmt"
	"sync"

	"ncap/internal/sim"
)

// Addr identifies a node's network interface.
type Addr uint32

func (a Addr) String() string { return fmt.Sprintf("node%d", uint32(a)) }

// Kind classifies a packet's role for workload accounting. The NIC
// hardware never reads Kind — it classifies by payload bytes, as in the
// paper; Kind exists for tests and statistics.
type Kind int

const (
	// KindRequest carries a client request (possibly latency-critical).
	KindRequest Kind = iota
	// KindResponse carries (a segment of) a server response.
	KindResponse
	// KindBulk is background traffic with no SLA (VM migration, analytics).
	KindBulk
)

func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindResponse:
		return "response"
	case KindBulk:
		return "bulk"
	}
	return fmt.Sprintf("kind?%d", int(k))
}

// Framing constants.
const (
	// HeaderBytes is the wire overhead before the application payload: the
	// paper states the payload of a received TCP packet starts at byte 66
	// (Ethernet 14 + IP 20 + TCP with options 32).
	HeaderBytes = 66
	// MTU is the Ethernet maximum transmission unit.
	MTU = 1500
	// MSS is the maximum application payload per frame: an MTU-sized IP
	// datagram minus IP/TCP headers (52 bytes), i.e. 1448 bytes.
	MSS = MTU - (HeaderBytes - 14)
)

// Packet is one TCP segment on the wire.
type Packet struct {
	Src, Dst Addr
	Kind     Kind
	// Payload is the application payload; on the wire it begins at byte
	// HeaderBytes. For multi-segment responses only the first few bytes
	// matter to the simulation, so segments share a truncated payload.
	Payload []byte
	// PayloadLen is the logical payload length in bytes (len(Payload) may
	// be shorter for segments whose contents are immaterial).
	PayloadLen int
	// ReqID correlates a request with its response segments.
	ReqID uint64
	// Seg and SegCount identify this segment within a response burst.
	Seg, SegCount int
	// RespHint, on a request, pins the server's response body size in
	// bytes (trace replay carries recorded sizes); zero lets the server
	// draw from its profile. Like Kind, the NIC hardware never reads it.
	RespHint int
	// Corrupt marks a frame whose bits were flipped in transit (fault
	// injection). The receiving NIC's FCS check detects it and drops the
	// frame instead of delivering garbage upward.
	Corrupt bool
	// Deadline, on a request, is the client's end-to-end completion
	// deadline (absolute simulated time; zero = none). The server's
	// deadline-aware admission policy sheds requests it can no longer
	// meet. Like Kind, the NIC hardware never reads it.
	Deadline sim.Time

	// aud is the packet-ownership tracker this packet is registered with,
	// or nil outside audited runs. Tracked packets are released to the
	// tracker (which owns its own free list) instead of the global pool.
	aud *PacketAudit
}

// WireSize returns the frame's size on the wire, headers included.
func (p *Packet) WireSize() int { return HeaderBytes + p.PayloadLen }

// packetPool recycles Packet structs so the steady-state send/receive path
// stops churning the garbage collector. sync.Pool (rather than an
// engine-owned free list) because the runner executes many independent
// simulations concurrently; per-P caching keeps them from contending.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// AllocPacket returns a zeroed packet from the pool. Ownership follows the
// frame: whoever holds the packet last releases it. Link.Send takes
// ownership of every frame it is given (releasing on egress or fault
// drops); receivers own delivered frames and must Release them — or pass
// them on — on every path, including drops.
func AllocPacket() *Packet { return packetPool.Get().(*Packet) }

// Release returns p to the pool. The packet must not be referenced again.
// Payload is a shared, sender-owned slice and is merely unreferenced, never
// recycled.
func (p *Packet) Release() {
	if p.aud != nil {
		p.aud.release(p)
		return
	}
	*p = Packet{}
	packetPool.Put(p)
}

// NewRequest builds a single-segment request packet whose payload begins
// with the given method bytes (e.g. "GET / HTTP/1.1"). The packet comes
// from the pool; it is released downstream by its final owner.
func NewRequest(src, dst Addr, reqID uint64, payload []byte) *Packet {
	p := AllocPacket()
	p.Src, p.Dst, p.Kind = src, dst, KindRequest
	p.Payload, p.PayloadLen = payload, len(payload)
	p.ReqID, p.Seg, p.SegCount = reqID, 0, 1
	return p
}

// SegmentResponse splits a response body of the given size into MSS-sized
// segments addressed from src to dst and appends them to buf, returning
// the extended slice; passing a caller-owned buf[:0] makes segmentation
// allocation-free once buf has grown. The packets come from the pool.
func SegmentResponse(buf []*Packet, src, dst Addr, reqID uint64, bodyBytes int) []*Packet {
	if bodyBytes <= 0 {
		bodyBytes = 1
	}
	n := (bodyBytes + MSS - 1) / MSS
	remaining := bodyBytes
	for i := 0; i < n; i++ {
		seg := MSS
		if remaining < MSS {
			seg = remaining
		}
		remaining -= seg
		p := AllocPacket()
		p.Src, p.Dst, p.Kind = src, dst, KindResponse
		p.PayloadLen = seg
		p.ReqID, p.Seg, p.SegCount = reqID, i, n
		buf = append(buf, p)
	}
	return buf
}

// Receiver is anything that can accept a delivered packet (a NIC port or
// the switch fabric).
type Receiver interface {
	Receive(pkt *Packet)
}
