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

	// list is the run's free list this packet returns to on Release, or
	// nil for a packet drawn from the process pool outside any run.
	list *PacketList
}

// WireSize returns the frame's size on the wire, headers included.
func (p *Packet) WireSize() int { return HeaderBytes + p.PayloadLen }

// packetPool holds Packet structs between runs. A run allocates and
// releases through its own PacketList, which takes from packetPool only
// when it is empty and hands every free packet back when the run ends, so
// the per-frame path never touches a sync.Pool and the packets one run
// grew are there for the next run on any goroutine. A packet with no list
// (a nil list's, or NewRequest's outside a run) comes from and returns to
// packetPool directly.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// PacketList is one run's packet free list. Every component of a run
// allocates through it and every Release of its packets pushes back onto
// it; like the engine that drives the run, it is single-threaded. A nil
// *PacketList stands for the process pool: its methods draw from and
// release to packetPool.
type PacketList struct {
	free []*Packet
	head int          // audited lists: index of the oldest free packet
	aud  *PacketAudit // ownership tracker of an audited run, or nil
}

// auditQuarantine is how many allocations a packet an audited list takes
// back waits out before it is handed out again. Until then the tracker
// holds it as released, so a double release or a use-after-release within
// that many later allocations is reported instead of passing as the
// packet's next owner.
const auditQuarantine = 256

// NewPacketList returns an empty list.
func NewPacketList() *PacketList { return &PacketList{} }

// Alloc returns a zeroed packet owned by the caller. Ownership follows the
// frame: whoever holds the packet last releases it. Link.Send takes
// ownership of every frame it is given (releasing on egress or fault
// drops); receivers own delivered frames and must Release them — or pass
// them on — on every path, including drops.
func (l *PacketList) Alloc() *Packet {
	if l == nil {
		return packetPool.Get().(*Packet)
	}
	if l.aud != nil {
		return l.allocAudited()
	}
	if n := len(l.free); n > 0 {
		p := l.free[n-1]
		l.free = l.free[:n-1]
		return p
	}
	return l.grow()
}

// grow takes a new packet for the list from the process pool.
func (l *PacketList) grow() *Packet {
	p := packetPool.Get().(*Packet)
	p.list = l
	return p
}

// allocAudited is Alloc on an audited list: it hands out free packets
// oldest first, and only once more than auditQuarantine are free, so each
// released packet waits out at least auditQuarantine allocations. The
// queue compacts in place once half of it is consumed, so it allocates
// only while the list grows.
func (l *PacketList) allocAudited() *Packet {
	var p *Packet
	if len(l.free)-l.head > auditQuarantine {
		p = l.free[l.head]
		l.head++
		if 2*l.head >= len(l.free) {
			l.free = l.free[:copy(l.free, l.free[l.head:])]
			l.head = 0
		}
	} else {
		p = l.grow()
	}
	l.aud.track(p, allocOwner)
	return p
}

// put takes a released packet back. An audited list keeps a packet the
// tracker does not hold live (a double release) off the free list, so it
// is handed out once.
func (l *PacketList) put(p *Packet) {
	if l.aud != nil && !l.aud.release(p) {
		return
	}
	*p = Packet{list: l}
	l.free = append(l.free, p)
}

// Flush hands every free packet back to the process pool. A run calls it
// when it ends; packets still in flight then stay with the run and are
// collected with it.
func (l *PacketList) Flush() {
	for _, p := range l.free[l.head:] {
		*p = Packet{}
		packetPool.Put(p)
	}
	clear(l.free)
	l.free, l.head = l.free[:0], 0
}

// Release returns p to its list, or to the process pool if it has none.
// The packet must not be referenced again. Payload is a shared,
// sender-owned slice and is merely unreferenced, never recycled.
func (p *Packet) Release() {
	if p.list != nil {
		p.list.put(p)
		return
	}
	*p = Packet{}
	packetPool.Put(p)
}

// NewRequest builds a single-segment request packet whose payload begins
// with the given method bytes (e.g. "GET / HTTP/1.1"). The packet comes
// from the list; it is released downstream by its final owner.
func (l *PacketList) NewRequest(src, dst Addr, reqID uint64, payload []byte) *Packet {
	p := l.Alloc()
	p.Src, p.Dst, p.Kind = src, dst, KindRequest
	p.Payload, p.PayloadLen = payload, len(payload)
	p.ReqID, p.Seg, p.SegCount = reqID, 0, 1
	return p
}

// NewRequest is PacketList.NewRequest on the process pool, for packets
// built outside a run.
func NewRequest(src, dst Addr, reqID uint64, payload []byte) *Packet {
	return (*PacketList)(nil).NewRequest(src, dst, reqID, payload)
}

// SegmentResponse splits a response body of the given size into MSS-sized
// segments addressed from src to dst and appends them to buf, returning
// the extended slice; passing a caller-owned buf[:0] makes segmentation
// allocation-free once buf has grown. The packets come from the list.
func (l *PacketList) SegmentResponse(buf []*Packet, src, dst Addr, reqID uint64, bodyBytes int) []*Packet {
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
		p := l.Alloc()
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
