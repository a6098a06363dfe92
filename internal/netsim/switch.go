package netsim

import (
	"fmt"

	"ncap/internal/sim"
	"ncap/internal/stats"
)

// Switch is a store-and-forward Ethernet switch. Each attached node gets
// an egress link from the switch toward that node; ingress links are owned
// by the nodes themselves and point at the switch. Multi-tier fabrics
// additionally wire switch↔switch trunks (Connect) and program the
// forwarding table (AddRoute, SetDefaultRoutes): a frame for a directly
// attached node takes its port; anything else follows the table, hashing
// over equal-cost next hops (ECMP) by flow.
//
// The forwarding delay is paid by the ingress links: a link into a switch
// delivers each frame fwDelay after its arrival (see NewLink), and Receive
// forwards it at once, so a switch hop costs one engine event, not two. A
// frame counts as forwarded (or unroutable) when that delivery fires, not
// when it arrives. The switch keeps its engine for the links that Attach
// and Connect make.
type Switch struct {
	eng     *sim.Engine
	fwDelay sim.Duration

	// ports holds the egress link toward each attached address, indexed
	// by address (nil where none is attached). Addresses are small and
	// dense — a compiled topology numbers its nodes from 1 — so a slice
	// replaces a map lookup on every forwarded frame.
	ports []*Link

	// routes holds, indexed by address, the equal-cost next-hop trunks
	// toward destinations reachable through other switches;
	// defaultRoutes catches everything not in ports or routes (a ToR's
	// "anything remote goes up" rule). Both pick among multiple links by
	// FlowHash, so a flow's frames stay on one path while distinct flows
	// spread.
	routes        [][]*Link
	defaultRoutes []*Link

	// name labels the switch in violations and rollups ("" until SetName).
	name string

	// onUnroutable observes frames with no port or route before they are
	// dropped (the audit layer's hook); nil outside audited runs.
	onUnroutable func(p *Packet)

	// Forwarded counts frames switched; Unroutable counts frames addressed
	// to unknown ports. In a compiled multi-hop topology an unroutable
	// frame is a compilation bug: it is still counted and dropped, but the
	// count surfaces as a report warning and, under -audit, a violation.
	Forwarded  stats.Counter
	Unroutable stats.Counter
}

// NewSwitch returns a switch with the given per-frame forwarding delay.
func NewSwitch(eng *sim.Engine, fwDelay sim.Duration) *Switch {
	return &Switch{eng: eng, fwDelay: fwDelay}
}

// maxAddr bounds the addresses a switch forwards to directly or by
// route: its tables are slices indexed by address. It is far above
// topology.MaxNodes, so every compiled topology fits.
const maxAddr = 1 << 16

// slot returns table's entry for addr, growing table to hold it.
func slot[T any](table *[]T, addr Addr) *T {
	if addr > maxAddr {
		panic(fmt.Sprintf("netsim: switch table address %v beyond maxAddr (%d)", addr, maxAddr))
	}
	if n := int(addr) + 1; n > len(*table) {
		*table = append(*table, make([]T, n-len(*table))...)
	}
	return &(*table)[addr]
}

// SetName labels the switch for rollups and audit violations.
func (s *Switch) SetName(name string) { s.name = name }

// Name returns the switch label set by SetName.
func (s *Switch) Name() string { return s.name }

// SetUnroutableHook installs an observer for unroutable frames (called
// before the frame is dropped); nil removes it.
func (s *Switch) SetUnroutableHook(fn func(p *Packet)) { s.onUnroutable = fn }

// Attach registers an egress link from the switch toward addr, returning
// it. The caller wires the node's own egress link back to the switch.
func (s *Switch) Attach(addr Addr, cfg LinkConfig, node Receiver) *Link {
	port := slot(&s.ports, addr)
	if *port != nil {
		panic(fmt.Sprintf("netsim: duplicate switch port for %v", addr))
	}
	*port = NewLink(s.eng, cfg, node)
	return *port
}

// Connect creates an egress trunk toward a peer switch (or any receiver)
// without binding it to a destination address: each trunk is a full Link
// with its own serialization, propagation delay and drop-tail output
// queue — the per-port output buffering of a real fabric. Route frames
// over it with AddRoute or SetDefaultRoutes.
func (s *Switch) Connect(cfg LinkConfig, peer Receiver) *Link {
	return NewLink(s.eng, cfg, peer)
}

// AddRoute appends equal-cost next hops for frames addressed to dst. The
// links must have been created with Connect (or otherwise lead toward
// dst). Multiple calls accumulate.
func (s *Switch) AddRoute(dst Addr, via ...*Link) {
	if len(via) == 0 {
		return
	}
	r := slot(&s.routes, dst)
	*r = append(*r, via...)
}

// SetDefaultRoutes installs the equal-cost next hops for every
// destination not directly attached and not in the route table — a ToR's
// uplinks to the spine tier.
func (s *Switch) SetDefaultRoutes(via ...*Link) { s.defaultRoutes = via }

// Port returns the egress link toward addr (nil if not attached). Fault
// injectors for the switch→node direction attach here.
func (s *Switch) Port(addr Addr) *Link {
	if int(addr) < len(s.ports) {
		return s.ports[addr]
	}
	return nil
}

// Ports returns every node port this switch owns, in ascending address
// order. Trunks created with Connect are not included (the caller wired
// and retained them).
func (s *Switch) Ports() []*Link {
	var out []*Link
	for _, l := range s.ports {
		if l != nil {
			out = append(out, l)
		}
	}
	return out
}

// FlowHash maps a (src, dst) flow to one of n equal-cost paths with a
// 32-bit FNV-1a over the two addresses. Deterministic by construction:
// the same flow always hashes to the same path, so ECMP never reorders a
// flow and simulations replay byte-identically at any worker count.
func FlowHash(src, dst Addr, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, w := range [2]uint32{uint32(src), uint32(dst)} {
		for i := 0; i < 4; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= prime32
		}
	}
	return int(h % uint32(n))
}

// pick selects the flow's next hop among equal-cost links.
func pick(links []*Link, p *Packet) *Link {
	if len(links) == 1 {
		return links[0]
	}
	return links[FlowHash(p.Src, p.Dst, len(links))]
}

// route returns p's egress link: a directly attached destination's port,
// else a next hop from the forwarding table (ECMP over equal-cost
// links). It returns nil for an unroutable frame.
func (s *Switch) route(p *Packet) *Link {
	if out := s.Port(p.Dst); out != nil {
		return out
	}
	var via []*Link
	if int(p.Dst) < len(s.routes) {
		via = s.routes[p.Dst]
	}
	if len(via) == 0 {
		via = s.defaultRoutes
	}
	if len(via) == 0 {
		return nil
	}
	return pick(via, p)
}

// Receive implements Receiver: it forwards the frame onto its egress link
// at once. The ingress link has already held the frame for the forwarding
// delay, so a direct call forwards with none. Unroutable frames are
// counted, reported to the audit hook, and released.
func (s *Switch) Receive(p *Packet) {
	out := s.route(p)
	if out == nil {
		s.Unroutable.Inc()
		if s.onUnroutable != nil {
			s.onUnroutable(p)
		}
		p.Release()
		return
	}
	s.Forwarded.Inc()
	out.Send(p)
}
