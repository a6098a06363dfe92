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
type Switch struct {
	eng     *sim.Engine
	fwDelay sim.Duration
	ports   map[Addr]*Link

	// routes maps destinations reachable through other switches to their
	// equal-cost next-hop trunks; defaultRoutes catches everything not in
	// ports or routes (a ToR's "anything remote goes up" rule). Both pick
	// among multiple links by FlowHash, so a flow's frames stay on one
	// path while distinct flows spread.
	routes        map[Addr][]*Link
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
	return &Switch{eng: eng, fwDelay: fwDelay, ports: map[Addr]*Link{}}
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
	if _, dup := s.ports[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate switch port for %v", addr))
	}
	l := NewLink(s.eng, cfg, node)
	s.ports[addr] = l
	return l
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
	if s.routes == nil {
		s.routes = map[Addr][]*Link{}
	}
	s.routes[dst] = append(s.routes[dst], via...)
}

// SetDefaultRoutes installs the equal-cost next hops for every
// destination not directly attached and not in the route table — a ToR's
// uplinks to the spine tier.
func (s *Switch) SetDefaultRoutes(via ...*Link) { s.defaultRoutes = via }

// Port returns the egress link toward addr (nil if not attached). Fault
// injectors for the switch→node direction attach here.
func (s *Switch) Port(addr Addr) *Link { return s.ports[addr] }

// Ports returns every egress link this switch owns — node ports first
// is not guaranteed; callers aggregating occupancy must not depend on
// order. Trunks created with Connect are not included (the caller wired
// and retained them).
func (s *Switch) Ports() []*Link {
	out := make([]*Link, 0, len(s.ports))
	for _, l := range s.ports {
		out = append(out, l)
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

// switchForward hands a stored frame to its egress link (a0 is the *Link,
// a1 the *Packet).
func switchForward(a0, a1 any) { a0.(*Link).Send(a1.(*Packet)) }

// Receive implements Receiver: frames entering the switch are forwarded
// after the forwarding delay — directly attached destinations to their
// port, everything else along the forwarding table (ECMP over equal-cost
// next hops). Unroutable frames are counted, reported to the audit hook,
// and released.
func (s *Switch) Receive(p *Packet) {
	out, ok := s.ports[p.Dst]
	if !ok {
		if via, hit := s.routes[p.Dst]; hit {
			out = pick(via, p)
		} else if len(s.defaultRoutes) > 0 {
			out = pick(s.defaultRoutes, p)
		} else {
			s.Unroutable.Inc()
			if s.onUnroutable != nil {
				s.onUnroutable(p)
			}
			p.Release()
			return
		}
	}
	s.Forwarded.Inc()
	if s.fwDelay > 0 {
		s.eng.ScheduleArg2(s.fwDelay, switchForward, out, p)
	} else {
		out.Send(p)
	}
}
