// Packet-ownership auditing: a PacketAudit watches one run's PacketList.
// Every packet the list hands out, and every frame from outside the run
// that enters an audited link, is tracked as live under an owner label
// until its Release, so a double release or a use-after-release is
// attributable to the component that last owned the frame, and frames
// still live at quiescence are reported as leaks with their owner label.
// Released packets go back to the run's list like any other, which holds
// them back for auditQuarantine allocations so a late misuse still finds
// them released; the tracker keeps no packets of its own.
package netsim

import (
	"fmt"
	"sort"

	"ncap/internal/audit"
	"ncap/internal/sim"
)

// allocOwner labels a tracked packet between its allocation and the first
// link that carries it.
const allocOwner = "netsim.alloc"

// PacketAudit tracks the ownership of every packet of one run. It is
// single-threaded, like the engine that drives it.
type PacketAudit struct {
	a    *audit.Auditor
	eng  *sim.Engine
	list *PacketList

	live map[*Packet]string // owner label of each live tracked packet
	last map[*Packet]string // owner at release time, for double-release reports

	// Adopted counts tracked allocations and first-time adoptions;
	// Released counts successful releases. Adopted - Released equals the
	// number of live tracked packets.
	Adopted  int64
	Released int64
}

// NewPacketAudit returns a tracker reporting into a and attaches it to
// list: from now on the list's allocations and releases go through it.
func NewPacketAudit(eng *sim.Engine, a *audit.Auditor, list *PacketList) *PacketAudit {
	t := &PacketAudit{
		a:    a,
		eng:  eng,
		list: list,
		live: make(map[*Packet]string),
		last: make(map[*Packet]string),
	}
	list.aud = t
	return t
}

// track registers p as live under the given owner label.
func (t *PacketAudit) track(p *Packet, owner string) {
	t.live[p] = owner
	t.Adopted++
}

// adopt labels p with the link that now carries it. A frame from outside
// the run joins the run's list and is tracked from here on; adopting one
// of the list's packets that is not live is a use-after-release
// violation.
func (t *PacketAudit) adopt(p *Packet, owner string) {
	if p.list != t.list {
		p.list = t.list
		t.track(p, owner)
		return
	}
	if _, ok := t.live[p]; !ok {
		t.a.Report(owner, "packet-use-after-release", int64(t.eng.Now()),
			"packet acquired before use",
			fmt.Sprintf("released packet (last owner %s) re-sent", t.lastOwner(p)))
		t.Adopted++ // treat as live again so accounting stays closed
	}
	t.live[p] = owner
}

// release is the tracked half of Packet.Release. It reports whether p was
// live; a second release is reported and must not reach the free list.
func (t *PacketAudit) release(p *Packet) bool {
	owner, ok := t.live[p]
	if !ok {
		t.a.Report(t.lastOwner(p), "packet-double-release", int64(t.eng.Now()),
			"exactly one release per acquired packet", "second release of the same packet")
		return false
	}
	delete(t.live, p)
	t.last[p] = owner
	t.Released++
	return true
}

// lastOwner names the component that most recently released p.
func (t *PacketAudit) lastOwner(p *Packet) string {
	if o, ok := t.last[p]; ok {
		return o
	}
	return "netsim.packet"
}

// Live returns the number of tracked packets not yet released.
func (t *PacketAudit) Live() int { return len(t.live) }

// CheckLeaks reports every packet still live as a leak, aggregated per
// owner label in sorted order so the report is deterministic. Call it
// only at quiescence, when no frame can legitimately be in flight.
func (t *PacketAudit) CheckLeaks() {
	if len(t.live) == 0 {
		return
	}
	counts := make(map[string]int)
	for _, owner := range t.live {
		counts[owner]++
	}
	owners := make([]string, 0, len(counts))
	for o := range counts {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	for _, o := range owners {
		t.a.Report(o, "packet-leak", int64(t.eng.Now()),
			"0 live packets at quiescence", fmt.Sprintf("%d unreleased", counts[o]))
	}
}
