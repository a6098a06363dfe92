package netsim

import (
	"strings"
	"testing"

	"ncap/internal/audit"
	"ncap/internal/sim"
)

// auditedLink wires a tracker and auditor into a fresh link feeding a
// capture sink, mirroring how the cluster audits its fault links. The
// tests send pool packets, which the link adopts into the run's list.
func auditedLink() (*sim.Engine, *audit.Auditor, *PacketAudit, *Link, *sink) {
	eng := sim.NewEngine()
	a := audit.New()
	tr := NewPacketAudit(eng, a, NewPacketList())
	s := &sink{eng: eng}
	l := NewLink(eng, DefaultLinkConfig(), s)
	l.EnableAudit(tr, "srv.tx")
	return eng, a, tr, l, s
}

// TestAuditDetectsDoubleRelease: releasing the same packet twice is
// reported once, attributed to the component that owned it at release.
func TestAuditDetectsDoubleRelease(t *testing.T) {
	eng, a, tr, l, s := auditedLink()
	if !l.Send(NewRequest(2, 1, 1, []byte("GET /"))) {
		t.Fatal("send failed")
	}
	eng.Run(sim.Millisecond)
	if len(s.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(s.pkts))
	}
	p := s.pkts[0]
	p.Release()
	if tr.Live() != 0 || tr.Released != 1 {
		t.Fatalf("after release: live=%d released=%d", tr.Live(), tr.Released)
	}
	p.Release() // deliberate misuse
	vs := a.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly one", vs)
	}
	if vs[0].Invariant != "packet-double-release" {
		t.Fatalf("invariant = %q", vs[0].Invariant)
	}
	if vs[0].Component != "link.srv.tx" {
		t.Fatalf("component = %q, want the owning link label", vs[0].Component)
	}
}

// TestAuditDetectsLeak: packets never released surface at quiescence as
// one leak violation per owner, with the count and the owner label.
func TestAuditDetectsLeak(t *testing.T) {
	eng, a, tr, l, s := auditedLink()
	for i := 1; i <= 3; i++ {
		if !l.Send(NewRequest(2, 1, uint64(i), []byte("GET /"))) {
			t.Fatalf("send %d failed", i)
		}
		eng.Run(sim.Duration(i) * sim.Millisecond)
	}
	if len(s.pkts) != 3 || tr.Live() != 3 {
		t.Fatalf("delivered=%d live=%d, want 3/3", len(s.pkts), tr.Live())
	}
	tr.CheckLeaks() // nothing was released
	vs := a.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want one aggregated leak", vs)
	}
	v := vs[0]
	if v.Invariant != "packet-leak" || v.Component != "link.srv.tx" {
		t.Fatalf("violation = %+v", v)
	}
	if !strings.Contains(v.Got, "3 unreleased") {
		t.Fatalf("got = %q, want the leak count", v.Got)
	}
}

// TestAuditDetectsUseAfterRelease: re-sending a released packet is a
// distinct violation naming the last owner, and the packet is treated as
// live again so conservation accounting stays closed.
func TestAuditDetectsUseAfterRelease(t *testing.T) {
	eng, a, _, l, s := auditedLink()
	if !l.Send(NewRequest(2, 1, 1, []byte("GET /"))) {
		t.Fatal("send failed")
	}
	eng.Run(sim.Millisecond)
	p := s.pkts[0]
	p.Release()
	if !l.Send(p) { // deliberate misuse: the tracker owns this memory now
		t.Fatal("re-send failed")
	}
	vs := a.Violations()
	if len(vs) != 1 || vs[0].Invariant != "packet-use-after-release" {
		t.Fatalf("violations = %v, want one use-after-release", vs)
	}
	if !strings.Contains(vs[0].Got, "link.srv.tx") {
		t.Fatalf("got = %q, want the last owner named", vs[0].Got)
	}
}

// TestAuditCleanLifecycleIsSilent: the ordinary acquire → send → deliver
// → release cycle produces zero violations and closed accounting.
func TestAuditCleanLifecycleIsSilent(t *testing.T) {
	eng, a, tr, l, s := auditedLink()
	for i := 1; i <= 4; i++ {
		if !l.Send(NewRequest(2, 1, uint64(i), []byte("GET /"))) {
			t.Fatalf("send %d failed", i)
		}
		eng.Run(sim.Duration(i) * sim.Millisecond)
	}
	for _, p := range s.pkts {
		p.Release()
	}
	l.AuditConservation(a)
	tr.CheckLeaks()
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("clean lifecycle produced violations: %v", vs)
	}
	if tr.Adopted != 4 || tr.Released != 4 || tr.Live() != 0 {
		t.Fatalf("accounting = adopted %d released %d live %d", tr.Adopted, tr.Released, tr.Live())
	}
}

// TestAuditDetectsMisuseAfterLaterAllocs: a released packet is not handed
// out again for auditQuarantine allocations, so a double release or a
// use-after-release that comes after 64 other frames were allocated and
// released is still reported, not taken for the packet's next owner.
func TestAuditDetectsMisuseAfterLaterAllocs(t *testing.T) {
	for _, tc := range []struct {
		invariant string
		misuse    func(l *Link, p *Packet)
	}{
		{"packet-double-release", func(_ *Link, p *Packet) { p.Release() }},
		{"packet-use-after-release", func(l *Link, p *Packet) { l.Send(p) }},
	} {
		eng, a, tr, l, s := auditedLink()
		if !l.Send(NewRequest(2, 1, 1, []byte("GET /"))) {
			t.Fatal("send failed")
		}
		eng.Run(sim.Millisecond)
		p := s.pkts[0]
		p.Release()
		for i := 0; i < 64; i++ {
			q := tr.list.Alloc()
			if q == p {
				t.Fatalf("%s: released packet handed out again after %d allocations", tc.invariant, i)
			}
			q.Release()
		}
		tc.misuse(l, p)
		vs := a.Violations()
		if len(vs) != 1 || vs[0].Invariant != tc.invariant {
			t.Fatalf("violations = %v, want one %s", vs, tc.invariant)
		}
	}
}
