package netsim

import (
	"reflect"
	"testing"
	"testing/quick"

	"ncap/internal/sim"
)

type sink struct {
	pkts  []*Packet
	times []sim.Time
	eng   *sim.Engine
}

func (s *sink) Receive(p *Packet) {
	s.pkts = append(s.pkts, p)
	s.times = append(s.times, s.eng.Now())
}

func TestPacketWireSize(t *testing.T) {
	p := NewRequest(1, 2, 42, []byte("GET /index.html HTTP/1.1"))
	if p.WireSize() != HeaderBytes+24 {
		t.Fatalf("wire size = %d", p.WireSize())
	}
	if p.Kind != KindRequest || p.SegCount != 1 {
		t.Fatalf("request metadata wrong: %+v", p)
	}
}

func TestHeaderConstantsMatchPaper(t *testing.T) {
	if HeaderBytes != 66 {
		t.Fatalf("payload must start at byte 66 (Sec. 4.1), got %d", HeaderBytes)
	}
	if MTU != 1500 {
		t.Fatalf("MTU = %d", MTU)
	}
	if MSS != 1448 {
		t.Fatalf("MSS = %d, want 1448", MSS)
	}
}

// TestPacketListReusesAndFlushes: a released packet goes back to its
// run's list zeroed and is the next one handed out, the steady state
// allocates nothing, and Flush hands every free packet back to the
// process pool, detached from the list.
func TestPacketListReusesAndFlushes(t *testing.T) {
	l := NewPacketList()
	p := l.NewRequest(2, 1, 7, []byte("GET /"))
	if p.list != l {
		t.Fatal("a list's packet does not carry the list")
	}
	p.Release()
	q := l.Alloc()
	if q != p || !reflect.DeepEqual(*q, Packet{list: l}) {
		t.Fatalf("Alloc after Release = %p %+v, want the released packet zeroed", q, *q)
	}
	if n := testing.AllocsPerRun(100, func() { l.Alloc().Release() }); n != 0 {
		t.Fatalf("list alloc+release allocates %.1f per op", n)
	}
	q.Release()
	l.Flush()
	if len(l.free) != 0 || p.list != nil {
		t.Fatalf("after Flush: %d free, packet list %p", len(l.free), p.list)
	}
	if r := (*PacketList)(nil).Alloc(); r.list != nil {
		t.Fatal("a pool packet carries a list")
	}
}

func TestSegmentResponse(t *testing.T) {
	pkts := NewPacketList().SegmentResponse(nil, 1, 2, 7, 3000)
	if len(pkts) != 3 { // 1448+1448+104
		t.Fatalf("segments = %d, want 3", len(pkts))
	}
	total := 0
	for i, p := range pkts {
		total += p.PayloadLen
		if p.Seg != i || p.SegCount != 3 || p.ReqID != 7 || p.Kind != KindResponse {
			t.Fatalf("segment %d metadata wrong: %+v", i, p)
		}
		if p.PayloadLen > MSS {
			t.Fatalf("segment %d exceeds MSS: %d", i, p.PayloadLen)
		}
	}
	if total != 3000 {
		t.Fatalf("payload total = %d, want 3000", total)
	}
}

func TestSegmentResponseSmallAndZero(t *testing.T) {
	if got := NewPacketList().SegmentResponse(nil, 1, 2, 1, 100); len(got) != 1 || got[0].PayloadLen != 100 {
		t.Fatalf("small response: %+v", got)
	}
	if got := NewPacketList().SegmentResponse(nil, 1, 2, 1, 0); len(got) != 1 || got[0].PayloadLen != 1 {
		t.Fatalf("zero-byte response must still emit one frame: %+v", got)
	}
}

// SegmentResponse appends after what the buffer holds and reuses its
// backing array once it is large enough.
func TestSegmentResponseAppendsToBuffer(t *testing.T) {
	first := NewRequest(1, 2, 1, []byte("GET"))
	buf := NewPacketList().SegmentResponse([]*Packet{first}, 1, 2, 3, 2000)
	if len(buf) != 3 || buf[0] != first || buf[1].Seg != 0 || buf[2].Seg != 1 || buf[2].SegCount != 2 {
		t.Fatalf("appended segments wrong: %+v", buf)
	}
	backing := &buf[:cap(buf)][0]
	if again := NewPacketList().SegmentResponse(buf[:0], 1, 2, 4, 100); &again[0] != backing {
		t.Fatal("a large enough buffer was not reused")
	}
}

// Property: segmentation conserves bytes and never exceeds MSS.
func TestSegmentationProperty(t *testing.T) {
	f := func(raw uint32) bool {
		body := int(raw%10_000_000) + 1
		pkts := NewPacketList().SegmentResponse(nil, 1, 2, 1, body)
		total := 0
		for _, p := range pkts {
			if p.PayloadLen <= 0 || p.PayloadLen > MSS {
				return false
			}
			total += p.PayloadLen
		}
		return total == body && len(pkts) == (body+MSS-1)/MSS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkDeliveryTiming(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	l := NewLink(eng, DefaultLinkConfig(), s)
	p := NewRequest(1, 2, 1, make([]byte, 1434)) // wire = 1500 bytes
	l.Send(p)
	eng.Run(sim.Second)
	if len(s.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(s.pkts))
	}
	// 1500B at 10 Gb/s = 1.2 µs serialization + 1 µs propagation.
	want := sim.Time(2200 * sim.Nanosecond)
	if s.times[0] != want {
		t.Fatalf("arrival at %v, want %v", s.times[0], want)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	l := NewLink(eng, DefaultLinkConfig(), s)
	for i := 0; i < 3; i++ {
		l.Send(NewRequest(1, 2, uint64(i), make([]byte, 1434)))
	}
	eng.Run(sim.Second)
	if len(s.pkts) != 3 {
		t.Fatalf("delivered %d", len(s.pkts))
	}
	// Arrivals spaced by the 1.2 µs serialization time.
	for i := 1; i < 3; i++ {
		gap := s.times[i] - s.times[i-1]
		if gap != 1200*sim.Nanosecond {
			t.Fatalf("gap %d = %v, want 1.2µs", i, gap)
		}
	}
	if got := l.Bytes.Value(); got != 4500 {
		t.Fatalf("bytes = %d, want 4500", got)
	}
}

func TestLinkDropTail(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	cfg := DefaultLinkConfig()
	cfg.QueueBytes = 3000 // room for two 1500B frames
	l := NewLink(eng, cfg, s)
	sent := 0
	for i := 0; i < 5; i++ {
		if l.Send(NewRequest(1, 2, uint64(i), make([]byte, 1434))) {
			sent++
		}
	}
	if l.Drops.Value() == 0 {
		t.Fatal("expected drops with a tiny egress buffer")
	}
	eng.Run(sim.Second)
	if len(s.pkts) != sent {
		t.Fatalf("delivered %d, sent %d", len(s.pkts), sent)
	}
	// After draining, the queue is empty and new sends succeed.
	if !l.Send(NewRequest(1, 2, 99, []byte("x"))) {
		t.Fatal("send after drain failed")
	}
	if l.QueuedBytes() <= 0 {
		t.Fatal("queued bytes should reflect the in-flight frame")
	}
}

func TestLinkBusy(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, DefaultLinkConfig(), &sink{eng: eng})
	if l.Busy() {
		t.Fatal("fresh link busy")
	}
	l.Send(NewRequest(1, 2, 1, make([]byte, 1434)))
	if !l.Busy() {
		t.Fatal("link not busy during serialization")
	}
	eng.Run(sim.Second)
	if l.Busy() {
		t.Fatal("link busy after drain")
	}
}

func TestSwitchForwards(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 500*sim.Nanosecond)
	a := &sink{eng: eng}
	b := &sink{eng: eng}
	sw.Attach(1, DefaultLinkConfig(), a)
	sw.Attach(2, DefaultLinkConfig(), b)

	// Node 1 sends to node 2 through its uplink into the switch.
	up := NewLink(eng, DefaultLinkConfig(), sw)
	up.Send(NewRequest(1, 2, 1, []byte("GET /")))
	eng.Run(sim.Second)

	if len(b.pkts) != 1 || len(a.pkts) != 0 {
		t.Fatalf("forwarding wrong: a=%d b=%d", len(a.pkts), len(b.pkts))
	}
	if sw.Forwarded.Value() != 1 {
		t.Fatalf("forwarded = %d", sw.Forwarded.Value())
	}
}

func TestSwitchUnroutable(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 0)
	sw.Attach(1, DefaultLinkConfig(), &sink{eng: eng})
	sw.Receive(NewRequest(1, 99, 1, []byte("x")))
	eng.Run(sim.Second)
	if sw.Unroutable.Value() != 1 {
		t.Fatalf("unroutable = %d", sw.Unroutable.Value())
	}
}

func TestSwitchDuplicatePortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 0)
	sw.Attach(1, DefaultLinkConfig(), &sink{eng: eng})
	sw.Attach(1, DefaultLinkConfig(), &sink{eng: eng})
}

// Ports lists node ports in ascending address order whatever the attach
// order; Port is nil for an address never attached, in or beyond the
// table; a second Attach of an address, or one beyond the table's bound,
// panics.
func TestSwitchPortsInAddressOrder(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 0)
	byAddr := map[Addr]*Link{}
	for _, a := range []Addr{7, 3, 12, 1} {
		byAddr[a] = sw.Attach(a, DefaultLinkConfig(), &sink{eng: eng})
	}
	sw.AddRoute(40, sw.Connect(DefaultLinkConfig(), &sink{eng: eng}))
	ports := sw.Ports()
	for i, a := range []Addr{1, 3, 7, 12} {
		if i >= len(ports) || ports[i] != byAddr[a] || sw.Port(a) != byAddr[a] {
			t.Fatalf("Ports()[%d] is not the port toward %v (%d ports)", i, a, len(ports))
		}
	}
	if len(ports) != 4 {
		t.Fatalf("%d ports, want 4 (trunks are not ports)", len(ports))
	}
	for _, a := range []Addr{0, 2, 13, 40, maxAddr, maxAddr + 1, 1 << 31} {
		if sw.Port(a) != nil {
			t.Fatalf("Port(%v) is not nil", a)
		}
	}
	for _, a := range []Addr{3, maxAddr + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Attach(%v) did not panic", a)
				}
			}()
			sw.Attach(a, DefaultLinkConfig(), &sink{eng: eng})
		}()
	}
}

func TestKindAndAddrStrings(t *testing.T) {
	if KindRequest.String() != "request" || KindResponse.String() != "response" || KindBulk.String() != "bulk" {
		t.Fatal("Kind strings wrong")
	}
	if Kind(9).String() != "kind?9" {
		t.Fatal("unknown kind string")
	}
	if Addr(3).String() != "node3" {
		t.Fatal("addr string")
	}
}
