package nic

import (
	"testing"

	"ncap/internal/core"
	"ncap/internal/netsim"
	"ncap/internal/sim"
)

type chipStub struct{ atMax, atMin bool }

func (c *chipStub) AtMaxFreq() bool { return c.atMax }
func (c *chipStub) AtMinFreq() bool { return c.atMin }

func testNIC(eng *sim.Engine) *NIC {
	return New(eng, 1, DefaultConfig())
}

func req(payload string) *netsim.Packet {
	return netsim.NewRequest(2, 1, 1, []byte(payload))
}

func TestRxInterruptAfterQuietPeriod(t *testing.T) {
	eng := sim.NewEngine()
	n := testNIC(eng)
	var irqAt []sim.Time
	n.SetIRQ(func() { irqAt = append(irqAt, eng.Now()) })

	n.Receive(req("GET /"))
	eng.Run(sim.Millisecond)

	if len(irqAt) != 1 {
		t.Fatalf("IRQs = %d, want 1", len(irqAt))
	}
	// DMA (0.5µs setup + ~0.07µs transfer) then PITT (25µs quiet).
	if irqAt[0] < 25*sim.Microsecond || irqAt[0] > 30*sim.Microsecond {
		t.Fatalf("IRQ at %v, want ~25.6µs", irqAt[0])
	}
	if n.Queue(0).ReadICR()&ITRx == 0 {
		t.Fatal("ICR missing IT_RX")
	}
	if n.Queue(0).RxPending() != 1 {
		t.Fatalf("pending = %d", n.Queue(0).RxPending())
	}
}

func TestAITTBoundsBurstDelay(t *testing.T) {
	eng := sim.NewEngine()
	n := testNIC(eng)
	var irqAt []sim.Time
	n.SetIRQ(func() { irqAt = append(irqAt, eng.Now()) })

	// A steady stream every 10 µs keeps rearming the PITT; the AITT must
	// still fire within ~100 µs of the first DMA completion.
	for i := 0; i < 30; i++ {
		d := sim.Duration(i) * 10 * sim.Microsecond
		eng.AtArg(d, func(any) { n.Receive(req("GET /")) }, nil)
	}
	eng.Run(400 * sim.Microsecond)
	if len(irqAt) == 0 {
		t.Fatal("no IRQ despite AITT")
	}
	if irqAt[0] > 110*sim.Microsecond {
		t.Fatalf("first IRQ at %v, want <= ~105µs (AITT)", irqAt[0])
	}
}

func TestPollDrainsFIFO(t *testing.T) {
	eng := sim.NewEngine()
	n := testNIC(eng)
	n.SetIRQ(func() {})
	for i := 0; i < 5; i++ {
		p := netsim.NewRequest(2, 1, uint64(i), []byte("GET /"))
		n.Receive(p)
	}
	eng.Run(sim.Millisecond)
	got := n.Poll(3)
	if len(got) != 3 || got[0].ReqID != 0 || got[2].ReqID != 2 {
		t.Fatalf("poll = %v", got)
	}
	if n.Queue(0).RxPending() != 2 {
		t.Fatalf("pending = %d", n.Queue(0).RxPending())
	}
	rest := n.Poll(64)
	if len(rest) != 2 || rest[0].ReqID != 3 {
		t.Fatalf("second poll = %v", rest)
	}
	if n.Poll(64) != nil {
		t.Fatal("poll on empty returned packets")
	}
}

func TestRxRingOverflowDrops(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.RxRing = 4
	n := New(eng, 1, cfg)
	n.SetIRQ(func() {})
	for i := 0; i < 10; i++ {
		n.Receive(req("GET /"))
	}
	eng.Run(sim.Millisecond)
	if n.RxDrops.Value() != 6 {
		t.Fatalf("drops = %d, want 6", n.RxDrops.Value())
	}
	if n.Queue(0).RxPending() != 4 {
		t.Fatalf("pending = %d, want 4", n.Queue(0).RxPending())
	}
}

func TestNAPIMasking(t *testing.T) {
	eng := sim.NewEngine()
	n := testNIC(eng)
	irqs := 0
	n.SetIRQ(func() { irqs++ })

	n.Queue(0).MaskRxIRQ()
	n.Receive(req("GET /"))
	eng.Run(sim.Millisecond)
	if irqs != 0 {
		t.Fatalf("masked NIC raised %d IRQs", irqs)
	}
	// Unmasking with pending packets re-raises immediately.
	n.Queue(0).UnmaskRxIRQ()
	if irqs != 1 {
		t.Fatalf("unmask raised %d IRQs, want 1", irqs)
	}
}

func TestReadICRClears(t *testing.T) {
	eng := sim.NewEngine()
	n := testNIC(eng)
	n.SetIRQ(func() {})
	n.Receive(req("GET /"))
	eng.Run(sim.Millisecond)
	if v := n.Queue(0).ReadICR(); v&ITRx == 0 {
		t.Fatalf("ICR = %b", v)
	}
	if v := n.Queue(0).ReadICR(); v != 0 {
		t.Fatalf("second read = %b, want 0", v)
	}
}

func TestNCAPHighOnBurst(t *testing.T) {
	eng := sim.NewEngine()
	n := testNIC(eng)
	chip := &chipStub{}
	var causes []uint32
	n.SetIRQ(func() { causes = append(causes, n.Queue(0).ReadICR()) })
	n.Queue(0).EnableNCAP(core.DefaultConfig(), chip)
	n.Queue(0).Monitor().ProgramStrings("GET")

	// A dense burst: 10 GETs in the first 20 µs => ReqRate at the first
	// MITT expiry (50µs) is 200K RPS > RHT.
	for i := 0; i < 10; i++ {
		d := sim.Duration(i) * 2 * sim.Microsecond
		eng.AtArg(d, func(any) { n.Receive(req("GET /x")) }, nil)
	}
	eng.Run(60 * sim.Microsecond)

	var sawHigh bool
	for _, c := range causes {
		if c&ITHigh != 0 {
			if c&ITRx == 0 {
				t.Fatal("IT_HIGH posted without IT_RX")
			}
			sawHigh = true
		}
	}
	if !sawHigh {
		t.Fatalf("no IT_HIGH posted; causes=%v", causes)
	}
}

func TestNCAPCITWakeBeforeDMACompletes(t *testing.T) {
	// The CIT wake must be posted at wire arrival (t=0), before the DMA
	// and moderation delay — the overlap that hides the wake latency.
	eng := sim.NewEngine()
	n := testNIC(eng)
	var irqAt []sim.Time
	var causes []uint32
	n.SetIRQ(func() {
		irqAt = append(irqAt, eng.Now())
		causes = append(causes, n.Queue(0).ReadICR())
	})
	n.Queue(0).EnableNCAP(core.DefaultConfig(), &chipStub{})
	n.Queue(0).Monitor().ProgramStrings("GET")

	// Arrange a long silent gap: start the clock 1 ms in.
	eng.Run(sim.Millisecond)
	n.Receive(req("GET /hot"))
	eng.Run(2 * sim.Millisecond)

	if len(irqAt) < 2 {
		t.Fatalf("want CIT wake + moderated rx IRQ, got %d IRQs", len(irqAt))
	}
	if irqAt[0] != sim.Millisecond {
		t.Fatalf("CIT wake at %v, want exactly at wire arrival (1ms)", irqAt[0])
	}
	if causes[0]&ITRx == 0 {
		t.Fatalf("CIT wake cause = %b, want IT_RX", causes[0])
	}
	// The regular moderated interrupt follows ~32µs later.
	if irqAt[1] <= irqAt[0] {
		t.Fatal("moderated IRQ did not follow")
	}
}

func TestNCAPNoCITWakeForUnmatchedTraffic(t *testing.T) {
	eng := sim.NewEngine()
	n := testNIC(eng)
	var irqAt []sim.Time
	var causes []uint32
	n.SetIRQ(func() {
		irqAt = append(irqAt, eng.Now())
		causes = append(causes, n.Queue(0).ReadICR())
	})
	n.Queue(0).EnableNCAP(core.DefaultConfig(), &chipStub{})
	n.Queue(0).Monitor().ProgramStrings("GET")

	eng.Run(sim.Millisecond)
	// Bulk traffic (no template match) must not trigger the CIT path: no
	// interrupt at wire-arrival time; the IT_RX arrives via moderation.
	arrival := eng.Now()
	n.Receive(netsim.NewRequest(2, 1, 1, []byte("PUT /upload")))
	eng.Run(2 * sim.Millisecond)
	rxIRQs := 0
	for i, c := range causes {
		if irqAt[i] == arrival {
			t.Fatalf("immediate IRQ at arrival (cause %b): CIT path fired for bulk traffic", c)
		}
		if c&ITRx != 0 {
			rxIRQs++
		}
	}
	if rxIRQs != 1 {
		t.Fatalf("rx-cause IRQs = %d, want 1 (moderated only)", rxIRQs)
	}
}

func TestNCAPLowAfterQuiet(t *testing.T) {
	eng := sim.NewEngine()
	n := testNIC(eng)
	var causes []uint32
	n.SetIRQ(func() { causes = append(causes, n.Queue(0).ReadICR()) })
	n.Queue(0).EnableNCAP(core.DefaultConfig(), &chipStub{})
	n.Queue(0).Monitor().ProgramStrings("GET")
	// Nothing arrives at all: after ~1.05ms of quiet MITT periods, IT_LOW.
	eng.Run(3 * sim.Millisecond)
	lows := 0
	for _, c := range causes {
		if c&ITLow != 0 {
			lows++
		}
	}
	if lows < 1 {
		t.Fatalf("no IT_LOW after quiet; causes=%v", causes)
	}
}

func TestNCAPLowSuppressedAtMinFreq(t *testing.T) {
	eng := sim.NewEngine()
	n := testNIC(eng)
	irqs := 0
	n.SetIRQ(func() { irqs++ })
	n.Queue(0).EnableNCAP(core.DefaultConfig(), &chipStub{atMin: true})
	eng.Run(10 * sim.Millisecond)
	if irqs != 0 {
		t.Fatalf("IRQs = %d at min frequency, want 0", irqs)
	}
}

func TestTransmitCountsAndNCAPTxCnt(t *testing.T) {
	eng := sim.NewEngine()
	n := testNIC(eng)
	n.Queue(0).EnableNCAP(core.DefaultConfig(), &chipStub{})
	sink := &recvSink{}
	n.SetLink(netsim.NewLink(eng, netsim.DefaultLinkConfig(), sink))
	pkts := netsim.NewPacketList().SegmentResponse(nil, 1, 2, 9, 4000)
	for _, p := range pkts {
		if !n.Transmit(p) {
			t.Fatal("transmit failed")
		}
	}
	eng.Run(sim.Millisecond)
	if len(sink.got) != len(pkts) {
		t.Fatalf("delivered %d, want %d", len(sink.got), len(pkts))
	}
	wantBytes := int64(0)
	for _, p := range pkts {
		wantBytes += int64(p.WireSize())
	}
	if n.TxBytes.Value() != wantBytes {
		t.Fatalf("TxBytes = %d, want %d", n.TxBytes.Value(), wantBytes)
	}
}

type recvSink struct{ got []*netsim.Packet }

func (r *recvSink) Receive(p *netsim.Packet) { r.got = append(r.got, p) }

func TestStockNICHasNoNCAP(t *testing.T) {
	eng := sim.NewEngine()
	n := testNIC(eng)
	if n.NCAPEnabled() || n.Queue(0).Monitor() != nil || n.Queue(0).Decision() != nil {
		t.Fatal("stock NIC exposes NCAP blocks")
	}
	irqs := 0
	n.SetIRQ(func() { irqs++ })
	eng.Run(10 * sim.Millisecond) // MITT never started
	if irqs != 0 {
		t.Fatalf("stock NIC posted %d spurious IRQs", irqs)
	}
}

func TestResetStats(t *testing.T) {
	eng := sim.NewEngine()
	n := testNIC(eng)
	n.SetIRQ(func() {})
	n.Receive(req("GET /"))
	eng.Run(sim.Millisecond)
	n.ResetStats()
	if n.RxBytes.Value() != 0 || n.IRQs.Value() != 0 {
		t.Fatal("counters not reset")
	}
}

func TestDMASerializesTransfers(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.DMASetup = 10 * sim.Microsecond
	n := New(eng, 1, cfg)
	n.SetIRQ(func() {})
	// Two simultaneous arrivals: second DMA completes ~10µs after first.
	n.Receive(req("GET /a"))
	n.Receive(req("GET /b"))
	eng.Run(15 * sim.Microsecond)
	if n.Queue(0).RxPending() != 1 {
		t.Fatalf("pending after 15µs = %d, want 1 (DMA serialized)", n.Queue(0).RxPending())
	}
	eng.Run(25 * sim.Microsecond)
	if n.Queue(0).RxPending() != 2 {
		t.Fatalf("pending after 25µs = %d, want 2", n.Queue(0).RxPending())
	}
}

// With no trace attached, raising an interrupt does not render its cause
// bits: a frame's DMA, moderation and IRQ allocate nothing.
func TestUntracedInterruptDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	n := testNIC(eng)
	n.SetIRQ(func() {})
	payload := []byte("GET /")
	allocs := testing.AllocsPerRun(100, func() {
		n.Receive(netsim.NewRequest(2, 1, 1, payload))
		for eng.Step() {
		}
		batch := n.Poll(64)
		for _, p := range batch {
			p.Release()
		}
		n.Queue(0).Recycle(batch)
	})
	if allocs != 0 {
		t.Fatalf("untraced receive and interrupt allocate %.1f times, want 0", allocs)
	}
}
