package nic

import (
	"testing"

	"ncap/internal/sim"
)

// A frame that failed the wire (fault-injected corruption) must die at
// the MAC's FCS check: no DMA, no NCAP inspection, no interrupt — the
// frame never existed as far as the host is concerned.
func TestCorruptFrameDroppedAtFCS(t *testing.T) {
	eng := sim.NewEngine()
	n := testNIC(eng)
	irqs := 0
	n.SetIRQ(func() { irqs++ })

	bad := req("GET /index.html")
	bad.Corrupt = true
	n.Receive(bad)
	eng.Run(sim.Millisecond)

	if n.RxCorruptDrops.Value() != 1 {
		t.Fatalf("RxCorruptDrops = %d, want 1", n.RxCorruptDrops.Value())
	}
	if n.RxPackets.Value() != 0 || n.RxBytes.Value() != 0 {
		t.Fatalf("corrupt frame accounted as received: pkts=%d bytes=%d",
			n.RxPackets.Value(), n.RxBytes.Value())
	}
	if irqs != 0 || n.Queue(0).RxPending() != 0 {
		t.Fatalf("corrupt frame reached the host: irqs=%d pending=%d", irqs, n.Queue(0).RxPending())
	}

	// A clean frame after the drop flows normally.
	n.Receive(req("GET /index.html"))
	eng.Run(2 * sim.Millisecond)
	if n.RxPackets.Value() != 1 || n.Queue(0).RxPending() != 1 {
		t.Fatalf("clean frame lost after FCS drop: pkts=%d pending=%d",
			n.RxPackets.Value(), n.Queue(0).RxPending())
	}

	n.ResetStats()
	if n.RxCorruptDrops.Value() != 0 {
		t.Fatal("ResetStats missed RxCorruptDrops")
	}
}
