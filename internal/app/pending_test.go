package app

import (
	"testing"

	"ncap/internal/netsim"
	"ncap/internal/sim"
)

// checkPendingRing verifies the client's pending ring: every live request
// sits in the slot its sequence number indexes, Outstanding() counts
// exactly the live requests, and every sent request is either live or
// retired through exactly one terminal outcome.
func checkPendingRing(t *testing.T, cl *Client) {
	t.Helper()
	live := 0
	mask := uint64(len(cl.pending) - 1)
	for slot, pr := range cl.pending {
		if pr == nil {
			continue
		}
		live++
		if pr.id&mask != uint64(slot) {
			t.Fatalf("request %#x in slot %d, want slot %d", pr.id, slot, pr.id&mask)
		}
	}
	if got := cl.Outstanding(); got != live {
		t.Fatalf("Outstanding() = %d, ring holds %d live requests", got, live)
	}
	retired := cl.Completed.Value() + cl.Abandoned.Value() + cl.DeadlineExceeded.Value() + cl.BudgetDenied.Value()
	if sent := cl.Sent.Value(); sent-retired != int64(live) {
		t.Fatalf("sent %d, retired %d, but %d live", sent, retired, live)
	}
}

// response builds segment seg of a segs-segment response to request seq
// of the client at addr 2.
func response(seq uint64, seg, segs int) *netsim.Packet {
	return &netsim.Packet{Src: 1, Dst: 2, Kind: netsim.KindResponse,
		ReqID: uint64(2)<<40 | seq, Seg: seg, SegCount: segs, PayloadLen: 100}
}

// TestClientPendingRingGrows: against a dead server, one burst puts more
// requests in flight than the initial ring holds. The ring doubles until
// they fit, Outstanding() tracks every send and retire, and the RTO path
// drains it all.
func TestClientPendingRingGrows(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultClientConfig()
	cfg.BurstSize = 3 * initialPendingRing
	cfg.Period = sim.Second
	cfg.RTO = sim.Millisecond
	cfg.MaxRetries = 1
	cl := silentClient(eng, cfg)
	cl.Start()
	peak := 0
	for eng.Now() < 50*sim.Millisecond && eng.Step() {
		checkPendingRing(t, cl)
		if n := cl.Outstanding(); n > peak {
			peak = n
		}
	}
	if peak != cfg.BurstSize {
		t.Fatalf("peak outstanding = %d, want the whole burst (%d)", peak, cfg.BurstSize)
	}
	if got := len(cl.pending); got != 4*initialPendingRing {
		t.Fatalf("ring holds %d slots, want %d", got, 4*initialPendingRing)
	}
	if cl.Outstanding() != 0 || cl.Abandoned.Value() != int64(cfg.BurstSize) {
		t.Fatalf("outstanding = %d, abandoned = %d, want 0 and %d",
			cl.Outstanding(), cl.Abandoned.Value(), cfg.BurstSize)
	}
}

// TestClientOutstandingTracksLiveRequests: against a live server, with
// requests completing while later ones are sent, Outstanding() matches
// the ring after every event.
func TestClientOutstandingTracksLiveRequests(t *testing.T) {
	r := newServerRig(ApacheProfile())
	sw := netsim.NewSwitch(r.eng, 500*sim.Nanosecond)
	r.dev.SetLink(netsim.NewLink(r.eng, netsim.DefaultLinkConfig(), sw))
	sw.Attach(1, netsim.DefaultLinkConfig(), r.dev)
	cfg := DefaultClientConfig()
	cfg.BurstSize = 40
	cfg.Period = 2 * sim.Millisecond
	cl := NewClient(r.eng, 2, 1, netsim.NewLink(r.eng, netsim.DefaultLinkConfig(), sw),
		ApacheProfile().RequestPayload(), cfg, sim.NewRand(3, "client"), nil)
	sw.Attach(2, netsim.DefaultLinkConfig(), cl)
	cl.Start()
	for r.eng.Now() < 20*sim.Millisecond && r.eng.Step() {
		checkPendingRing(t, cl)
	}
	if cl.Completed.Value() < 100 {
		t.Fatalf("completed = %d, want most of ~400", cl.Completed.Value())
	}
}

// TestClientIgnoresStaleResponses: a response for a request that was
// already retired is dropped, both when its ring slot is empty (a
// duplicate) and when a later request with the same slot now holds it.
func TestClientIgnoresStaleResponses(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultClientConfig()
	cfg.BurstSize = initialPendingRing + 1
	cfg.Period = sim.Second
	cfg.RTO = 0
	cl := silentClient(eng, cfg)
	cl.Start()
	eng.Run(0) // the burst and request 0 fire at time 0
	if cl.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want request 0 alone", cl.Outstanding())
	}
	cl.Receive(response(0, 0, 1))
	if cl.Completed.Value() != 1 || cl.Outstanding() != 0 {
		t.Fatalf("completed = %d, outstanding = %d after request 0's response",
			cl.Completed.Value(), cl.Outstanding())
	}
	cl.Receive(response(0, 0, 1)) // duplicate for a retired ID, empty slot
	if cl.Completed.Value() != 1 {
		t.Fatal("duplicate response completed a retired request")
	}

	eng.Run(sim.Millisecond) // requests 1..initialPendingRing
	n := uint64(initialPendingRing)
	if cl.Outstanding() != initialPendingRing || len(cl.pending) != initialPendingRing {
		t.Fatalf("outstanding = %d in %d slots, want a full initial ring",
			cl.Outstanding(), len(cl.pending))
	}
	if pr := cl.pending[0]; pr == nil || pr.id != uint64(2)<<40|n {
		t.Fatalf("slot 0 does not hold request %d", n)
	}
	cl.Receive(response(0, 0, 1)) // stale ID, slot held by request n
	if cl.Completed.Value() != 1 || cl.Outstanding() != initialPendingRing {
		t.Fatalf("stale response changed state: completed = %d, outstanding = %d",
			cl.Completed.Value(), cl.Outstanding())
	}
	cl.Receive(response(n, 0, 1))
	if cl.Completed.Value() != 2 || cl.pending[0] != nil {
		t.Fatalf("request %d did not complete on its own response", n)
	}
	checkPendingRing(t, cl)
}
