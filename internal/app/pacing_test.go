package app

import (
	"testing"

	"ncap/internal/netsim"
	"ncap/internal/sim"
)

func TestTargetPeriodForEdges(t *testing.T) {
	// Burst size 1 degenerates to the pure inter-request period.
	if got := TargetPeriodFor(10_000, 1, 1); got != 100*sim.Microsecond {
		t.Fatalf("period = %v, want 100µs", got)
	}
	// One client carries the whole aggregate load.
	if got := TargetPeriodFor(30_000, 100, 1); got != sim.Duration(100)*sim.Second/30_000 {
		t.Fatalf("single-client period = %v", got)
	}
	// Splitting the same load across more clients scales the period
	// linearly: each sends less often.
	if TargetPeriodFor(30_000, 100, 6) != 2*TargetPeriodFor(30_000, 100, 3) {
		t.Fatal("period not linear in client count")
	}
}

func TestTargetPeriodForPanics(t *testing.T) {
	cases := []struct {
		name     string
		load     float64
		burst, n int
	}{
		{"zero clients", 30_000, 100, 0},
		{"negative clients", 30_000, 100, -1},
		{"zero burst", 30_000, 0, 3},
		{"zero load", 0, 100, 3},
		{"negative load", -1, 100, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic for degenerate pacing arguments")
				}
			}()
			TargetPeriodFor(tc.load, tc.burst, tc.n)
		})
	}
}

// TestBurstSpacingPaces: requests within a burst leave Spacing apart —
// the pacing the trace generators inherit as the default MinGap.
func TestBurstSpacingPaces(t *testing.T) {
	r := newServerRig(MemcachedProfile())
	sw := netsim.NewSwitch(r.eng, 500*sim.Nanosecond)
	r.dev.SetLink(netsim.NewLink(r.eng, netsim.DefaultLinkConfig(), sw))
	sw.Attach(1, netsim.DefaultLinkConfig(), r.dev)

	cfg := DefaultClientConfig()
	cfg.BurstSize = 10
	cfg.Period = 5 * sim.Millisecond
	cfg.Spacing = 2 * sim.Microsecond
	cl := NewClient(r.eng, 2, 1, netsim.NewLink(r.eng, netsim.DefaultLinkConfig(), sw),
		MemcachedProfile().RequestPayload(), cfg, sim.NewRand(3, "client"), nil)
	sw.Attach(2, netsim.DefaultLinkConfig(), cl)

	var sends []sim.Time
	cl.OnSend = func(at sim.Time, flow, reqBytes, respHint int, class string) {
		sends = append(sends, at)
	}
	cl.Start()
	// Run just past the first burst's spacing fan-out, before the second.
	r.eng.Run(sim.Time(cfg.Spacing) * 10)
	if len(sends) != 10 {
		t.Fatalf("first burst sent %d requests, want 10", len(sends))
	}
	for i := 1; i < len(sends); i++ {
		if got := sends[i] - sends[i-1]; got != sim.Time(cfg.Spacing) {
			t.Fatalf("send %d follows %d by %v, want %v", i, i-1, got, cfg.Spacing)
		}
	}
}

// TestBurstSizeOne: the burst degenerates cleanly — one send per period,
// no spacing events, still periodic.
func TestBurstSizeOne(t *testing.T) {
	r := newServerRig(MemcachedProfile())
	sw := netsim.NewSwitch(r.eng, 500*sim.Nanosecond)
	r.dev.SetLink(netsim.NewLink(r.eng, netsim.DefaultLinkConfig(), sw))
	sw.Attach(1, netsim.DefaultLinkConfig(), r.dev)

	cfg := DefaultClientConfig()
	cfg.BurstSize = 1
	cfg.Period = 1 * sim.Millisecond
	cl := NewClient(r.eng, 2, 1, netsim.NewLink(r.eng, netsim.DefaultLinkConfig(), sw),
		MemcachedProfile().RequestPayload(), cfg, sim.NewRand(3, "client"), nil)
	sw.Attach(2, netsim.DefaultLinkConfig(), cl)

	cl.Start()
	r.eng.Run(20 * sim.Millisecond)
	// 20 periods (±5% jitter) of one request each.
	if sent := cl.Sent.Value(); sent < 18 || sent > 22 {
		t.Fatalf("burst size 1 sent %d over 20 periods", sent)
	}
	// Pacing-event accounting covers both the burst ticks and the sends.
	if fires := cl.PacingFires(); fires < uint64(2*cl.Sent.Value()) {
		t.Fatalf("pacing fires %d for %d sends", fires, cl.Sent.Value())
	}
}
